"""Exception taxonomy shared by all dynamolab modules.

Two leaves, one per failure exit code of the CLI.  Invalid input raises
ConfigurationError (exit 2): bad sizes, shapes or literals, inputs outside an
operation's domain, and unmet preconditions a caller could have checked.  A
computation that was attempted and failed, or produced something outside its
contract, raises SolverError (exit 3).
"""


class DynamoLabError(Exception):
    """Base class for all dynamolab errors."""


class ConfigurationError(DynamoLabError):
    """Invalid input: the CLI exits 2."""


class SolverError(DynamoLabError):
    """A computation failed or violated its contract: the CLI exits 3."""
