import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import dynamolab


PUBLIC_NAMES = {
    "AlphaPair", "AlphaProfile", "BracketError", "BranchEvent", "BranchTrace",
    "ClassificationError", "ConfigurationError", "DarbouxPair", "DegeneratePencilError",
    "DegenerateQError", "DomainError", "DynamoLabError", "DynamoMatrix", "GaugeChoice",
    "GivenSeed", "JordanProbe", "MatrixODESolution", "NoGoReport", "PencilCoefficients",
    "RadialGrid", "ShapeError", "SingularSuperpotentialError", "SolverError",
    "Spectrum", "StructureFunctions", "SweepConfig", "TrackingError", "TridiagOp",
    "assemble", "asymptotic_l_increment", "build_R", "build_grid", "builtin_pair_family",
    "classify_pairs", "darboux_partner", "degenerate_case_check", "dynamo_family", "eigen",
    "eigenfunction_equivalence", "factorization_residual", "inner_product",
    "intertwining_defect", "jordan_probe", "lambda_pm", "laplacian_l", "locate_ep",
    "mre_linear_solve", "nogo_certificate", "parse_profile", "partner_mode",
    "pencil_coefficients", "pencil_psi2", "product_invariant_check",
    "pseudo_hermiticity_residual", "riccati_residual", "sharp", "sweep", "verify_isospectral",
}


def test_public_names_are_pinned():
    # a new or removed public name has to show up here as a test edit
    assert len(PUBLIC_NAMES) == 58
    assert set(dynamolab.__all__) == PUBLIC_NAMES


# parameters and dataclass fields with a default, per public callable; the rest have none
OPTIONAL_PARAMETERS = {
    "AlphaPair": {"e"},
    "GaugeChoice": {"eps", "gamma"},
    "Spectrum": {"disk", "right_of"},
    "StructureFunctions": {"gauge"},
    "SweepConfig": {"l", "n", "track_count"},
    "asymptotic_l_increment": {"c1", "e"},
    "builtin_pair_family": {"l1"},
    "darboux_partner": {"seed"},
    "eigen": {"leading", "near", "want_vectors"},
    "intertwining_defect": {"gauge", "n"},
    "locate_ep": {"lambda_ref"},
    "mre_linear_solve": {"init", "r_end", "step"},
    "nogo_certificate": {"defect_n", "defect_samples", "family", "l1", "samples"},
    "riccati_residual": {"r_min"},
    "sweep": {"family"},
}


def optional_parameters(obj) -> set:
    names = {p.name for p in inspect.signature(obj).parameters.values() if p.default is not p.empty}
    if dataclasses.is_dataclass(obj):
        missing = dataclasses.MISSING
        names |= {f.name for f in dataclasses.fields(obj) if (f.default, f.default_factory) != (missing, missing)}
    return names


def test_optional_parameters_are_pinned():
    # a new setting of the public API has to show up here as a test edit
    callables = [
        name for name in dynamolab.__all__
        if not (isinstance(getattr(dynamolab, name), type) and issubclass(getattr(dynamolab, name), Exception))
    ]
    assert set(OPTIONAL_PARAMETERS) <= set(callables)
    got = {name: optional_parameters(getattr(dynamolab, name)) for name in callables}
    assert got == {name: OPTIONAL_PARAMETERS.get(name, set()) for name in callables}
    assert sum(map(len, got.values())) == 29


def test_no_private_imports_between_modules():
    # a helper that two modules share lives, under a public name, in the module
    # that owns it (as grid.central_difference); grid._freeze is the one exception
    package = Path(dynamolab.__file__).parent
    found = {
        (path.name, node.module, alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert {(module, name) for _, module, name in found} <= {("grid", "_freeze")}, sorted(found)


def test_public_names_resolve_once():
    names = dynamolab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(dynamolab, name) is not None


def run_fresh(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports the package from this checkout."""
    src = str(Path(dynamolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    # scipy.interpolate is imported by spline profiles on use,
    # scipy.sparse.linalg by the local eigensolve, scipy.linalg by the
    # Darboux tridiagonal solves; the dense eigensolve runs on numpy
    code = (
        "import sys, dynamolab.cli; "
        "print([m for m in ('scipy.interpolate', 'scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])"
    )
    assert run_fresh(code) == "[]"


def test_commands_without_sparse_or_spline_work_load_no_scipy(tmp_path):
    commands = [
        ["spectrum", "--alpha", "poly:1,0,0.5", "--n", "16"],
        ["pencil-check", "--alpha", "poly:1,0,0.5", "--n", "16", "--modes", "4"],
        ["nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--l1", "2", "--samples", "50"],
        ["mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "poly:1,0,0.5", "--step", "1e-2"],
        ["certificate"],
    ]
    calls = "".join(
        f"assert main({argv + ['--out', str(tmp_path / f'{i}.csv')]!r}) == 0; "
        for i, argv in enumerate(commands)
    )
    code = (
        "import sys; from dynamolab.cli import main; "
        + calls
        + "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert run_fresh(code) == "[]"


def test_darboux_loads_no_scipy_interpolate(tmp_path):
    argv = ["darboux", "--n", "64", "--levels", "2", "--out", str(tmp_path / "d.csv")]
    code = (
        f"import sys; from dynamolab.cli import main; assert main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"
    )
    assert run_fresh(code) == "[]"
