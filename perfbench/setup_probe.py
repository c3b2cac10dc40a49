"""Set-up as a user meets it: a fresh interpreter imports the CLI and warms up.

    python3 perfbench/setup_probe.py WORKLOAD OUTDIR

Imports ``dynamolab.cli`` before anything else, so that ``-X importtime``
attributes numpy and scipy to it, then makes one small call of each focus
operation of WORKLOAD, writing into OUTDIR.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dynamolab.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.warm_up(workloads.FOCUS[sys.argv[1]], Path(sys.argv[2]))
