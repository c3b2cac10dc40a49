import os
import subprocess
import sys
from pathlib import Path

import dynamolab


def test_public_names_resolve_once():
    names = dynamolab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(dynamolab, name) is not None


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    # scipy.interpolate is imported by spline profiles and darboux on use,
    # scipy.sparse.linalg by the local eigensolve, scipy.linalg by the dense
    # eigensolve and the Darboux tridiagonal solves
    src = str(Path(dynamolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, dynamolab.cli; "
        "print([m for m in ('scipy.interpolate', 'scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
