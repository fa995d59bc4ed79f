import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_optimize_or_integrate():
    # scipy.integrate pulls in scipy.optimize: together a large share of the
    # import time of the package and of every CLI call
    code = ("import sys, frontlab, frontlab.verify; "
            "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
