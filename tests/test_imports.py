import os
import subprocess
import sys
from pathlib import Path

import fairfilter

# imports every fairfilter module in a fresh interpreter and prints each
# scipy module left in sys.modules
PROBE = """
import importlib, pkgutil, sys
import fairfilter
for info in pkgutil.iter_modules(fairfilter.__path__, "fairfilter."):
    importlib.import_module(info.name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_module_imports_scipy():
    """scipy is a test-only dependency: importing it costs every command about
    66 MiB and 0.7 s of start-up."""
    src = str(Path(fairfilter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
