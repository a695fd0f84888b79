"""The installed package runs on numpy alone: importing every module of
fewshift loads no scipy module (scipy is a test-only dependency)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fewshift

PROBE = """
import importlib, json, pkgutil, sys
import fewshift
names = [m.name for m in pkgutil.iter_modules(fewshift.__path__, "fewshift.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_importing_every_module_loads_no_scipy():
    src = str(Path(fewshift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert "fewshift.cli" in report["modules"] and "fewshift.engine" in report["modules"]
    assert report["scipy"] == []
