"""The demos, the benchmark's span table and the exports against the package."""

import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qlqg

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(qlqg.__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# perfbench is a directory of scripts, not a package
SPANS = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
PATCHES = [(module, name) for module, names in SPANS["PATCHES"].items() for name in names]


@pytest.mark.parametrize("module, name", PATCHES, ids=[f"{m}.{n}" for m, n in PATCHES])
def test_benchmark_patch_target_exists(module, name):
    # a traced benchmark run looks every span target up by name
    assert hasattr(importlib.import_module(module), name)


MODULES = [f"qlqg.{info.name}" for info in pkgutil.iter_modules(qlqg.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    # a stale __all__ entry fails only at a star import
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
