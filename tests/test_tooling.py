"""The demos, the benchmark's span table and the exports against the package."""

import importlib
import inspect
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


def test_package_exports_every_module_all_once():
    # the package's public names are its modules' __all__, the exception
    # classes, free_particle and __version__, each listed once
    errors = importlib.import_module("qlqg.errors")
    expected = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, Exception)}
    for module in MODULES:
        expected |= set(getattr(importlib.import_module(module), "__all__", ()))
    public = {name for name, obj in vars(qlqg).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert len(qlqg.__all__) == len(set(qlqg.__all__))
    assert set(qlqg.__all__) == public | {"free_particle"} == expected | {"free_particle"}
    assert isinstance(qlqg.__version__, str)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
