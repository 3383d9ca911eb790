"""The demos, the benchmark's span table, the exports and the version,
the README's stream recipe, the imports between the simulators and of
the readers, the one builder of the closed loop's scheme, and the input
checks of the public dataclasses, of the Kalman step's record and of
the kinds of the entry points' arguments against the package."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qlqg
from qlqg._readers import SYM_TOL

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


def test_package_version_is_the_projects():
    # the version names the numbers a (seed, index) gives, so the package
    # and its project metadata must agree; tomllib is Python 3.11's
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert qlqg.__version__ == project["version"]


def test_readme_stream_recipe_is_a_replay():
    # the README states the stream contract as a plain-numpy recipe for a
    # trajectory's Wiener increments; evaluated for one (seed, i), in the
    # middle of its block of 8, it gives bit for bit the innovations of
    # that trajectory's replay
    section = (ROOT / "README.md").read_text().split("## Reproducibility\n")[1]
    recipe = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    seed, i, n_steps, d = 41, 8 * 3 + 5, 300, 2
    grid = qlqg.TimeGrid(0.0, 0.3, n_steps)
    scope = {"np": np, "seed": seed, "i": i, "n_steps": n_steps, "d": d, "dt": grid.dt}
    exec(recipe, scope)
    rng = np.random.default_rng(3)
    coeffs = qlqg.LinearCoefficients(
        A=rng.standard_normal((2, 2)), B=rng.standard_normal((2, 1)),
        C=rng.standard_normal((d, 2)), N=np.eye(2), M=np.zeros((2, d)))
    cost = qlqg.CostSpec(F=np.eye(2), G=np.zeros((1, 2)), Omega_T=np.eye(2))
    replay = qlqg.simulate_closed_loop(
        coeffs, cost, qlqg.SimConfig(grid=grid, n_traj=1, seed=seed),
        qlqg.GaussianBelief(mean=np.ones(2), cov=np.eye(2)), first=i)
    assert scope["dW"].shape == (n_steps, d)
    np.testing.assert_array_equal(replay.innovations[0, 1:], scope["dW"])


@pytest.mark.parametrize("module, other", [("sme", "closed_loop"), ("closed_loop", "sme")])
def test_simulators_share_the_ensemble_module_not_each_other(module, other):
    # the Monte Carlo plumbing lives in qlqg.ensemble; neither simulator
    # reaches into the other for it
    tree = ast.parse(Path(qlqg.__file__).with_name(f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != other
            assert other not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert f"qlqg.{other}" not in {alias.name for alias in node.names}


@pytest.mark.parametrize("module", ["closed_loop", "sme"])
def test_simulators_walk_the_noise_they_are_handed(module):
    # a simulator walks the blocks(out, steps) its chunk is handed by
    # ensemble._run_chunks, and names nothing of how streams become steps
    tree = ast.parse(Path(qlqg.__file__).with_name(f"{module}.py").read_text())
    names = ({alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
             | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})
    assert not names & {"_noise_blocks", "_increments", "_stream_keys", "_key_type"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _imports(tree: ast.Module):
    """(module imported from, names) for each import in ``tree``, the
    module by its last dotted part: ``.errors`` and ``qlqg.errors`` are
    both ``errors``, and ``from . import sme`` imports from ``sme``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is None:
            for alias in node.names:
                yield alias.name, set()
        elif isinstance(node, ast.ImportFrom):
            yield node.module.split(".")[-1], {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[-1], set()


PACKAGE_DIR = Path(qlqg.__file__).parent
PACKAGE = {info.name for info in pkgutil.iter_modules(qlqg.__path__)} | {"qlqg"}
READERS_TREE = _tree(PACKAGE_DIR / "_readers.py")
READERS = ({node.name for node in READERS_TREE.body if isinstance(node, ast.FunctionDef)}
           | {target.id for node in READERS_TREE.body if isinstance(node, ast.Assign)
              for target in node.targets})
READER_USERS = sorted({*PACKAGE_DIR.glob("*.py"), *(ROOT / "tests").glob("*.py"), *DEMOS}
                      - {PACKAGE_DIR / "_readers.py"})


def test_readers_import_only_the_errors():
    # every layer reads through qlqg._readers, so it sits below them all
    assert {source for source, _ in _imports(READERS_TREE)} & PACKAGE == {"errors"}


def test_readers_come_from_the_readers_module_only():
    # no second definition and no re-export: a reader is imported from
    # qlqg._readers or not at all
    offenders = []
    for path in READER_USERS:
        tree = _tree(path)
        names = {name for source, imported in _imports(tree) if source != "_readers"
                 for name in imported}
        if path.parent == PACKAGE_DIR:
            names |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        offenders += [f"{path.name}: {name}" for name in sorted(READERS & names)]
    assert not offenders


def test_json_sections_are_checked_by_the_readers_only():
    # a JSON section comes in through _readers._json_object, which checks
    # that it is an object and names its missing key; no module checks one
    # by hand
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "_readers.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "dict" for k in kinds):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_riccati_builds_one_lift():
    # the filter, value and Lyapunov flows feed one lift builder the
    # model, its dual data or no output
    blocks = [node for node in ast.walk(_tree(PACKAGE_DIR / "riccati.py"))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "block"]
    assert len(blocks) == 1


def test_closed_loop_builds_its_scheme_in_one_place():
    # Phi_n = I + (A - B L_n) dt, K_n = Sigma_n C' + M and the running
    # weight Q_n = F - L_n'G - G'L_n + L_n'L_n are formed by _scheme_maps
    # alone: no other code of the module reads A, B, M or G, and the
    # simulator keeps no closure of its own that forms them
    tree = _tree(PACKAGE_DIR / "closed_loop.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builder = {id(node) for node in ast.walk(functions["_scheme_maps"])}
    readers = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr in {"A", "B", "M", "G"} and id(node) not in builder]
    assert not readers
    nested = {node.name for node in ast.walk(functions["simulate_closed_loop"])
              if isinstance(node, ast.FunctionDef)}
    assert not nested & {"window_maps", "running_weights"}


@pytest.mark.parametrize("module, name", [
    ("riccati", "integrate_control_riccati"), ("riccati", "integrate_alpha"),
    ("riccati", "total_minimal_cost"), ("control", "duality_map"),
    ("control", "control_gain_path"), ("control", "hjb_residual")])
def test_entry_point_fits_its_cost_and_paths_in_one_check(module, name):
    # riccati._problem is the one check that a cost and its paths fit the
    # coefficients and share a grid
    function = next(node for node in _tree(PACKAGE_DIR / f"{module}.py").body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
    assert "_problem" in {node.func.id for node in ast.walk(function)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_a_step_is_named_by_the_time_grid_only():
    # "step N, t=..." is formatted by TimeGrid._where alone, so every
    # failure names its step and time alike
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = _tree(path)
        namer = {id(node) for function in ast.walk(tree)
                 if isinstance(function, ast.FunctionDef) and function.name == "_where"
                 for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and id(node) not in namer:
                offenders += [f"{path.name}:{node.lineno}"
                              for text, value in zip(node.values, node.values[1:])
                              if isinstance(text, ast.Constant)
                              and isinstance(value, ast.FormattedValue)
                              and text.value.endswith(("step ", "t="))]
    assert not offenders


def test_errors_are_raised_as_leaf_classes():
    # a caller can tell a rejected input or a failed computation by its
    # class, not only by its family
    bases = {"QlqgError", "ValidationError", "NumericalError"}
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in bases:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_sme_does_not_import_the_phase_space_layer():
    assert "phase_space" not in {source for source, _ in _imports(_tree(PACKAGE_DIR / "sme.py"))}


# a valid construction of every public dataclass that checks its fields
GRID = qlqg.TimeGrid(0.0, 1.0, 2)
VALID = {
    "PhaseSpaceModel": dict(J=[[0.0, 1.0], [-1.0, 0.0]], R=np.eye(2), Lambda=[[1.0, 0.0]],
                            K=[[0.5], [0.0]], hbar=1.0),
    "LinearCoefficients": dict(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                               N=np.eye(2), M=np.zeros((2, 1))),
    "GaussianBelief": dict(mean=[0.0, 0.0], cov=np.eye(2)),
    "TimeGrid": dict(t0=0.0, t1=1.0, n_steps=2),
    "CostSpec": dict(F=np.eye(2), G=np.zeros((1, 2)), Omega_T=np.eye(2)),
    "MatrixPath": dict(grid=GRID, values=np.zeros((3, 2, 2))),
    "ScalarPath": dict(grid=GRID, values=np.zeros(3)),
    "ControlGainPath": dict(grid=GRID, gains=np.zeros((3, 1, 2))),
    "SimConfig": dict(grid=GRID, n_traj=1, seed=0, record_stride=1),
    "DensityMatrix": dict(entries=np.eye(2) / 2),
    "FiniteModel": dict(H0=np.eye(2), L_list=[np.eye(2)], H_controls=[np.eye(2)], hbar=1.0),
}
CHECKED = [obj for obj in map(vars(qlqg).get, qlqg.__all__)
           if dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj)]
NUMBER_FIELDS = [(cls, f.name) for cls in CHECKED for f in dataclasses.fields(cls)
                 if re.search(r"NDArray|\bfloat\b|\bint\b", str(f.type))]


def test_every_checked_dataclass_has_a_valid_example():
    # a new public dataclass with __post_init__ needs an entry in VALID,
    # and so falls under the test below
    assert {cls.__name__ for cls in CHECKED} == set(VALID)


@pytest.mark.parametrize("cls, name", NUMBER_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in NUMBER_FIELDS])
def test_junk_in_any_number_field_is_a_validation_error(cls, name):
    # a raw numpy error out of a constructor would leave the CLI
    kwargs = dict(VALID[cls.__name__])
    cls(**kwargs)
    kwargs[name] = "x"
    with pytest.raises(qlqg.ValidationError):
        cls(**kwargs)


SCALAR_FIELDS = [(cls, f.name, {"float": float, "int": int}[str(f.type)])
                 for cls in CHECKED for f in dataclasses.fields(cls)
                 if str(f.type) in ("float", "int")]


@pytest.mark.parametrize("cls, name, kind", SCALAR_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in SCALAR_FIELDS])
def test_scalar_field_stores_what_it_read(cls, name, kind):
    # a numeric string or a narrow numpy integer kept as given breaks the
    # arithmetic done on the field later
    valid = VALID[cls.__name__][name]
    stored = []
    for value in (str(valid), np.int8(valid)):
        try:
            obj = cls(**dict(VALID[cls.__name__], **{name: value}))
        except qlqg.ValidationError:
            continue
        stored.append(getattr(obj, name))
    assert stored and all(type(v) is kind and v == valid for v in stored)


# every field that must equal its adjoint, as (class, field)
SELF_ADJOINT = [("PhaseSpaceModel", "R"), ("LinearCoefficients", "N"), ("CostSpec", "F"),
                ("CostSpec", "Omega_T"), ("GaussianBelief", "cov"), ("FiniteModel", "H0"),
                ("FiniteModel", "H_controls"), ("DensityMatrix", "entries")]


@pytest.mark.parametrize("cls, name", SELF_ADJOINT, ids=[f"{c}.{n}" for c, n in SELF_ADJOINT])
def test_self_adjoint_field_is_stored_exactly_self_adjoint(cls, name):
    # an asymmetry below the reader's bound is accepted, and what is kept
    # is the exact Hermitian part, a new array: the caller's stays as given
    ctor = getattr(qlqg, cls)
    field = {f.name: f for f in dataclasses.fields(ctor)}[name]
    given = np.array(VALID[cls][name], dtype=complex if "complex" in str(field.type) else float)
    delta = 0.5 * SYM_TOL * max(1.0, np.abs(given).max())
    given[..., 0, 1] += delta
    if given.dtype.kind == "c":
        given[..., 1, 0] += 1j * delta
        given[..., 1, 1] += 1j * delta
    kept = given.copy()
    stored = getattr(ctor(**dict(VALID[cls], **{name: given})), name)
    assert np.array_equal(stored, np.swapaxes(stored, -1, -2).conj())
    assert not np.array_equal(stored, given)
    assert np.array_equal(given, kept) and given.flags.writeable


# filter_step takes its record (dY, dt) as arguments, not as a dataclass of
# the table above; the same two checks hold for it
FILTER_RECORD = {"dY": [0.1], "dt": 1e-3}


def _filter_step(dY, dt):
    return qlqg.filter_step(qlqg.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2)), [0.0], dY, dt,
                            qlqg.LinearCoefficients(**VALID["LinearCoefficients"]),
                            np.eye(2)).mean


@pytest.mark.parametrize("name", FILTER_RECORD, ids=[f"filter_step.{n}" for n in FILTER_RECORD])
def test_junk_in_the_filter_step_record_is_a_validation_error(name):
    _filter_step(**FILTER_RECORD)
    with pytest.raises(qlqg.ValidationError):
        _filter_step(**dict(FILTER_RECORD, **{name: "x"}))


def test_filter_step_steps_dt_as_the_float_it_read():
    for dt in ("1", np.int8(1)):
        np.testing.assert_array_equal(_filter_step([0.1], dt), _filter_step([0.1], 1.0))


def _valid(name):
    """A valid argument of an entry point, by parameter name."""
    if name == "ensemble":
        return qlqg.simulate_closed_loop(*map(_valid, ("coeffs", "cost", "config", "initial")))
    cls = {"coeffs": "LinearCoefficients", "cost": "CostSpec", "config": "SimConfig",
           "initial": "GaussianBelief", "belief": "GaussianBelief", "grid": "TimeGrid",
           "rho0": "DensityMatrix", "rho": "DensityMatrix", "model": "FiniteModel"}[name]
    return getattr(qlqg, cls)(**VALID[cls])


# every simulator, the Kalman step and the cost estimates: the arguments
# that must be of a kind, and the record each takes besides them
ENTRY_ARGS = {
    "simulate_closed_loop": (("coeffs", "cost", "config", "initial"), {}),
    "simulate_sme_ensemble": (("rho0", "model", "config"), {}),
    "evolve_master": (("rho0", "model", "grid"), {}),
    "sme_step": (("rho", "model"), {"u": None, "dY": [0.1], "dt": 1e-3}),
    "filter_step": (("belief", "coeffs"),
                    {"u": [0.0], "dY": [0.1], "dt": 1e-3, "Sigma_next": np.eye(2)}),
    "monte_carlo_expected_cost": (("ensemble",), {}),
    "expected_cost_z": (("ensemble", "initial", "coeffs", "cost"), {}),
}
KIND_ARGS = [(entry, name) for entry, (names, _) in ENTRY_ARGS.items() for name in names]


@pytest.mark.parametrize("entry, name", KIND_ARGS, ids=[f"{e}.{n}" for e, n in KIND_ARGS])
def test_wrong_kind_of_argument_is_a_config_error(entry, name):
    # None where a model, config, belief or ensemble belongs is named, not
    # left to surface as an AttributeError deep inside the call; the valid
    # call first, which fails if the table misses a required argument
    call = getattr(qlqg, entry)
    names, record = ENTRY_ARGS[entry]
    kwargs = dict(record, **{arg: _valid(arg) for arg in names})
    call(**kwargs)
    with pytest.raises(qlqg.ConfigError, match=rf"^{name} must be a \w+, got None$"):
        call(**dict(kwargs, **{name: None}))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
