"""Command-line front end.

Six subcommands mirror the library layers::

    qlqg build         --scenario S [--out DIR]
    qlqg riccati       --scenario S [--out DIR] [--dual]
    qlqg simulate      --scenario S [--seed N] [--n-traj N] [--out DIR]
    qlqg sme           --scenario S [--seed N] [--n-traj N] [--out DIR]
    qlqg free-particle [--n-traj N]
    qlqg validate

A scenario is a JSON object.  The keys each subcommand reads:

``model``
    Inline phase-space model (the ``model_from_json`` schema), a path to
    such a file (relative paths resolve against the scenario file), or
    ``{"preset": "free-particle", "mass": .., "hbar": .., "feedback":
    true|false}`` (a JSON bool).  With ``feedback`` the actuation column
    is doubled to the tracking-loop convention; without it the bare model
    is used.
``cost``
    ``{"F": .., "G": .., "Omega_T": ..}`` or ``{"preset":
    "position-tracking", "beta": .., "Omega_T": ..}``.
``grid``
    ``{"t0": .., "t1": .., "n_steps": ..}``.
``sim``
    ``n_traj``, ``seed``, optional ``record_stride`` (default: endpoint
    only), ``initial_mean``, ``initial_cov`` (which must meet the model's
    Heisenberg bound, in ``simulate`` as in ``riccati``), and optional
    ``record_trajectories`` (how many per-trajectory CSVs to write,
    default 0; only those trajectories' paths are kept in memory).
``direction``
    ``riccati`` only: ``"filter"``, ``"control"`` or ``"both"`` (default).
``initial_cov``
    ``riccati`` only: start of the forward covariance flow.  Falls back
    to ``sim.initial_cov`` so one scenario can serve both commands.
``finite_model``, ``rho0``, ``control``
    ``sme`` only: a finite-dimensional model (inline or path), the
    initial state as a ``{"re": .., "im": ..}`` pair, and an optional
    constant control vector.
``out``
    Output directory, overridden by ``--out``; default is the working
    directory.

Exit codes: 0 on success, 2 when input is rejected (a scenario value of
the wrong type included), 3 when a computation fails numerically.  File
outputs are byte-deterministic given the same scenario and seed; every
file is opened by :func:`_write`, and every CSV goes through one writer,
:func:`_write_csv`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import free_particle as fp
from ._readers import _json_array, _json_complex, _json_count, _json_object
from .closed_loop import expected_cost_z, simulate_closed_loop
# looked up on this module by the span table of perfbench/spans.py;
# expected_cost_z calls them from qlqg.closed_loop
from .closed_loop import monte_carlo_expected_cost  # noqa: F401
from .control import control_gain_path, control_path_via_duality
from .ensemble import SimConfig
from .errors import ConfigError, NumericalError, ValidationError
from .phase_space import (
    GaussianBelief,
    build_coefficients,
    free_particle_model,
    model_from_json,
)
from .riccati import (
    CostSpec,
    TimeGrid,
    _require_heisenberg,
    integrate_control_riccati,
    integrate_filter_riccati,
    total_minimal_cost,  # noqa: F401 (see monte_carlo_expected_cost)
)
from .sme import (
    DensityMatrix,
    evolve_master,
    finite_model_from_json,
    simulate_sme_ensemble,
    trace_distance,
)
from .validate import FREE_PARTICLE_SUITES, render_report, run_suites


def _load_scenario(path_str: str, keys) -> tuple[dict, Path]:
    """The scenario object, which must hold ``keys``, and its directory."""
    path = Path(path_str)
    return _json_object(path, "scenario", keys), path.parent


def _inline_or_file(entry, base_dir: Path, key: str) -> dict:
    """An object entry, or the object in the file it names relative to
    the scenario file."""
    return _json_object(base_dir / entry if isinstance(entry, str) else entry, key)


def _load_model(entry, base_dir: Path):
    """Resolve the ``model`` entry to (coefficients, phase-space model)."""
    entry = _inline_or_file(entry, base_dir, "model")
    if "preset" in entry:
        name = entry["preset"]
        if name != "free-particle":
            raise ConfigError(f"unknown model preset '{name}'")
        mass = _json_array(entry.get("mass", 1.0), "model.mass", ())
        hbar = _json_array(entry.get("hbar", 1.0), "model.hbar", ())
        model = free_particle_model(mass, hbar)
        feedback = entry.get("feedback", False)
        if not isinstance(feedback, bool):
            raise ConfigError(f"model.feedback must be true or false, got {feedback!r}")
        if feedback:
            return fp.feedback_coefficients(mass, hbar), model
        return build_coefficients(model), model
    model = model_from_json(entry)
    return build_coefficients(model), model


def _parse_cost(entry) -> CostSpec:
    entry = _json_object(entry, "cost")
    if "preset" in entry:
        name = entry["preset"]
        if name != "position-tracking":
            raise ConfigError(f"unknown cost preset '{name}'")
        Omega_T = entry.get("Omega_T")
        return fp.position_tracking_cost(
            beta=_json_array(entry.get("beta", 1.0), "cost.beta", ()),
            Omega_T=None if Omega_T is None else _json_array(Omega_T, "cost.Omega_T"),
        )
    keys = ("F", "G", "Omega_T")
    _json_object(entry, "cost", keys)
    return CostSpec(**{key: _json_array(entry[key], f"cost.{key}") for key in keys})


def _parse_grid(entry) -> TimeGrid:
    entry = _json_object(entry, "grid", ("t0", "t1", "n_steps"))
    return TimeGrid(
        _json_array(entry["t0"], "grid.t0", ()),
        _json_array(entry["t1"], "grid.t1", ()),
        _json_count(entry["n_steps"], "grid.n_steps", 1),
    )


def _parse_sim(sim: dict, grid: TimeGrid, args) -> SimConfig:
    n_traj = args.n_traj if args.n_traj is not None else sim.get("n_traj")
    if n_traj is None:
        raise ConfigError("key 'sim' is missing 'n_traj' (or pass --n-traj)")
    seed = args.seed if args.seed is not None else sim.get("seed")
    if seed is None:
        raise ConfigError("key 'sim' is missing 'seed' (or pass --seed)")
    return SimConfig(
        grid=grid,
        n_traj=_json_count(n_traj, "sim.n_traj", 1),
        seed=_json_count(seed, "sim.seed", 0),
        record_stride=_json_count(
            sim.get("record_stride", grid.n_steps), "sim.record_stride", 1
        ),
    )


def _out_dir(args, scenario: dict | None) -> Path:
    out = args.out or (scenario or {}).get("out")
    if out is None:
        out = "."
    if not isinstance(out, str):
        raise ConfigError(f"key 'out' must be a string, got {out!r}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, write) -> Path:
    """The one opener of an output file: call ``write`` on ``path`` opened
    for UTF-8 text with no newline translation, and return ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh)
    return path


def _report(obj, path: Path) -> None:
    """Write ``obj`` to ``path`` as indented JSON with sorted keys, and echo
    it to stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _write(path, lambda fh: fh.write(text))
    sys.stdout.write(text)


def _finite_or_none(x: float):
    x = float(x)
    return x if np.isfinite(x) else None


#: rows formatted per write: bounds the writer's buffers whatever the row count.
#: Larger blocks write no faster, and from 128 rows on they raised the peak
#: resident set of a 20 000-row run by over 1 MB.
_CSV_BLOCK = 64


def _write_csv(file, header: str, columns) -> None:
    """Write ``header``, then one row per point of ``columns`` (vectors
    and ``(n, w)`` arrays of equal length).

    The one CSV writer.  Every value is printed to 17 significant digits,
    so it reads back bit for bit; the bytes match numpy's text writer at
    that format.  Rows go out ``_CSV_BLOCK`` at a time, each block
    through one ``%``-template, so no string or copy grows with the row
    count.
    """
    file.write(header + "\n")
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    template = ",".join(["%.17g"] * width) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[start:start + _CSV_BLOCK] for c in columns])
        file.write(template * len(block) % tuple(block.ravel().tolist()))


def matrix_path_to_csv(path, file, prefix: str) -> None:
    """``t`` plus row-major entries ``{prefix}_ij`` of a MatrixPath."""
    m = path.m
    header = ",".join(["t"] + [f"{prefix}_{i}{j}" for i in range(m) for j in range(m)])
    flat = path.values.reshape(path.grid.n_points, m * m)
    _write_csv(file, header, [path.grid.times(), flat])


def gain_path_to_csv(path, file) -> None:
    """``t`` plus row-major gain entries ``L_ij`` of a ControlGainPath."""
    n, k, m = path.gains.shape
    header = ",".join(["t"] + [f"L_{i}{j}" for i in range(k) for j in range(m)])
    _write_csv(file, header, [path.grid.times(), path.gains.reshape(n, k * m)])


def trajectory_to_csv(record, file) -> None:
    """One closed-loop TrajectoryRecord: time, mean, control, output and
    innovation increments (intervals ending at each row's time)."""
    columns = {
        "Xhat": record.means, "u": record.controls,
        "dY": record.outputs, "dYtilde": record.innovations,
    }
    header = ",".join(
        ["t"] + [f"{name}_{i}" for name, c in columns.items() for i in range(c.shape[1])]
    )
    _write_csv(file, header, [record.times, *columns.values()])


def _mean_path_csv(times, mean_states, fh) -> None:
    """``t`` plus the real, then imaginary, row-major entries of the
    ensemble-mean state."""
    n = mean_states.shape[-1]
    header = ",".join(
        ["t"]
        + [f"rho_{part}_{i}{j}" for part in ("re", "im")
           for i in range(n) for j in range(n)]
    )
    flat = mean_states.reshape(len(times), n * n)
    _write_csv(fh, header, [times, flat.real, flat.imag])


def cmd_build(args) -> int:
    scenario, base_dir = _load_scenario(args.scenario, ("model",))
    coeffs, _ = _load_model(scenario["model"], base_dir)
    report = {
        name: getattr(coeffs, name).tolist() for name in ("A", "B", "C", "N", "M")
    }
    _report(report, _out_dir(args, scenario) / "coefficients.json")
    return 0


def cmd_riccati(args) -> int:
    scenario, base_dir = _load_scenario(args.scenario, ("model", "grid"))
    direction = scenario.get("direction", "both")
    if direction not in ("filter", "control", "both"):
        raise ConfigError(f"key 'direction' must be filter|control|both, got '{direction}'")
    if direction != "filter":
        _json_object(scenario, "scenario", ("cost",))
    coeffs, model = _load_model(scenario["model"], base_dir)
    grid = _parse_grid(scenario["grid"])
    out = _out_dir(args, scenario)
    written = []

    if direction in ("filter", "both"):
        raw = scenario.get("initial_cov")
        if raw is None:
            raw = _json_object(scenario.get("sim", {}), "sim").get("initial_cov")
        if raw is None:
            raise ConfigError(
                "scenario is missing key 'initial_cov' (top level or under 'sim')"
            )
        Sigma0 = _json_array(raw, "initial_cov")
        sigma = integrate_filter_riccati(
            coeffs, Sigma0, grid, uncertainty=(model.J, model.hbar)
        )
        written.append(_write(out / "sigma_path.csv",
                              lambda fh: matrix_path_to_csv(sigma, fh, prefix="sigma")))

    if direction in ("control", "both"):
        cost = _parse_cost(scenario["cost"])
        solve = control_path_via_duality if args.dual else integrate_control_riccati
        omega = solve(coeffs, cost, grid)
        written.append(_write(out / "omega_path.csv",
                              lambda fh: matrix_path_to_csv(omega, fh, prefix="omega")))
        gains = control_gain_path(omega, coeffs, cost)
        written.append(_write(out / "gains.csv", lambda fh: gain_path_to_csv(gains, fh)))

    for path in written:
        print(path)
    return 0


def cmd_simulate(args) -> int:
    scenario, base_dir = _load_scenario(args.scenario, ("model", "cost", "grid"))
    coeffs, model = _load_model(scenario["model"], base_dir)
    cost = _parse_cost(scenario["cost"])
    grid = _parse_grid(scenario["grid"])
    sim = _json_object(scenario.get("sim", {}), "sim", ("initial_mean", "initial_cov"))
    config = _parse_sim(sim, grid, args)
    initial = GaussianBelief(
        mean=_json_array(sim["initial_mean"], "sim.initial_mean"),
        cov=_json_array(sim["initial_cov"], "sim.initial_cov"),
    )
    _require_heisenberg(initial.cov, model.J, model.hbar)

    n_record = _json_count(sim.get("record_trajectories", 0), "sim.record_trajectories", 0)

    ensemble = simulate_closed_loop(coeffs, cost, config, initial, record=n_record)
    analytic, mean, stderr, z = expected_cost_z(ensemble, initial, coeffs, cost)

    out = _out_dir(args, scenario)
    summary = {
        "analytic_cost": analytic,
        "mean_cost": mean,
        "stderr": _finite_or_none(stderr),
        "z": _finite_or_none(z),
        "n_traj": config.n_traj,
        "seed": config.seed,
    }
    _report(summary, out / "summary.json")

    for i in range(min(n_record, config.n_traj)):
        _write(out / f"trajectory_{i:03d}.csv", lambda fh: trajectory_to_csv(ensemble[i], fh))
    return 0


def cmd_sme(args) -> int:
    scenario, base_dir = _load_scenario(args.scenario, ("finite_model", "rho0", "grid"))
    model = finite_model_from_json(
        _inline_or_file(scenario["finite_model"], base_dir, "finite_model"))
    rho0 = DensityMatrix(_json_complex(scenario["rho0"], "key 'rho0'"))
    grid = _parse_grid(scenario["grid"])
    config = _parse_sim(_json_object(scenario.get("sim", {}), "sim"), grid, args)
    u = scenario.get("control")
    if u is not None:
        u = _json_array(u, "control")

    ensemble = simulate_sme_ensemble(rho0, model, config, u=u)
    _, master = evolve_master(
        rho0, model, grid, u=u, record_stride=config.record_stride
    )
    distance = trace_distance(ensemble.mean_states[-1], master[-1])

    out = _out_dir(args, scenario)
    summary = {
        "master_distance": distance,
        "max_trace_deviation": ensemble.max_trace_deviation,
        "min_eigenvalue": ensemble.min_eigenvalue,
        "n_traj": config.n_traj,
        "seed": config.seed,
    }
    _report(summary, out / "summary.json")
    _write(out / "mean_path.csv",
           lambda fh: _mean_path_csv(ensemble.times, ensemble.mean_states, fh))
    return 0


def _report_exit(results) -> int:
    print(render_report(results))
    return 0 if all(r.passed for r in results) else 3


def cmd_free_particle(args) -> int:
    # the reproduction run favours speed
    n_traj = 500 if args.n_traj is None else args.n_traj
    if n_traj < 2:
        # one trajectory has no standard error, so the cost claim cannot pass
        raise ConfigError(f"--n-traj must be >= 2, got {n_traj}")
    return _report_exit(run_suites({"n_traj": n_traj}, names=FREE_PARTICLE_SUITES))


def cmd_validate(args) -> int:
    return _report_exit(run_suites())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlqg",
        description="Optimal filtering and LQG control for linear quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"qlqg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, scenario=True, seed=False, out=False, dual=False, n_traj=False):
        p = sub.add_parser(name)
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        if n_traj:
            p.add_argument(
                "--n-traj", type=int, default=None, help="override sim.n_traj"
            )
        if out:
            p.add_argument("--out", default=None, help="output directory")
        if dual:
            p.add_argument(
                "--dual", action="store_true",
                help="solve the backward flow through its forward dual",
            )
        p.set_defaults(func=func)
        return p

    add("build", cmd_build, out=True)
    add("riccati", cmd_riccati, out=True, dual=True)
    add("simulate", cmd_simulate, seed=True, out=True, n_traj=True)
    add("sme", cmd_sme, seed=True, out=True, n_traj=True)
    add("free-particle", cmd_free_particle, scenario=False, n_traj=True)
    add("validate", cmd_validate, scenario=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
