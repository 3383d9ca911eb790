"""Scenarios, ops and output checks of the three benchmark workloads.

Every scenario comes from the workload seed alone.  An op is one or two
calls of ``qlqg.cli.main``; its check reads back what the CLI wrote and
compares it with the program's own oracles (analytic cost, master flow,
free-particle closed forms).  A check returns a list of problems; an
empty list means the op passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: |z| of Monte Carlo vs analytic cost; two-sided tail 7e-6 under N(0, 1)
Z_BOUND = 4.5
#: master_distance * sqrt(n_traj) stays below this (see ``check_qubit``)
MASTER_DISTANCE_SCALE = 1.5
TRACE_DEVIATION_BOUND = 1e-9
#: free-particle closed forms after 20 time units of relaxation; seeds
#: 0-7 came within 5e-14, and the dual path matched exactly
STATIONARY_ATOL = 1e-9
#: dual route vs direct backward integration of the value matrix
DUAL_ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    make_scenario: Callable[[np.random.Generator], dict]
    #: CLI argument lists, with ``{scenario}`` and ``{out}`` placeholders
    #: resolved per call; one output directory per call
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[dict, list[Path]], list[str]]
    #: trajectory-steps per op, for ensemble workloads
    traj_steps: Callable[[dict], int] | None = None


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def lqg_scenario(rng: np.random.Generator) -> dict:
    return {
        "model": {"preset": "free-particle", "feedback": True},
        "cost": {"preset": "position-tracking", "beta": 1.0,
                 "Omega_T": [[1.0, 0.0], [0.0, 1.0]]},
        "grid": {"t0": 0.0, "t1": 5.0, "n_steps": 5000},
        "sim": {"n_traj": 4096, "seed": _seed(rng), "record_stride": 50,
                "record_trajectories": 8, "initial_mean": [1.0, 0.0],
                "initial_cov": [[0.5, 0.0], [0.0, 0.5]]},
    }


def qubit_scenario(rng: np.random.Generator) -> dict:
    zero = [[0.0, 0.0], [0.0, 0.0]]
    return {
        "finite_model": {
            "dim": 2, "hbar": 1.0,
            "H0": {"re": [[0.0, 0.5], [0.5, 0.0]], "im": zero},
            "H_controls": [],
            "L_list": [{"re": [[0.5, 0.0], [0.0, -0.5]], "im": zero}],
        },
        "rho0": {"re": [[0.5, 0.375], [0.375, 0.5]], "im": zero},
        "grid": {"t0": 0.0, "t1": 0.5, "n_steps": 2000},
        "sim": {"n_traj": 1024, "seed": _seed(rng), "record_stride": 20},
    }


def riccati_scenario(rng: np.random.Generator) -> dict:
    beta = float(rng.uniform(0.5, 2.0))
    # det >= 1.2 / 4 > hbar^2 / 4, so Sigma0 satisfies the Heisenberg bound
    sq = float(rng.uniform(0.5, 2.0))
    sqp = float(rng.uniform(-0.3, 0.3))
    sp = (0.25 + sqp * sqp) / sq * float(rng.uniform(1.2, 3.0))
    return {
        "model": {"preset": "free-particle", "feedback": True},
        "cost": {"preset": "position-tracking", "beta": beta},
        "grid": {"t0": 0.0, "t1": 20.0, "n_steps": 20000},
        "initial_cov": [[sq, sqp], [sqp, sp]],
    }


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def check_lqg(scenario: dict, outs: list[Path]) -> list[str]:
    problems = []
    summary = json.loads((outs[0] / "summary.json").read_text(encoding="utf-8"))
    z = summary.get("z")
    if z is None or not abs(z) <= Z_BOUND:
        problems.append(f"Monte Carlo cost z={z} outside +-{Z_BOUND}")
    sim = scenario["sim"]
    if summary.get("n_traj") != sim["n_traj"] or summary.get("seed") != sim["seed"]:
        problems.append("summary.json does not echo n_traj and seed")
    rows = scenario["grid"]["n_steps"] // sim["record_stride"] + 1
    for i in range(sim["record_trajectories"]):
        path = outs[0] / f"trajectory_{i:03d}.csv"
        if not path.is_file() or _count_rows(path) != rows:
            problems.append(f"{path.name} missing or not {rows} rows")
    return problems


def check_qubit(scenario: dict, outs: list[Path]) -> list[str]:
    from qlqg.sme import POSITIVITY_FLOOR

    problems = []
    summary = json.loads((outs[0] / "summary.json").read_text(encoding="utf-8"))
    n_traj = scenario["sim"]["n_traj"]
    # sampling error of the ensemble mean shrinks as 1/sqrt(n_traj); over
    # seeds 0-9 distance * sqrt(n) averaged 0.31 and peaked at 0.58
    bound = MASTER_DISTANCE_SCALE / np.sqrt(n_traj)
    if not summary["master_distance"] <= bound:
        problems.append(f"master_distance {summary['master_distance']} > {bound:.4g}")
    if not summary["min_eigenvalue"] >= POSITIVITY_FLOOR:
        problems.append(f"min_eigenvalue {summary['min_eigenvalue']} below floor")
    if not summary["max_trace_deviation"] <= TRACE_DEVIATION_BOUND:
        problems.append(f"max_trace_deviation {summary['max_trace_deviation']}")
    rows = scenario["grid"]["n_steps"] // scenario["sim"]["record_stride"] + 1
    if _count_rows(outs[0] / "mean_path.csv") != rows:
        problems.append(f"mean_path.csv is not {rows} rows")
    return problems


def check_riccati(scenario: dict, outs: list[Path]) -> list[str]:
    from qlqg import free_particle as fp

    problems = []
    beta = scenario["cost"]["beta"]
    direct, dual = outs
    sigma = _load_csv(direct / "sigma_path.csv")
    omega = _load_csv(direct / "omega_path.csv")
    gains = _load_csv(direct / "gains.csv")
    omega_dual = _load_csv(dual / "omega_path.csv")
    expected = [
        ("last sigma row", sigma[-1, 1:], fp.stationary_dispersions().ravel()),
        ("first omega row", omega[0, 1:], fp.stationary_value_matrix(beta).ravel()),
        ("first gain row", gains[0, 1:], fp.stationary_feedback_gain(beta).ravel()),
    ]
    for what, got, want in expected:
        if not np.allclose(got, want, rtol=0.0, atol=STATIONARY_ATOL):
            problems.append(f"{what} {got} differs from closed form {want}")
    n_rows = scenario["grid"]["n_steps"] + 1
    if sigma.shape[0] != n_rows or omega.shape[0] != n_rows:
        problems.append(f"paths do not have {n_rows} rows")
    if omega_dual.shape != omega.shape or not np.allclose(
        omega_dual, omega, rtol=0.0, atol=DUAL_ATOL
    ):
        problems.append("dual omega path differs from the direct one")
    return problems


def _traj_steps(scenario: dict) -> int:
    return scenario["sim"]["n_traj"] * scenario["grid"]["n_steps"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lqg_tracking", lqg_scenario,
            (("simulate", "--scenario", "{scenario}", "--out", "{out}"),),
            check_lqg, _traj_steps,
        ),
        Workload(
            "qubit_filtering", qubit_scenario,
            (("sme", "--scenario", "{scenario}", "--out", "{out}"),),
            check_qubit, _traj_steps,
        ),
        Workload(
            "riccati_flows", riccati_scenario,
            (
                ("riccati", "--scenario", "{scenario}", "--out", "{out}"),
                ("riccati", "--scenario", "{scenario}", "--out", "{out}", "--dual"),
            ),
            check_riccati,
        ),
    )
}
