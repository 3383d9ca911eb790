"""The registry of the paper's claims, each checked once at two scales.

A claim re-derives one analytic fact or invariant with the library's own
solvers; its check returns a one-line detail and fails by raising.  Each
row of :data:`CLAIMS` holds the check's arguments at two scales:

- ``desk``: seconds in all, run by ``qlqg validate`` and
  ``qlqg free-particle`` through :func:`run_suites`;
- ``full``: the sizes, seeds and tolerances of the acceptance gate
  (``tests/test_acceptance.py``), whose wall-clock limit in seconds is
  the row's ``budget``.

``run_suites`` accepts an ``overrides`` mapping whose keys replace desk
arguments of the claims that take them, so tests can inject broken
fixtures (a coarse SME grid, a detuned feedback gain) and confirm that
the claim actually trips.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import free_particle as fp
from .closed_loop import SimConfig, monte_carlo_expected_cost, simulate_closed_loop
from .control import control_path_via_duality, hjb_residual
from .errors import InvalidParameter
from .phase_space import (
    GaussianBelief, _heisenberg_margin, build_coefficients, free_particle_model,
)
from .riccati import (
    CostSpec,
    TimeGrid,
    integrate_alpha,
    integrate_control_riccati,
    integrate_filter_riccati,
    lyapunov_unconditional,
    stationary_filter_covariance,
    total_minimal_cost,
)
from .sme import (
    DensityMatrix,
    FiniteModel,
    ancilla_quadrature_projectors,
    discrete_conditioning,
    evolve_master,
    simulate_sme_ensemble,
    sme_step,
    trace_distance,
    weak_measurement_unitary,
)

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<18} {self.seconds:7.2f}s  {self.detail}"


@dataclass(frozen=True)
class Claim:
    """One claim: its check and the check's arguments at each scale."""

    name: str
    check: Callable[..., str]
    desk: Mapping = field(default_factory=dict)
    full: Mapping = field(default_factory=dict)
    budget: float | None = None

    def run(self, kwargs: Mapping, budget: float | None = None) -> SuiteResult:
        """Run the check, catching its failure; over ``budget`` s fails too."""
        start = time.perf_counter()
        try:
            detail, passed = self.check(**kwargs), True
        except AssertionError as exc:
            detail, passed = str(exc), False
        except Exception as exc:  # noqa: BLE001 - report, do not mask siblings
            detail, passed = f"{type(exc).__name__}: {exc}", False
        seconds = time.perf_counter() - start
        if passed and budget is not None and seconds > budget:
            detail, passed = f"over the {budget:g} s budget; {detail}", False
        return SuiteResult(self.name, passed, seconds, detail)


def _coefficients() -> str:
    preset = fp.feedback_coefficients()
    derived = build_coefficients(free_particle_model())
    assert np.array_equal(preset.A, derived.A)
    assert np.array_equal(preset.C, derived.C)
    assert np.array_equal(preset.N, derived.N)
    assert np.array_equal(preset.B, 2.0 * derived.B)
    S = fp.stationary_dispersions()
    gain = S @ preset.C.T + preset.M
    residual = preset.A @ S + S @ preset.A.T + preset.N - gain @ gain.T
    assert np.abs(residual).max() < 1e-13
    return "preset matrices match the derived model"


def _filter_relaxation(dispersions: bool = True, saturation: bool = True) -> str:
    """Relax the monitored free particle from diag(2, 2) over [0, 20].

    ``dispersions`` checks the endpoint and two general stationary points
    against the closed form; ``saturation`` checks the Heisenberg product
    at the endpoint and the uncertainty margin along the whole path.
    """
    model = free_particle_model()
    path = integrate_filter_riccati(
        build_coefficients(model), np.diag([2.0, 2.0]), TimeGrid(0.0, 20.0, 20000)
    )
    end = path.at(-1)
    details = []
    if dispersions:
        err = np.abs(end - fp.stationary_dispersions()).max()
        assert err < 1e-6, f"endpoint off by {err:.2e}"
        worst = 0.0
        for mass, hbar in [(2.0, 1.0), (1.0, 2.0)]:
            coeffs = build_coefficients(free_particle_model(mass, hbar))
            S = stationary_filter_covariance(coeffs)
            gap = np.abs(S - fp.stationary_dispersions(mass, hbar)).max()
            assert gap < 1e-6, f"({mass}, {hbar}) stationary point off by {gap:.2e}"
            worst = max(worst, gap)
        details.append(f"endpoint off by {err:.1e}, general points off by {worst:.1e}")
    if saturation:
        product = abs(np.sqrt(end[0, 0] * end[1, 1]) - 1.0 / np.sqrt(2.0))
        assert product < 1e-6, f"dispersion product off by {product:.2e}"
        margin = float(_heisenberg_margin(path.values, model.J, model.hbar).min())
        assert margin >= -1e-8, f"Heisenberg margin {margin:.2e}"
        details.append(f"product off by {product:.1e}, margin {margin:+.1e} along the path")
    return ", ".join(details)


def _spreading() -> str:
    coeffs = build_coefficients(free_particle_model())
    Sigma0 = np.diag([0.7, 0.7])
    path = lyapunov_unconditional(coeffs, Sigma0, TimeGrid(0.0, 5.0, 500))
    err = np.abs(path.at(-1) - fp.spread_covariance(Sigma0, 5.0)).max()
    assert err < 1e-8, f"cubic law off by {err:.2e}"
    return f"cubic law reproduced to {err:.1e} at t=5"


def _duality(seed: int, n_systems: int) -> str:
    coeffs = fp.feedback_coefficients()
    cost = fp.position_tracking_cost()
    grid = TimeGrid(0.0, 5.0, 500)
    direct = integrate_control_riccati(coeffs, cost, grid)
    dual = control_path_via_duality(coeffs, cost, grid, permutation=[1, 0])
    worst = float(np.abs(direct.values - dual.values).max())

    rng = np.random.default_rng(seed)
    grid4 = TimeGrid(0.0, 1.0, 400)
    for _ in range(n_systems):
        A = 0.5 * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        Fh = rng.standard_normal((4, 4))
        G = 0.3 * rng.standard_normal((2, 4))
        Wh = rng.standard_normal((4, 4))
        cost4 = CostSpec(F=Fh @ Fh.T, G=G, Omega_T=Wh @ Wh.T + 0.1 * np.eye(4))
        lc = type(coeffs)(A=A, B=B, C=np.zeros((1, 4)), N=np.eye(4), M=np.zeros((4, 1)))
        d = integrate_control_riccati(lc, cost4, grid4)
        v = control_path_via_duality(lc, cost4, grid4)
        worst = max(worst, float(np.abs(d.values - v.values).max()))
    assert worst < 1e-8, f"worst route mismatch {worst:.2e}"
    return f"both routes agree to {worst:.1e} over {n_systems + 1} systems"


def _hjb_residual(seed: int, n_samples: int) -> str:
    coeffs = fp.feedback_coefficients()
    # terminal weight near the stationary value matrix keeps the
    # finite-difference stencil inside its accuracy budget
    cost = fp.position_tracking_cost(Omega_T=np.array([[1.05, 0.5], [0.5, 0.55]]))
    grid = TimeGrid(0.0, 5.0, 5000)
    Om = integrate_control_riccati(coeffs, cost, grid)
    Si = integrate_filter_riccati(coeffs, [[0.6, 0.5], [0.5, 1.1]], grid)
    al = integrate_alpha(Om, Si, coeffs, cost)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        k = int(rng.integers(2, grid.n_steps - 1))
        X = rng.uniform(-2.0, 2.0, size=2)
        worst = max(worst, abs(hjb_residual(Om, al, k, X, Si.at(k), coeffs, cost)))
    assert worst < 1e-6, f"worst residual {worst:.2e}"
    return f"worst Bellman residual {worst:.1e} over {n_samples} samples"


def _optimality_probe(n_traj: int, seed: int, gain_offset) -> str:
    coeffs = fp.feedback_coefficients()
    cost = fp.position_tracking_cost(beta=1.0, Omega_T=np.eye(2))
    grid = TimeGrid(0.0, 5.0, 5000)
    config = SimConfig(grid=grid, n_traj=n_traj, seed=seed, record_stride=grid.n_steps)
    initial = GaussianBelief(mean=[1.0, 0.0], cov=np.diag([0.5, 0.5]))

    # only the total costs are read, so no paths are recorded
    optimal = simulate_closed_loop(coeffs, cost, config, initial, record=0)
    analytic = total_minimal_cost(
        initial.mean, initial.cov, optimal.Omega_path, optimal.Sigma_path, coeffs, cost
    )
    mean, stderr = monte_carlo_expected_cost(optimal)
    gap = abs(mean - analytic)
    assert gap <= 3.0 * stderr, (
        f"Monte Carlo {mean:.4f} is {gap / stderr:.1f} se from {analytic:.4f}")

    # common random numbers: same seed, same innovations, so the
    # extra cost of the detuned gain is a paired difference
    detuned = simulate_closed_loop(coeffs, cost, config, initial, gain_offset, record=0)
    diff = detuned.total_costs - optimal.total_costs
    d_mean = float(diff.mean())
    d_se = float(diff.std(ddof=1) / np.sqrt(n_traj))
    assert d_mean > 0, "detuned gain did not raise the mean cost"
    assert d_mean >= 3.0 * d_se, f"cost increase {d_mean:.4f} below 3 se ({d_se:.4f})"
    return (
        f"cost within {gap / stderr:.1f} se of {analytic:.6f}; "
        f"detuned gain raises cost by {d_mean:.3f} ({d_mean / d_se:.0f} se)"
    )


def _sme_consistency(sme_grid, n_traj: int, seed: int, max_distance: float) -> str:
    model = FiniteModel(H0=np.zeros((2, 2), dtype=complex), L_list=[SIGMA_Z])
    # mixed initial state: a pure coherent start would shed an
    # eigenvalue of order dt on the first Euler step
    rho0 = DensityMatrix(0.5 * np.array([[1.0, 0.75], [0.75, 1.0]], dtype=complex))
    n_steps = sme_grid.n_steps
    config = SimConfig(grid=sme_grid, n_traj=n_traj, seed=seed, record_stride=n_steps)
    ensemble = simulate_sme_ensemble(rho0, model, config)
    deviation, floor = ensemble.max_trace_deviation, ensemble.min_eigenvalue
    assert deviation <= 1e-9, f"trace deviation {deviation:.2e}"
    assert floor >= -1e-8, f"eigenvalue floor {floor:.2e}"
    _, master = evolve_master(rho0, model, sme_grid, record_stride=n_steps)
    dist = trace_distance(ensemble.mean_states[-1], master[-1])
    assert dist <= max_distance, f"mean state {dist:.4f} from the master flow"

    # unconditional coherence decay from an equal superposition
    plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2.0))
    times, states = evolve_master(plus, model, sme_grid, record_stride=100)
    law_err = float(np.abs(states[:, 0, 1] - 0.5 * np.exp(-2.0 * times)).max())
    assert law_err <= 1e-4, f"coherence law off by {law_err:.2e}"
    return (
        f"mean of {n_traj} runs within {dist:.4f} of the master flow, "
        f"floor {floor:+.1e}, coherence law to {law_err:.1e}"
    )


def _weak_measurement(steps: list[float]) -> str:
    L = SIGMA_Z + 0.3 * np.array([[0.0, -1.0j], [1.0j, 0.0]])
    H = 0.4 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    model = FiniteModel(H0=H, L_list=[L])
    rho = DensityMatrix([[0.6, 0.15 - 0.05j], [0.15 + 0.05j, 0.4]])
    plus, minus = ancilla_quadrature_projectors()
    errors = []
    for dt in steps:
        U = weak_measurement_unitary(L, dt, H=H)
        outcomes = discrete_conditioning(rho, U, [plus, minus])
        worst = 0.0
        for (prob, post), dY in zip(outcomes, [np.sqrt(dt), -np.sqrt(dt)]):
            assert prob > 0
            euler = sme_step(rho, model, np.zeros(0), np.array([dY]), dt)
            worst = max(worst, trace_distance(post, euler))
        errors.append(worst)
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    assert slope >= 1.4, f"conditioning error slope {slope:.2f}"
    return f"conditioning error shrinks at order {slope:.2f}"


def _rk4_order() -> str:
    coeffs = build_coefficients(free_particle_model())
    Sigma0 = np.diag([2.0, 2.0])
    steps = [1e-2, 5e-3, 2.5e-3]
    errors = []
    for dt in steps:
        n = round(1.0 / dt)
        end = integrate_filter_riccati(coeffs, Sigma0, TimeGrid(0.0, 1.0, n)).final
        reference = integrate_filter_riccati(coeffs, Sigma0, TimeGrid(0.0, 1.0, 16 * n))
        errors.append(float(np.abs(end - reference.final).max()))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    assert slope >= 3.5, f"endpoint error slope {slope:.2f}"
    return f"endpoint error scales at order {slope:.2f}"


CLAIMS = [
    Claim("coefficients", _coefficients),
    Claim("filter-relaxation", _filter_relaxation, budget=1.0),
    Claim("spreading", _spreading, budget=0.1),
    Claim("duality", _duality, budget=5.0,
          desk=dict(seed=314, n_systems=5), full=dict(seed=2718, n_systems=20)),
    Claim("hjb-residual", _hjb_residual, budget=2.0,
          desk=dict(seed=99, n_samples=20), full=dict(seed=424242, n_samples=100)),
    Claim("optimality-probe", _optimality_probe, budget=60.0,
          desk=dict(n_traj=2000, seed=20240, gain_offset=[[0.2, 0.2]]),
          full=dict(n_traj=10_000, seed=11235, gain_offset=[[0.2, 0.2]])),
    Claim("sme-consistency", _sme_consistency, budget=60.0,
          desk=dict(sme_grid=TimeGrid(0.0, 0.2, 2000), n_traj=256, seed=4242,
                    max_distance=0.05),
          full=dict(sme_grid=TimeGrid(0.0, 1.0, 10_000), n_traj=5000, seed=61803,
                    max_distance=0.02)),
    Claim("weak-measurement", _weak_measurement, budget=10.0,
          desk=dict(steps=[1e-2, 1e-3, 1e-4]), full=dict(steps=[1e-2, 1e-3, 1e-4, 1e-5])),
    Claim("rk4-order", _rk4_order, budget=5.0),
]

# the first six claims reproduce the free-particle closed forms end to end
FREE_PARTICLE_SUITES = [c.name for c in CLAIMS[:6]]


def run_suites(
    overrides: dict | None = None,
    names: list[str] | None = None,
) -> list[SuiteResult]:
    """Run the named claims (all of them by default) at desk scale.

    Each key of ``overrides`` replaces the desk argument of that name in
    every selected claim that takes it; other claims ignore it.
    """
    overrides = dict(overrides or {})
    known = {c.name: c for c in CLAIMS}
    unknown = [n for n in names or [] if n not in known]
    if unknown:
        raise InvalidParameter(f"unknown suite names {unknown}")
    selected = CLAIMS if names is None else [known[n] for n in names]
    return [
        c.run({k: overrides.get(k, v) for k, v in c.desk.items()})
        for c in selected
    ]


def render_report(results: list[SuiteResult]) -> str:
    lines = [r.line() for r in results]
    n_failed = sum(not r.passed for r in results)
    if n_failed:
        lines.append(f"{n_failed} of {len(results)} suites FAILED")
    else:
        lines.append(f"all {len(results)} suites passed")
    return "\n".join(lines)
