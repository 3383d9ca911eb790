"""Track a monitored free particle toward the origin.

Builds the feedback preset, runs a small closed-loop ensemble and
compares its Monte Carlo cost with the analytic optimum on the Riccati
flows the loop ran on.
"""

import numpy as np

from qlqg import SimConfig, free_particle as fp
from qlqg.closed_loop import monte_carlo_expected_cost, simulate_closed_loop
from qlqg.phase_space import GaussianBelief
from qlqg.riccati import TimeGrid, total_minimal_cost

coeffs = fp.feedback_coefficients()
cost = fp.position_tracking_cost(beta=1.0)
grid = TimeGrid(0.0, 5.0, 5000)
initial = GaussianBelief(mean=[1.0, 0.0], cov=np.diag([0.5, 0.5]))

config = SimConfig(grid=grid, n_traj=2000, seed=42, record_stride=500)
ensemble = simulate_closed_loop(coeffs, cost, config, initial)
analytic = total_minimal_cost(
    initial.mean, initial.cov, ensemble.Omega_path, ensemble.Sigma_path, coeffs, cost
)
mean, stderr = monte_carlo_expected_cost(ensemble)

print(f"analytic optimal cost  {analytic:.6f}")
print(f"Monte Carlo estimate   {mean:.6f} +/- {stderr:.6f}  ({config.n_traj} runs)")
print(f"z-score                {(mean - analytic) / stderr:+.2f}")
print()
print("mean posterior position, averaged over the ensemble:")
mean_path = ensemble.means.mean(axis=0)
for t, q in zip(ensemble.times[::2], mean_path[::2, 0]):
    bar = "#" * max(0, round(40 * q))
    print(f"  t={t:4.1f}  <Q>={q:+.4f}  {bar}")
