"""How sharply the cost rises away from the optimal gain.

Each detuned loop is driven by the same innovation noise as the
optimal one (common random numbers), so the cost difference per
trajectory is paired and the comparison needs far fewer runs than two
independent ensembles would.
"""

import numpy as np

from qlqg import SimConfig, free_particle as fp
from qlqg.closed_loop import simulate_closed_loop
from qlqg.phase_space import GaussianBelief

from qlqg.riccati import TimeGrid

coeffs = fp.feedback_coefficients()
cost = fp.position_tracking_cost(beta=1.0)
grid = TimeGrid(0.0, 5.0, 5000)
config = SimConfig(grid=grid, n_traj=1000, seed=7, record_stride=5000)
initial = GaussianBelief(mean=[1.0, 0.0], cov=np.diag([0.5, 0.5]))

# only the total costs are compared, so no paths are recorded
baseline = simulate_closed_loop(coeffs, cost, config, initial, record=0)

print("gain offset   extra cost    paired se   significance")
for eps in [0.05, 0.1, 0.2, 0.4, 0.8]:
    detuned = simulate_closed_loop(
        coeffs, cost, config, initial, gain_offset=[[eps, eps]], record=0
    )
    diff = detuned.total_costs - baseline.total_costs
    d_mean = diff.mean()
    d_se = diff.std(ddof=1) / np.sqrt(config.n_traj)
    print(f"  {eps:5.2f}      {d_mean:9.4f}    {d_se:9.4f}   {d_mean / d_se:7.1f} se")

print()
print("the increase is quadratic near zero: optimality is flat to first order")
