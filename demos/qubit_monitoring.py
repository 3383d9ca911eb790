"""Continuously monitored qubit: single records and the ensemble view.

A dephasing measurement of sigma_z drives each trajectory toward one of
the two pointer states, with asymptotic probabilities given by the
initial populations.  Averaged over the record, the same dynamics is
plain exponential decoherence.
"""

import numpy as np

from qlqg import SimConfig
from qlqg.riccati import TimeGrid
from qlqg.sme import (
    DensityMatrix,
    FiniteModel,
    evolve_master,
    simulate_sme_ensemble,
    trace_distance,
)

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

model = FiniteModel(H0=np.zeros((2, 2), dtype=complex), L_list=[SZ])
rho0 = DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.3]], dtype=complex))
grid = TimeGrid(0.0, 3.0, 3000)

print("three individual measurement records, <sigma_z> over time:")
for seed in (1, 2, 3):
    config = SimConfig(grid=grid, n_traj=1, seed=seed, record_stride=300)
    states = simulate_sme_ensemble(rho0, model, config).mean_states
    zs = np.einsum("tij,ji->t", states, SZ)
    print(f"  seed {seed}: " + "  ".join(f"{z:+.3f}" for z in zs.real))

config = SimConfig(grid=grid, n_traj=2000, seed=99, record_stride=3000)
ensemble = simulate_sme_ensemble(rho0, model, config)
final_z = np.real(np.trace(ensemble.final_states @ SZ, axis1=1, axis2=2))
frac_up = float((final_z > 0.9).mean())
frac_down = float((final_z < -0.9).mean())
print()
print(f"of {config.n_traj} records at t=3:  {frac_up:.1%} settled up, "
      f"{frac_down:.1%} settled down")
print("initial populations were 70% / 30%")

_, master = evolve_master(rho0, model, grid, record_stride=3000)
dist = trace_distance(ensemble.mean_states[-1], master[-1])
print(f"record-averaged state sits {dist:.4f} from the master flow")
print(f"worst eigenvalue along the way: {ensemble.min_eigenvalue:+.2e}")
