"""
Two routes to the same bound: shifted pencil vs fixed-point iteration.

The pencil route reads the bound directly off the eigenvalues tau of the
shifted pencil (t + 1/tau).  The fixed-point route iterates on the local
counting function until t - s = F^j(s).  In exact arithmetic the optimal
fixed-point shift is s = t + 1/(2 tau_j); this script verifies the
identity numerically on the 1D model, where the exact spectrum is the
set of nonzero integers together with 0.
"""
import numpy as np

from eigenclose import assemble_1d, optimal_shift, uniform_mesh, zm_eigen

forms = assemble_1d(uniform_mesh(16), 2).forms
t = 1.4

pencil = zm_eigen(forms, t)
print(f"shift t = {t}, order 2, 16 elements")
print(f"{'side':^6} {'j':^3} {'s_hat':^22} {'t + 1/(2 tau_j)':^22} {'gap':^10}")

for side in ("left", "right"):
    tau = pencil.nearest(side, 2)
    for j in (1, 2):
        res = optimal_shift(forms, t, j, side)
        predicted = t + 0.5 / tau[j - 1]
        gap = abs(res.s_hat - predicted)
        print(f"{side:^6} {j:^3} {res.s_hat:^22.16f} "
              f"{predicted:^22.16f} {gap:^10.2e}")

print()
print("resulting two-sided information around t:")
left = optimal_shift(forms, t, 1, "left")
right = optimal_shift(forms, t, 1, "right")
print(f"  nearest point below {t} is >= {left.bound:.12f}   (true: 1)")
print(f"  nearest point above {t} is <= {right.bound:.12f}   (true: 2)")
