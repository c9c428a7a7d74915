"""
Worked model: A = diag(1, 2, 5) with the trial space span{e1, e2}.

Because the trial space is spanned by exact eigenvectors, every computed
bound is exact: this is the smallest example that exercises the whole
pipeline (forms -> signature census -> one-sided bounds -> enclosures)
with answers you can check by hand.
"""
import numpy as np

from eigenclose import (
    local_counting,
    operator_forms,
    signature,
    zm_bounds_one_sided,
    zm_enclosures,
)

A = np.diag([1.0, 2.0, 5.0])
basis = np.eye(3)[:, :2]          # columns e1, e2
forms = operator_forms(A, basis)

print("operator eigenvalues :", np.diag(A))
print("trial space          : span{e1, e2}")
print()

# How the pencil sees each shift: n_minus counts detectable points below t,
# n_plus detectable points above.
for t in (1.5, 3.0):
    sig = signature(forms, t)
    F = local_counting(forms, t)
    print(f"t = {t}: signature {sig}, F = {F}")
print()

# One-sided bounds.  At t = 3 both spectral points seen by the trial space
# lie below, and the bounds hit them exactly.
print("bounds below t = 3.0 :", zm_bounds_one_sided(forms, 3.0, "left"))
print("bounds below t = 1.5 :", zm_bounds_one_sided(forms, 1.5, "left"))
print("bounds above t = 1.5 :", zm_bounds_one_sided(forms, 1.5, "right"))
print()

# Pairing both sides over a window yields certified enclosures.
for enc in zm_enclosures(forms, (0.5, 2.5), j_max=2):
    print(f"j = {enc.j}: [{enc.lower}, {enc.upper}]  width = {enc.width}")
