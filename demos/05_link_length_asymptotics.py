"""Shrinking and stretching the connecting links: asymptotic regimes.

Small links: the upper negative band clings to the four-arm star
eigenvalue -1 with lower edge -1 - ell*coth(pi/2) and width 2*ell/sinh(pi),
while the lower band escapes to -infinity like -(4/ell)^(2/3).  Long
links: the pair squeezes onto the three-arm star eigenvalue -3, split by
the tunneling amount 4*exp(-pi*sqrt(3)) ~ 0.0173.  The spectrum of the
loose chain converges to the tight one as a set, but never uniformly: for
every link length there are high-energy windows more than half filled by
gaps.
"""

from ringchain import (
    SQUEEZE_EPSILON,
    ChainSpec,
    Quasimomentum,
    large_l_gap_spacing,
    negative_bands,
    set_convergence_check,
    small_l_lower_band,
    small_l_upper_band,
    solve_negative_edge,
)

q0 = Quasimomentum(0.0)

print("small links: upper negative band edge (theta = 0)")
for ell in (1e-2, 1e-3, 1e-4):
    pred = small_l_upper_band(ell, q0.cos)
    solved = solve_negative_edge(ChainSpec(ell), 1.0, "upper")
    print(f"  ell = {ell:7.0e}   predicted kappa = {pred.kappa_pred:.9f}"
          f"   solved = {solved:.9f}   error = {abs(solved-pred.kappa_pred):.2e}")

print()
print("small links: the lower band escapes like (4/ell)^(1/3)")
for ell in (1e-2, 1e-3, 1e-4):
    pred = small_l_lower_band(ell)
    solved = solve_negative_edge(ChainSpec(ell), 1.0, "lower")
    print(f"  ell = {ell:7.0e}   kappa solved/predicted = {solved / pred:.5f}")

print()
print("long links: squeezing onto energy -3")
bands = negative_bands(ChainSpec(20.0))
print(f"  predicted band energies: {-3.0 - SQUEEZE_EPSILON:.6f}, {-3.0 + SQUEEZE_EPSILON:.6f}")
print(f"  solved band centers:     "
      f"{0.5*(bands[0].e_lo+bands[0].e_hi):.6f}, "
      f"{0.5*(bands[1].e_lo+bands[1].e_hi):.6f}")
print(f"  neighboring positive bands sit ~ (2n+1)(pi/ell)^2 apart: "
      f"n=1 spacing at ell=20 is {large_l_gap_spacing(1, 20.0):.5f}")

print()
print("set convergence with nonuniformity (window [0, 25]):")
for ell in (0.1, 0.01):
    row = set_convergence_check(ell)
    print(f"  ell = {ell:5.2f}   one-sided Hausdorff distance = "
          f"{row['hausdorff_to_tight']:.4f}   first half-gapped window "
          f"starts at E = {row['witness_window_lo']:.0f}")
