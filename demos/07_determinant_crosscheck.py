"""Two derivations, one zero set: the determinant vs the solvers' kernels.

The band edges are solved on the reduced dispersions of ringchain.bands,
and ``closed_form_value`` is those kernels times a factor that puts the
flat bands on shell and removes the pole.  As an independent check, the
full fiber linear system (one pair of unknowns per edge of the cell: 4 for
the tight chain, 6 for the loose one) is assembled directly from the vertex
matching and the quasi-periodic factor, and its determinant is compared
root by root against ``closed_form_value`` on random brackets.
"""

import math

from ringchain import ChainSpec, solve_negative_edge
from ringchain.crosscheck import match_roots

for ell in (0.0, 1.0, math.pi):
    spec = ChainSpec(ell)
    name = "tight" if spec.is_tight else ("pi" if ell == math.pi else f"{ell:g}")
    rep = match_roots(spec, "positive", 0.1, 15.0, n_brackets=150, seed=1,
                      extra_roots=(1.0, 2.0, 3.0))
    print(f"link {name:5s} positive branch: {rep.matched_roots:3d} shared roots, "
          f"largest disagreement {rep.worst_distance:.2e}, "
          f"mismatches: {len(rep.mismatches)}")
    if not spec.is_tight:
        extra = tuple(solve_negative_edge(spec, math.cos(0.8), band)
                      for band in ("upper", "lower"))
        rep = match_roots(spec, "negative", 0.1, 6.0, n_brackets=150, seed=2,
                          extra_roots=extra, theta=0.8)
        print(f"link {name:5s} negative branch: {rep.matched_roots:3d} shared roots, "
              f"largest disagreement {rep.worst_distance:.2e}, "
              f"mismatches: {len(rep.mismatches)}")

print()
print("The determinant checks the kernels the band edges are solved on:")
print("closed_form_value is sin(k pi) (Phi - c) on the positive branch, and")
print("(1 - kappa^2)/(1 + kappa^2) f_shifted on the loose negative one.")
