"""Two derivations, one zero set: determinant vs closed forms.

The closed forms are factored scalar spectral conditions.  As an
independent check, the full fiber linear system (one pair of unknowns per
edge of the cell: 4 for the tight chain, 6 for the loose one) is assembled
directly from the vertex matching and the quasi-periodic factor, and its
determinant is compared root by root against the closed forms on random
brackets.
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
print("The determinant and the closed forms are derivation oracles for each")
print("other.  Band edges are solved on neither: they are solved on the reduced")
print("dispersions of ringchain.bands (Phi -+ 1 on the positive branch, and its")
print("rescaled form f_shifted on the negative one).")
