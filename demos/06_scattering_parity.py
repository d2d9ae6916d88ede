"""Vertex parity through the on-shell scattering matrix.

The rotation coupling fixes S(1) = U, and the high-energy limit of S(k)
depends only on whether the vertex degree is odd or even: odd vertices
become transparent (S -> I), even vertices keep the eigenvalue -1 of U
pinned, so S stays at operator distance 2 from the identity.  This parity
is what separates the tight chain (one degree-4 vertex per cell) from the
loose one (two degree-3 vertices per cell) at high energy.
"""

import numpy as np

from ringchain import make_coupling, vertex_scattering

print("S(1) equals the coupling unitary:")
for n in (3, 4, 5):
    err = np.linalg.norm(vertex_scattering(n, 1.0) - make_coupling(n))
    print(f"  degree {n}: ||S(1) - U|| = {err:.2e}")

print()
print("high-energy behavior ||S(k) - I||:")
print("  k         degree 3      degree 4      degree 5")
for k in (10.0, 100.0, 1000.0, 10000.0, 100000.0):
    norms = [np.linalg.norm(vertex_scattering(n, k) - np.eye(n), 2)
             for n in (3, 4, 5)]
    print(f"  {k:8.0f}  {norms[0]:.6e}  {norms[1]:.6e}  {norms[2]:.6e}")

print()
print("odd degrees decay like 1/k; every even degree is stuck at 2 because")
print("s(k, -1) = -1 holds identically in k.")
