"""The negative spectrum: one band exactly at link length pi, else two.

For every positive link length the negative spectrum sits below -1.  The
reduced dispersion f(kappa) reaches +1 exactly at kappa = sqrt(3) when the
link length equals pi, closing the gap: the two bands merge into a single
band that touches quasimomentum theta = 0 precisely at energy -3.  For any
other length the gap is open and -3 never belongs to the spectrum: even a
link length a millionth away from pi opens a gap of about 6e-8 around it.
"""

import math

from ringchain import ChainSpec, negative_bands

for ell in (0.5, 1.0, 2.0, math.pi, math.pi + 1e-6, 5.0, 20.0):
    bands = negative_bands(ChainSpec(ell))
    name = {math.pi: "pi", math.pi + 1e-6: "pi + 1e-6"}.get(ell, f"{ell:g}")
    print(f"link length {name}: {len(bands)} band(s)")
    for b in bands:
        touches = ", ".join(f"{t:.12f}" for t in b.touch_energies)
        extra = f"   theta=0 touch at E = {touches}" if touches else ""
        print(f"  [{b.e_lo:.9f}, {b.e_hi:.9f}]{extra}")
    if len(bands) == 2:
        print(f"  gap around -3: ({bands[0].e_hi:.9f}, {bands[1].e_lo:.9f})")
    print()

print("At large link lengths both bands squeeze exponentially tightly onto")
print("kappa^2 = 3 -+ 4 exp(-pi sqrt(3)), i.e. onto the -3 eigenvalue of the")
print("isolated three-arm star vertex, shifted by the tunneling splitting.")
