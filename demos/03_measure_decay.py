"""High-energy transport shutdown: the spectral fraction decays to zero.

The probability that a uniformly drawn energy in [0, K] lies in the
spectrum is 1 for the tight chain at every K.  For any loose chain it
decays towards zero as the window grows: gaps dominate at high energy, so
transport over the chain is impossible for most energies.  A log-log fit
of the finite-window fractions exposes the decay rate.
"""

import math

import numpy as np

from ringchain import ChainSpec, spectrum_measure

windows = [100.0, 300.0, 1000.0, 3000.0, 10000.0]

print("tight chain:")
for K in windows[:3]:
    rep = spectrum_measure(ChainSpec(0.0), K)
    print(f"  K = {K:7.0f}   fraction = {rep.fraction:.6f}")
print()

for ell in (0.5, 1.0, math.pi):
    name = "pi" if ell == math.pi else f"{ell:g}"
    print(f"loose chain, link length {name}:")
    fractions = []
    for K in windows:
        rep = spectrum_measure(ChainSpec(ell), K)
        fractions.append(rep.fraction)
        print(f"  K = {K:7.0f}   fraction = {rep.fraction:.6f}   "
              f"bands = {rep.band_count:4d}   gaps = {rep.gap_count:4d}")
    slope = np.polyfit(np.log(windows), np.log(fractions), 1)[0]
    print(f"  fitted decay exponent: fraction ~ K^{slope:.3f}")
    print()

print("At link lengths 0.5 and 1 the fit is near K^(-0.7), steeper than")
print("K^(-1/2).  Only at link length pi, where the anchors k = n and")
print("k = m pi/ell coincide and neighbouring bands touch, does the fraction")
print("fall like K^(-1/2).")
