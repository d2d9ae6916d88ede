"""Certifying spectral gaps without solving for bands.

A sufficient condition for an energy k^2 to lie in a gap reads
r(k) |sin(k ell) sin(k pi)| > 2; the high-energy variant
|sin(k ell) sin(k pi)| > 8/k^2 implies it, since r(k) > k^2/4.  Certified
points can be trusted without any scanning, which is how the measure-zero
statement is proved.
"""

import numpy as np

from ringchain import (
    ChainSpec,
    gap_certificate,
    joint_m_membership,
    phi_positive,
    positive_bands,
)

spec = ChainSpec(1.0)

print("certificates on a coarse grid (link length 1):")
for k in np.linspace(2.7, 14.7, 13):
    cert = "in-gap-strong" if gap_certificate(spec, float(k)) else "inconclusive"
    phi = float(phi_positive(spec, float(k)))
    joint = joint_m_membership(spec, float(k))
    print(f"  k = {k:5.2f}   |Phi| = {abs(phi):9.3f}   {cert:18s}"
          f"   joint sine test: {joint}")

print()
print("soundness sweep: no certified point may lie inside a band")
bands = positive_bands(spec, 30.0)
rng = np.random.default_rng(0)
checked = certified = 0
for k in rng.uniform(1.0, 30.0, 20000):
    checked += 1
    if gap_certificate(spec, float(k)):
        certified += 1
        e = k * k
        assert not any(b.e_lo + 1e-9 < e < b.e_hi - 1e-9 for b in bands)
print(f"  {certified} of {checked} random points certified; all outside bands")

print()
print("Anchor points k = m pi/ell and integer k are never certified: one of")
print("the sine factors vanishes there and those energies are always in the")
print("spectrum.")
