"""Flat bands and the positive band/gap structure of a ring chain.

The tightly connected chain (link length 0) has an absolutely continuous
spectrum covering the whole positive axis, plus infinitely degenerate
eigenvalues at the positive integers and one isolated at -1.  As soon as
the rings are connected through segments of positive length, gaps open
everywhere and the flat bands move to every non-negative integer.
"""

from ringchain import ChainSpec, flat_bands, positive_bands

for ell in (0.0, 1.0):
    spec = ChainSpec(ell)
    label = "tight" if spec.is_tight else f"loose, link length {ell}"
    print(f"=== {label} chain ===")

    print("flat bands (infinitely degenerate eigenvalues):")
    for e in flat_bands(spec, e_max=30.0):
        # E >= 0 lies in the closure of the ac spectrum; E = -1 (tight) is isolated
        tag = "embedded in the ac spectrum" if e >= 0.0 else "isolated"
        print(f"  E = {e:6.1f}   {tag}")

    bands = positive_bands(spec, k_max=5.0)
    print(f"positive ac bands up to E = 25 ({len(bands)} bands):")
    for b in bands:
        cut = "  (cut at k_max)" if b.truncated_hi else ""
        print(f"  [{b.e_lo:9.5f}, {b.e_hi:9.5f}]  width {b.width:8.5f}{cut}")
    if len(bands) > 1:
        gaps = [(a.e_hi, b.e_lo) for a, b in zip(bands, bands[1:])]
        widest = max(gaps, key=lambda g: g[1] - g[0])
        print(f"widest gap below 25: ({widest[0]:.5f}, {widest[1]:.5f})")
    print()

print("Every positive integer k (and every multiple of pi/ell) stays inside")
print("a band: those are the anchor points where one sine factor of the")
print("dispersion vanishes, so some quasimomentum always solves it.")
