"""Eigenvalue spectrum of a pure-noise panel against the Marchenko-Pastur law.

A 63-series, 239-month panel of independent noise has a correlation matrix
whose eigenvalues fill the Marchenko-Pastur band almost exactly; anything a
real panel shows outside that band is a candidate for genuine structure.
"""

import numpy as np

from panelresponse import (
    Ar1,
    PlantedMode,
    SynthSpec,
    correlation_matrix,
    eigendecompose,
    generate,
    mp_bounds,
    mp_density,
)

M, N_OBS = 63, 239
Q = N_OBS / M

w = generate(SynthSpec(n_series=M, n_obs=N_OBS, seed=1))
basis = eigendecompose(correlation_matrix(w))
lam = basis.eigenvalues

lo, hi = mp_bounds(Q)
print(f"panel: M={M} series x N'={N_OBS} months  (Q = {Q:.3f})")
print(f"Marchenko-Pastur support: [{lo:.4f}, {hi:.4f}]")
print(f"eigenvalues: min {lam.min():.4f}, max {lam.max():.4f}, sum {lam.sum():.6f} (= M)")

outside = np.sum((lam < lo) | (lam > hi))
print(f"eigenvalues outside the asymptotic band: {outside} of {M} "
      f"(finite-size leakage)")

# crude text histogram against the limiting density
density, edges = np.histogram(lam, bins=12, range=(0.0, hi * 1.1), density=True)
centers = (edges[:-1] + edges[1:]) / 2.0
print("\n  bin center   empirical   MP law")
for center, d in zip(centers, density):
    ref = mp_density(float(center), Q)
    bar = "#" * int(round(d * 25))
    print(f"  {center:10.3f}   {d:9.3f}   {ref:6.3f}  {bar}")

# a planted mode well above the band is picked up immediately
strong = generate(SynthSpec(
    n_series=M, n_obs=N_OBS, seed=2,
    modes=(PlantedMode(eigenvalue=8.0, driver=Ar1(0.0)),),
))
lam_strong = eigendecompose(correlation_matrix(strong)).eigenvalues
print(f"\nwith one planted mode at strength 8: top eigenvalues "
      f"{lam_strong[0]:.2f}, {lam_strong[1]:.2f} (band ends at {hi:.2f})")
