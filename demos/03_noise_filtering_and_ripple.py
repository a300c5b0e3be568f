"""Noise-filtered correlation matrix and interindustrial ripple effects.

Keeping only the statistically significant eigenmodes (diagonal reset to
one) gives a correlation matrix cleaned of finite-sample noise.  Under the
fluctuation-dissipation ansatz its entries answer linear-response questions
directly: raising shipments of one goods category by a unit growth rate
shifts every other series by the corresponding matrix entry.
"""

import numpy as np

from panelresponse import (
    Ar1,
    DEFAULT_GOODS_LABELS,
    PlantedMode,
    SeriesId,
    Sinusoid,
    SynthSpec,
    Variable,
    correlation_matrix,
    eigendecompose,
    final_to_intermediate,
    generate,
    genuine_matrix,
    reduced_susceptibility,
    ripple,
)

w = generate(SynthSpec(
    n_series=63, n_obs=239, seed=21,
    modes=(
        PlantedMode(eigenvalue=8.0, driver=Ar1(0.2)),
        PlantedMode(eigenvalue=5.0, driver=Sinusoid(period=60.0)),
    ),
))
craw = correlation_matrix(w)
basis = eigendecompose(craw)
cg = genuine_matrix(basis, 2)

off_raw = np.abs(craw.values[~np.eye(63, dtype=bool)])
off_gen = np.abs(cg.values[~np.eye(63, dtype=bool)])
print(f"median |off-diagonal|: raw {np.median(off_raw):.3f} -> "
      f"filtered {np.median(off_gen):.3f} (noise floor removed)")

# unit shift applied to shipments of Motor Vehicles
source = SeriesId(Variable.SHIPMENTS, 15)
responses = ripple(cg, source)
print(f"\nripple from a unit growth-rate shift of shipments / "
      f"{DEFAULT_GOODS_LABELS[15]}:")
order = np.argsort(-np.abs(responses))
for idx in order[:6]:
    sid = w.ids[idx]
    print(f"  {sid.label:5s} {DEFAULT_GOODS_LABELS[sid.goods]:35s} "
          f"{responses[idx]:+.3f}")

# the final-demand -> producer-goods table (one column per producer goods)
table = final_to_intermediate(cg)
print("\nresponse of producer-goods production to unit shipment shifts:")
print("  g    final demand goods                    g=20     g=21")
for g in range(1, 20):
    print(f"  {g:2d}   {DEFAULT_GOODS_LABELS[g]:35s} {table[g-1, 0]:+.3f}   "
          f"{table[g-1, 1]:+.3f}")

chi = reduced_susceptibility(cg, basis, k=2)
norm = chi / chi[0, 0]
print("\nreduced two-mode susceptibility (relative to the leading entry):")
print(f"  [[{norm[0,0]:.3f}, {norm[0,1]:+.2e}], [{norm[1,0]:+.2e}, {norm[1,1]:.3f}]]")
print("(the two modes are nearly decoupled, as orthonormality suggests)")
