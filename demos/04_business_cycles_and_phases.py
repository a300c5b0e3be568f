"""Mode dynamics: smoothing, lagged mode coupling, and per-goods phases.

The demo panel carries a 60-month cycle on two orthogonal modes a quarter
cycle apart: mode 1 loads every series equally (an aggregate-demand
pattern), mode 2 is a production-minus-inventory contrast that leads mode 1
by 15 months.  A centered moving average exposes the relationship, a lagged
correlation locates the delay, and a single-frequency phase table shows how
individual series lead or trail the reference (production of goods 20).
"""

import numpy as np

from panelresponse import (
    PlantedMode,
    SeriesId,
    Sinusoid,
    SynthSpec,
    Variable,
    correlation_matrix,
    eigendecompose,
    freq_avg_phases,
    generate,
    lag_correlation,
    mode_series,
    moving_average,
)

N_OBS = 239
PERIOD = 60.0
LEAD_TRUE = 15  # quarter cycle: months by which mode 2 leads mode 1

aggregate = np.ones(63) / np.sqrt(63.0)
contrast = np.concatenate([np.ones(21), np.zeros(21), -np.ones(21)]) / np.sqrt(42.0)

w = generate(SynthSpec(
    n_series=63, n_obs=N_OBS, seed=31,
    modes=(
        PlantedMode(eigenvalue=8.0, driver=Sinusoid(period=PERIOD),
                    loading=aggregate),
        PlantedMode(eigenvalue=5.0,
                    driver=Sinusoid(period=PERIOD,
                                    phase=2 * np.pi * LEAD_TRUE / PERIOD),
                    loading=contrast),
    ),
))
basis = eigendecompose(correlation_matrix(w))
ms = mode_series(w, basis)

a1, a2 = ms.coeffs[0], ms.coeffs[1]
s1 = moving_average(a1, 6)
print("smoothing the leading mode (half-width 6 months):")
print(f"  raw std {a1.std():.2f} -> smoothed std {s1.std():.2f}")

s2 = moving_average(a2, 6)
curve = [(tau, lag_correlation(s1, s2, tau)) for tau in range(0, 31)]
best_tau, best_c = max(curve, key=lambda p: abs(p[1]))
print(f"\nlagged coupling <a1(t) a2(t - tau)> peaks at tau = {best_tau} months "
      f"(corr = {best_c:+.2f}); planted lead was {LEAD_TRUE}")

K = 4  # frequency index: period (N' + 1) / K months
table = freq_avg_phases(ms, basis, [K], ref=SeriesId(Variable.PRODUCTION, 20))
print(f"\nphases at T={round((w.n_obs + 1) / K)} relative to production of goods 20")
print("(positive = peaks earlier than the reference):")
print("  class averages: "
      f"P {table.class_average(Variable.PRODUCTION):+6.1f}  "
      f"S {table.class_average(Variable.SHIPMENTS):+6.1f}  "
      f"I {table.class_average(Variable.INVENTORY):+6.1f}  degrees")
print("\n  goods  P        S        I")
for g in (1, 9, 15, 20, 21):
    row = [table.phase(SeriesId(Variable(a), g)) for a in (1, 2, 3)]
    print(f"  {g:4d}  {row[0]:+7.1f}  {row[1]:+7.1f}  {row[2]:+7.1f}")
print("\n(the leading contrast mode pushes production ahead of the pure")
print(" aggregate cycle: production peaks first, shipments follow, inventory last)")
