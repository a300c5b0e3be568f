"""Recovering external shocks by inverting the reduced linear response.

The long-period (business-cycle) component of the two leading modes is the
economy's inherent motion; whatever the smoothed modes do beyond it must
have been driven from outside.  Inverting the reduced two-mode
susceptibility on that residual yields the stimulus series eta_1, eta_2.

Here the panel's idiosyncratic noise sets a quiet background stimulus
level, a crisis-scale shock is injected along the leading mode, and the
inversion reads it back out well above that background.  The first and
last smoothing windows are excluded: the shrinking moving-average window
distorts the residual at the boundaries.
"""

import numpy as np

from panelresponse import (
    KSET_BUSINESS_CYCLES,
    PlantedMode,
    Sinusoid,
    StandardizedPanel,
    SynthSpec,
    correlation_matrix,
    eigendecompose,
    external_stimuli,
    generate,
    genuine_matrix,
    mode_series,
    reduced_susceptibility,
)

N_OBS = 240
XI = 6
SHOCK_MONTH = 180
SHOCK_SIZE, SHOCK_WIDTH = -8.0, 4.0

clean = generate(SynthSpec(
    n_series=63, n_obs=N_OBS, seed=41,
    modes=(
        PlantedMode(eigenvalue=8.0, driver=Sinusoid(period=60.0)),
        PlantedMode(eigenvalue=5.0, driver=Sinusoid(period=40.0, phase=1.0)),
    ),
))

# calibrate modes and susceptibility on the clean panel
basis = eigendecompose(correlation_matrix(clean))
chi = reduced_susceptibility(genuine_matrix(basis, 2), basis, k=2)

# inject a localized shock along the leading mode, a few months wide
months_idx = np.arange(N_OBS)
pulse = SHOCK_SIZE * np.exp(-0.5 * ((months_idx - SHOCK_MONTH) / SHOCK_WIDTH) ** 2)
shocked_values = clean.values + np.outer(basis.vectors[:, 0], pulse)
shocked_values -= shocked_values.mean(axis=1, keepdims=True)
shocked_values /= shocked_values.std(axis=1, keepdims=True)
shocked = StandardizedPanel.from_values(shocked_values, months=clean.months)

s = external_stimuli(mode_series(shocked, basis), chi, half_width=XI, kset=KSET_BUSINESS_CYCLES)
s0 = external_stimuli(mode_series(clean, basis), chi, half_width=XI, kset=KSET_BUSINESS_CYCLES)

interior = (months_idx >= 2 * XI) & (months_idx < N_OBS - 2 * XI)
near_shock = np.abs(months_idx - SHOCK_MONTH) <= 24
background = np.abs(s0.eta1[interior]).max()
at_shock = np.abs(s.eta1[near_shock]).max()
peak_month = months_idx[interior][np.argmax(np.abs(s.eta1[interior]))]

print(f"injected shock: size {SHOCK_SIZE} on the leading mode at month {SHOCK_MONTH}")
print(f"stimulus background of the undisturbed panel: {background:.3f}")
print(f"recovered |eta_1| at the shock: {at_shock:.3f} "
      f"({at_shock / background:.1f}x the background)")
print(f"peak located at month {peak_month} "
      f"(the {2 * XI + 1}-month smoothing window spreads it)")
print(f"eta_2 stays comparatively quiet near the shock: "
      f"{np.abs(s.eta2[near_shock]).max():.3f}")
print("(a localized shock also bleeds into the fitted long-period component,")
print(" lifting the apparent stimulus level away from the event itself)")

print("\nstimulus trace around the shock (eta_1):")
for j in range(SHOCK_MONTH - 12, SHOCK_MONTH + 13, 3):
    bar = "#" * int(round(abs(s.eta1[j]) * 30))
    print(f"  {str(s.months[j])}  {s.eta1[j]:+.3f}  {bar}")
