"""Click statistics: Monte Carlo against the exact distribution.

The number of clicks per train is a Poisson-binomial variable: every bin
clicks independently with its own probability (photons plus dark counts).
The sampler and the closed-form oracle must agree; this script puts a
million simulated trains next to the exact numbers.
"""

import numpy as np

from binflux import (
    Coherent,
    Fock,
    coherent_click_distribution,
    fock_click_distribution,
    get_preset,
    simulate_batch,
    total_variation,
)

system = get_preset("rapid32")
weights = system.bin_weights()
det = system.detector

mu = 100.0
batch = simulate_batch(Coherent(mu), weights, det, 1_000_000, seed=1)
exact = coherent_click_distribution(mu, weights, det)

print(f"== coherent pulses, mu={mu:.0f}, 10^6 shots on rapid32")
print(f"   mean clicks: MC {batch.mean_clicks:.4f}  exact {exact.mean:.4f}")
print(f"   total variation distance MC vs exact: {total_variation(batch.distribution, exact.probs):.2e}")
print("   n   MC probability   exact")
for n in range(4, 17):
    print(f"   {n:2d}  {batch.distribution[n]:.6f}       {exact.probs[n]:.6f}")

# Fock states: exactly n photons in, at most n photon clicks out.
print("== Fock state n=4")
fock = fock_click_distribution(4, weights, det)
batch4 = simulate_batch(Fock(4), weights, det, 200_000, seed=2)
for n in range(6):
    print(f"   {n} clicks: MC {batch4.distribution[n]:.5f}  exact {fock.probs[n]:.5f}")
print(f"   P(5 clicks given 4 photons) = {fock.probs[5]:.1e} (dark counts only)")

# With the light off, the click floor is set by the dark counts alone.
dark = coherent_click_distribution(0.0, weights, det)
print("== dark floor (mu=0)")
print(f"   P(0 clicks) = {dark.probs[0]:.6f}, P(>=1 click) = {1.0 - dark.probs[0]:.3e}")

# Determinism: the same seed reproduces the histogram bit for bit,
# independent of the thread count.
a = simulate_batch(Coherent(mu), weights, det, 100_000, seed=7, workers=1)
b = simulate_batch(Coherent(mu), weights, det, 100_000, seed=7, workers=2)
print(f"== determinism: threaded rerun identical: {bool(np.array_equal(a.histogram, b.histogram))}")
