"""A ``GaussianOracle`` that ledgers every call it serves, for call-accounting tests."""

import numpy as np

from spen import GaussianOracle


class CountingGaussianOracle(GaussianOracle):
    """Same draws as the wrapped oracle; a gradient batch of ``m`` counts
    ``m`` calls and a batch of ``m`` value pairs ``2*m``."""

    def __init__(self, inner: GaussianOracle):
        vars(self).update(vars(inner))
        self.calls = 0

    def gradient_batch(self, x, m, rng):
        self.calls += int(m)
        return super().gradient_batch(x, m, rng)

    def value_pair_batch(self, xs_a, xs_b, rng):
        self.calls += 2 * int(np.asarray(xs_a).shape[0])
        return super().value_pair_batch(xs_a, xs_b, rng)
