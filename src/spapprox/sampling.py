"""Seeded random spectra for fuzzing and certificates.

Everything is driven by an explicit numpy Generator so that runs are
reproducible bit-for-bit from (seed, sample count).
"""

from __future__ import annotations

import numpy as np

from .spectral import SpectralFunction


def random_full_spectrum(rng: np.random.Generator, order: int) -> SpectralFunction:
    """Dense spectrum on |k| <= order with complex Gaussian amplitudes."""
    ks = np.arange(-order, order + 1)
    re = rng.standard_normal(ks.size)
    im = rng.standard_normal(ks.size)
    return SpectralFunction({int(k): complex(a, b) for k, a, b in zip(ks, re, im)})


def random_sparse_spectrum(
    rng: np.random.Generator, max_order: int, max_terms: int
) -> SpectralFunction:
    """Sparse spectrum: 1..max_terms harmonics drawn from |k| <= max_order.

    The harmonics are distinct, so max_terms may not exceed 2 max_order + 1.
    """
    if max_terms > 2 * max_order + 1:
        raise ValueError(
            f"max_terms={max_terms} distinct harmonics do not fit in |k| <= "
            f"max_order={max_order}, which holds 2 * max_order + 1 = {2 * max_order + 1}"
        )
    n_terms = int(rng.integers(1, max_terms + 1))
    ks = rng.choice(np.arange(-max_order, max_order + 1), size=n_terms, replace=False)
    re = rng.standard_normal(n_terms)
    im = rng.standard_normal(n_terms)
    return SpectralFunction({int(k): complex(a, b) for k, a, b in zip(ks, re, im)})
