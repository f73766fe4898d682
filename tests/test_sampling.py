import numpy as np
import pytest

from spapprox.sampling import random_sparse_spectrum


def test_every_harmonic_may_be_drawn():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_sparse_spectrum(rng, 2, 5)
        assert 1 <= len(f.coeffs) <= 5
        assert all(abs(k) <= 2 for k in f.coeffs)


@pytest.mark.parametrize("order,terms", [(0, 2), (1, 4), (16, 34)])
def test_more_terms_than_harmonics_raises_naming_both(order, terms):
    with pytest.raises(ValueError, match=r"max_terms=\d+.*max_order=\d+"):
        random_sparse_spectrum(np.random.default_rng(0), order, terms)
