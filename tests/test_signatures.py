"""Settings that every caller leaves at their default are not parameters.

The tolerance, relative floor, pass limit and budget of the integrators are
fixed in ``quadrature``; no layer above it takes them, nor a starting panel
count.
"""

import inspect

import pytest

from spapprox import averaging, jackson, psi, quadrature, widths

FIXED = [
    (quadrature.adaptive_simpson, {"rtol", "max_passes"}),
    (quadrature.simpson_integrals, {"rtol", "max_passes"}),
    (averaging.dilated_integrals, {"tol", "budget", "initial_panels"}),
    (averaging.stieltjes_integral, {"tol", "budget"}),
    (jackson.shape_mass, {"tol", "budget"}),
    (jackson._dilated_shape_integrals, {"tol", "budget"}),
    (jackson.inf_quantity, {"tol", "budget"}),
    (widths.capped_shape_integral, {"tol", "budget"}),
    (widths._capped_shape_integrals, {"tol", "budget"}),
    (widths.width_closed_form, {"inf_report"}),
    (jackson.equiv_condition_check, {"inf_report"}),
    (psi.tail_sup, {"horizon"}),
    (psi.tail_sup_info, {"horizon"}),
    (psi.tabulated_psi, {"horizon"}),
    (widths.majorant_condition_check, {"u_grid", "rel_tol"}),
]


@pytest.mark.parametrize("fn,names", FIXED, ids=[fn.__name__ for fn, _ in FIXED])
def test_fixed_settings_are_no_parameters(fn, names):
    assert not names & set(inspect.signature(fn).parameters)
