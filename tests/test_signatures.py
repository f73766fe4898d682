"""Settings that every caller leaves at their default are not parameters.

The tolerance, relative floor, pass limit and budget of the integrators are
fixed in ``quadrature``; no layer above it takes them, nor a starting panel
count.  The scan grid of the shift supremum is set in ``ModulusCurve`` alone,
and the dilations of the window-scaling check are fixed in ``widths``.
"""

import inspect

import pytest

from spapprox import averaging, jackson, psi, quadrature, smoothness, widths

FIXED = [
    (quadrature.adaptive_simpson, {"rtol", "max_passes", "initial_panels"}),
    (quadrature.nested_integrals, {"rtol", "max_passes", "initial_panels"}),
    (averaging.dilated_integrals, {"tol", "budget", "initial_panels"}),
    (averaging.stieltjes_integral, {"tol", "budget"}),
    # a closed-form mass comes from the cumulative function, cdf(tau)
    (averaging.weight_measure, {"density_mass"}),
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
    (widths.majorant_condition_check, {"u_grid", "rel_tol", "xi_grid"}),
    (smoothness.ModulusGrid, {"refine_iters"}),
    (smoothness.generalized_modulus, {"grid"}),
    (smoothness.difference_modulus_oracle, {"grid"}),
    (averaging.averaged_modulus, {"grid"}),
    (jackson.jackson_bound, {"grid"}),
    (jackson.sharpness_certificate, {"grid"}),
    (widths.membership, {"grid"}),
    (widths.lower_certificate, {"grid"}),
    (widths.upper_certificate, {"grid"}),
    (widths.certify_widths, {"grid"}),
]


@pytest.mark.parametrize("fn,names", FIXED, ids=[fn.__name__ for fn, _ in FIXED])
def test_fixed_settings_are_no_parameters(fn, names):
    assert not names & set(inspect.signature(fn).parameters)


@pytest.mark.parametrize(
    "fn,names",
    [
        (smoothness.ModulusCurve.__init__, {"f", "shape", "u", "grid"}),
        (widths.upper_certificate, {"samples"}),
    ],
    ids=["ModulusCurve", "upper_certificate"],
)
def test_names_the_benchmark_tracer_binds(fn, names):
    # perfbench's tracer binds these arguments by name: a traced scan build
    # reads f, shape, u and grid, and a traced upper certificate its samples
    assert names <= set(inspect.signature(fn).parameters)
