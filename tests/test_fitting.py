import math
import random

import numpy as np
import pytest

from temponet import (
    IllConditionedError,
    TimeDiffFn,
    TpaParams,
    fit_exp_decay,
    fit_rational_power,
    fit_rational_quadratic,
    jrc,
    make_schedule,
    polyfit,
    r_squared,
    tpa_generate,
)
from temponet.fitting import _gauss_newton


class TestRSquared:
    def test_perfect_predictions(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_predictor_scores_zero(self):
        ys = [1.0, 2.0, 3.0, 6.0]
        mean = sum(ys) / len(ys)
        assert r_squared(ys, [mean] * 4) == pytest.approx(0.0)

    def test_hand_computed_four_points(self):
        ys = [1.0, 2.0, 4.0, 5.0]
        preds = [1.5, 1.5, 4.5, 4.5]
        # SS_tot = 10.0, SS_res = 4 * 0.25 = 1.0
        assert r_squared(ys, preds) == pytest.approx(1 - 1.0 / 10.0)

    def test_constant_data_is_undefined(self):
        assert r_squared([2, 2, 2], [2, 2, 2]) is None

    @pytest.mark.parametrize("ys, predictions, message", [
        ([1, 2, 3], [1, 2], "inputs must have equal length"),
        ([1], [1], "need at least 2 observations"),
    ])
    def test_refused_inputs(self, ys, predictions, message):
        with pytest.raises(ValueError, match=message):
            r_squared(ys, predictions)


class TestPolyfit:
    def test_exact_cubic_recovered_with_degree_four(self):
        xs = [x / 2 for x in range(-6, 7)]
        ys = [1 + 2 * x - x**3 for x in xs]
        fit = polyfit(xs, ys, 4)
        assert fit.coefficients == pytest.approx([1, 2, 0, -1, 0], abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_data_degree_zero(self):
        fit = polyfit([0, 1, 2], [4.0, 4.0, 4.0], 0)
        assert fit.coefficients == pytest.approx([4.0])
        assert fit.r_squared is None

    def test_residuals_orthogonal_to_basis(self):
        rng = random.Random(0)
        xs = [i / 3 for i in range(12)]
        ys = [math.sin(x) + rng.gauss(0, 0.1) for x in xs]
        fit = polyfit(xs, ys, 3)
        vander = np.vander(np.array(xs), 4, increasing=True)
        resid = np.array(ys) - vander @ np.array(fit.coefficients)
        assert np.abs(vander.T @ resid).max() < 1e-8

    def test_higher_degree_never_lowers_r_squared(self):
        rng = random.Random(3)
        xs = list(range(10))
        ys = [0.3 * x**2 - x + rng.gauss(0, 1.0) for x in xs]
        scores = [polyfit(xs, ys, d).r_squared for d in range(1, 6)]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo - 1e-12

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            polyfit([1, 1, 2], [1, 2, 3], 1)

    @pytest.mark.parametrize("xs, ys, degree, message", [
        ([0, 1, 2], [1, 2], 1, "inputs must have equal length"),
        ([0, 1], [1, 2], 2, "need at least degree . 1 points"),
        ([0, 1], [1, 2], -1, "degree must be non-negative"),
    ])
    def test_refused_inputs(self, xs, ys, degree, message):
        with pytest.raises(ValueError, match=message):
            polyfit(xs, ys, degree)

    def test_rank_deficient_system_is_refused(self):
        # distinct x values too close for the quadratic column to count
        with pytest.raises(IllConditionedError, match="rank deficient"):
            polyfit([0, 1e-20, 1], [1, 2, 3], 2)

    def test_quartic_fits_polynomial_growth_curve(self):
        g = tpa_generate(
            TpaParams(m=3, schedule=make_schedule("polynomial", 5, 16),
                      f=TimeDiffFn.exp_base(2), seed=0)
        )
        j = jrc(g, 1)
        fit = polyfit(j.times(), j.values(), 4)
        assert fit.r_squared >= 0.99


class TestFitExpDecay:
    def test_exact_recovery_marriage_curve(self):
        a, b = 0.138, 7.01
        xs = list(range(41))
        ys = [a * math.exp(-x / b) for x in xs]
        fit = fit_exp_decay(xs, ys)
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(a, rel=1e-3)
        assert fit.coefficients[1] == pytest.approx(b, rel=1e-3)

    def test_constant_data_flagged_non_converged(self):
        fit = fit_exp_decay([0, 1, 2, 3], [2.0, 2.0, 2.0, 2.0])
        assert not fit.converged

    def test_noisy_recovery_within_five_percent(self):
        rng = random.Random(11)
        a, b = 0.5, 12.0
        xs = list(range(60))
        ys = [max(1e-9, a * math.exp(-x / b) + rng.gauss(0, 0.005)) for x in xs]
        fit = fit_exp_decay(xs, ys)
        assert fit.coefficients[0] == pytest.approx(a, rel=0.05)
        assert fit.coefficients[1] == pytest.approx(b, rel=0.05)

    def test_scale_equivariance(self):
        xs = list(range(30))
        rng = random.Random(2)
        ys = [0.2 * math.exp(-x / 5.0) * (1 + 0.01 * rng.gauss(0, 1)) for x in xs]
        base = fit_exp_decay(xs, ys)
        scaled = fit_exp_decay(xs, [y * 37.0 for y in ys])
        assert scaled.coefficients[0] == pytest.approx(37.0 * base.coefficients[0], rel=1e-6)
        assert scaled.coefficients[1] == pytest.approx(base.coefficients[1], rel=1e-6)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            fit_exp_decay([0, 1, 2], [1.0, 0.0, 0.5])

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="need at least 3 points"):
            fit_exp_decay([0, 1], [1.0, 0.5])


class TestRationalFits:
    def test_power_form_recovery(self):
        # reference shape: (0.179 - 0.008 t^0.642) / (1.614 + t^0.642)
        a, b, c = 0.179, 0.008, 1.614
        xs = [x / 2 for x in range(1, 60)]
        ys = [(a - b * x**0.642) / (c + x**0.642) for x in xs]
        fit = fit_rational_power(xs, ys)
        assert fit.converged
        assert fit.coefficients == pytest.approx([a, b, c], rel=1e-4)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_form_recovery(self):
        # reference shape: (0.049 + 0.004 t) / (1 - 0.221 t + 0.04 t^2)
        a, b, c, d = 0.049, 0.004, -0.221, 0.04
        xs = [x / 2 for x in range(60)]
        ys = [(a + b * x) / (1 + c * x + d * x**2) for x in xs]
        fit = fit_rational_quadratic(xs, ys)
        assert fit.converged
        assert fit.coefficients == pytest.approx([a, b, c, d], rel=1e-4)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("fit", [polyfit, fit_exp_decay, fit_rational_power, fit_rational_quadratic])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, fit, bad):
        xs, ys = [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.8, 0.5, 0.3, 0.2]
        args = (2,) if fit is polyfit else ()
        with pytest.raises(ValueError, match="values must be finite"):
            fit(xs, [*ys[:2], bad, *ys[3:]], *args)
        with pytest.raises(ValueError, match="values must be finite"):
            fit([*xs[:2], bad, *xs[3:]], ys, *args)

    # values near 1e300: no step keeps the squared residual finite
    @pytest.mark.parametrize("fit, xs, ys", [
        (fit_exp_decay, [0, 1, 2], [1e300, 2e299, 1e298]),
        (fit_rational_quadratic, [1e-13, 2e-13, 3e-13, 4e-13, 5e-13, 6e-13],
         [1e300, -1e300, 1e300, -1e300, 1e300, -1e300]),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows
    def test_fits_that_find_no_step_are_flagged_non_converged(self, fit, xs, ys):
        assert not fit(xs, ys).converged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_jacobian_lapack_refuses_returns_the_start(self):
        # LAPACK refuses a NaN system with LinAlgError here; a build that
        # returns a NaN step instead ends at the finite-step check, with
        # the same result
        params, converged = _gauss_newton(
            lambda p: p - 1, lambda p: np.full((1, 1), math.nan), np.array([0.0]), lambda p: True
        )
        assert not converged
        assert params.tolist() == [0.0]

    def test_iteration_cap_returns_the_last_iterate(self):
        # residual exp(-p): every full step of +1 is accepted and none is
        # small relative to p, so the loop ends at its 200-iteration cap
        params, converged = _gauss_newton(
            lambda p: np.exp(-p), lambda p: np.exp(-p)[:, None], np.array([0.0]), lambda p: True
        )
        assert not converged
        assert params.tolist() == [200.0]
