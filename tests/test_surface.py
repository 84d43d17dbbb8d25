import math

import numpy as np
import pytest

from hypwhitney.extension import QuadratureSpec, _y_nodes
from hypwhitney.geometry import Carrier
from hypwhitney.surface import (
    BASE,
    PhaseFamily,
    gamma2,
    grad_hess,
    phase_eval,
    tau,
    tv_values,
    _omega_from_gdiff,
)


def hess_inv_quadform(family, z_base, z1, z2):
    # Independent oracle: assemble gradients/Hessian numerically and use
    # linalg.inv instead of the closed-form inverse.
    gh_b = grad_hess(family, z_base)
    g1 = grad_hess(family, z1).grad
    g2 = grad_hess(family, z2).grad
    d = g2 - g1
    return float(d @ np.linalg.inv(gh_b.hess) @ d)


class TestPhaseEval:
    def test_base_at_ones(self):
        assert phase_eval(BASE, (1.0, 1.0)) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_prototype_quarter(self):
        fam = PhaseFamily.prototype(0.25)
        # x*y + y^3/(3*0.25) = 1 + 4/3
        assert phase_eval(fam, (1.0, 1.0)) == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_rescaled_two(self):
        fam = PhaseFamily.rescaled(2.0)
        assert phase_eval(fam, (1.0, 1.0)) == pytest.approx(7.0 / 6.0, rel=1e-15)

    def test_rescaled_small_delta_matches_base(self):
        # divisor is max(1, delta), so delta < 1 leaves the base phase
        fam = PhaseFamily.rescaled(0.125)
        xs = np.linspace(-1, 1, 7)
        for x in xs:
            assert phase_eval(fam, (x, 0.5)) == phase_eval(BASE, (x, 0.5))

    def test_broadcasts(self):
        x = np.linspace(-1, 1, 5)
        y = np.linspace(-1, 1, 5)
        vals = phase_eval(BASE, (x, y))
        assert vals.shape == (5,)
        assert vals[-1] == pytest.approx(4.0 / 3.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            phase_eval(BASE, (float("nan"), 0.0))

    def test_family_validation(self):
        with pytest.raises(ValueError):
            PhaseFamily.prototype(0.0)
        with pytest.raises(ValueError):
            PhaseFamily.prototype(float("inf"))


class TestPhaseFamily:
    def test_cubic_coefficients(self):
        assert BASE == PhaseFamily() and BASE.cubic == 1.0
        assert PhaseFamily.rescaled(4.0).cubic == 0.25
        assert PhaseFamily.rescaled(0.125).cubic == 1.0
        assert PhaseFamily.prototype(0.125).cubic == 8.0
        assert PhaseFamily.prototype(0.3).cubic == 1.0 / 0.3

    @pytest.mark.parametrize("make", [PhaseFamily.rescaled, PhaseFamily.prototype])
    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_constructors_reject_bad_delta(self, make, delta):
        with pytest.raises(ValueError):
            make(delta)

    @pytest.mark.parametrize("cubic", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_cubic(self, cubic):
        with pytest.raises(ValueError):
            PhaseFamily(cubic)

    def test_zero_cubic_is_the_saddle(self):
        saddle = PhaseFamily(0.0)
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 1, size=(2, 20))
        assert np.array_equal(phase_eval(saddle, (x, y)), x * y)
        gh = grad_hess(saddle, (0.3, -0.7))
        assert np.array_equal(gh.hess, [[0.0, 1.0], [1.0, 0.0]]) and gh.det == -1.0
        zb, z1, z2 = rng.uniform(-1, 1, size=(3, 2))
        assert gamma2(zb, z1, z2, saddle) == 2.0 * (z2[1] - z1[1]) * (z2[0] - z1[0])


def divisor_tv_values(m, x1, y1, x2, y2):
    # tv_values written with the cubic divisor m = 1/c
    g1x, g1y = y1, x1 + y1 * y1 / m
    g2x, g2y = y2, x2 + y2 * y2 / m
    dx, dy = g2x - g1x, g2y - g1y
    norm = np.hypot(dx, dy)
    ox, oy = -dy / norm, dx / norm
    sign = np.where((oy < 0) | ((oy == 0) & (ox < 0)), -1.0, 1.0)
    ox, oy = ox * sign, oy * sign
    denom12 = np.sqrt(1.0 + g1x**2 + g1y**2) * np.sqrt(1.0 + g2x**2 + g2y**2)
    out = []
    for yc in (y1, y2):
        wx, wy = oy, ox + 2.0 * yc / m * oy
        out.append((dx * wy - dy * wx) / (denom12 * np.hypot(wx, wy)))
    return tuple(out)


@pytest.mark.parametrize("k", range(-8, 5))
@pytest.mark.parametrize("kind", ["prototype", "rescaled"])
def test_dyadic_scales_match_divisor_formulas(kind, k):
    # On dyadic scales c = 1/m is exact, so every `* c` must round exactly
    # like the divisor form `/ m` it replaces: equality bit for bit.
    delta = 2.0**k
    fam = getattr(PhaseFamily, kind)(delta)
    m = delta if kind == "prototype" else max(1.0, delta)
    rng = np.random.default_rng(k + 100)
    x, y, x2, y2, yb = rng.uniform(-1.5, 1.5, size=(5, 64))
    assert np.array_equal(phase_eval(fam, (x, y)), x * y + y**3 / (3.0 * m))
    for i in range(8):
        gh = grad_hess(fam, (x[i], y[i]))
        assert np.array_equal(gh.grad, [y[i], x[i] + y[i] * y[i] / m])
        assert np.array_equal(gh.hess, [[0.0, 1.0], [1.0, 2.0 * y[i] / m]])
    want = 2.0 * (y2 - y) * ((x2 - x) + (y + y2 - yb) * (y2 - y) / m)
    assert np.array_equal(gamma2((0.0, yb), (x, y), (x2, y2), fam), want)
    got = tv_values(fam, x, y, x2, y2)
    for a, b in zip(got, divisor_tv_values(m, x, y, x2, y2)):
        assert np.array_equal(a, b)
    for car in (Carrier(0.0, 0.5, -0.25, 1.0),
                Carrier(0.125, 2.0**-10, 1.0, 2.0**-5, (0.0, 1.0, 0.0))):
        y_n, _, sy, hy, _ = _y_nodes(car, fam, (64.0, 64.0, 64.0), QuadratureSpec())
        assert np.array_equal(hy, sy * y_n + y_n**3 / (3.0 * m))


class TestGradHess:
    def test_base_point(self):
        gh = grad_hess(BASE, (2.0, 3.0))
        assert np.allclose(gh.grad, [3.0, 11.0])
        assert np.allclose(gh.hess, [[0.0, 1.0], [1.0, 6.0]])
        assert gh.det == pytest.approx(-1.0, abs=0)

    def test_prototype_half(self):
        gh = grad_hess(PhaseFamily.prototype(0.5), (1.0, 1.0))
        assert np.allclose(gh.grad, [1.0, 3.0])
        assert gh.det == pytest.approx(-1.0, abs=0)

    def test_rescaled_four(self):
        gh = grad_hess(PhaseFamily.rescaled(4.0), (0.0, 1.0))
        assert np.allclose(gh.hess, [[0.0, 1.0], [1.0, 0.5]])

    def test_det_is_minus_one_everywhere(self):
        rng = np.random.default_rng(11)
        for fam in (BASE, PhaseFamily.rescaled(8.0), PhaseFamily.prototype(2 ** -6)):
            for _ in range(50):
                z = rng.uniform(-1, 1, size=2)
                assert grad_hess(fam, z).det == pytest.approx(-1.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        fam = PhaseFamily.prototype(0.3)
        z = (0.37, -0.61)
        h = 1e-6
        gh = grad_hess(fam, z)
        fd_x = (phase_eval(fam, (z[0] + h, z[1])) - phase_eval(fam, (z[0] - h, z[1]))) / (2 * h)
        fd_y = (phase_eval(fam, (z[0], z[1] + h)) - phase_eval(fam, (z[0], z[1] - h))) / (2 * h)
        assert gh.grad[0] == pytest.approx(fd_x, abs=1e-8)
        assert gh.grad[1] == pytest.approx(fd_y, abs=1e-8)


class TestTau:
    def test_worked_example(self):
        delta = 0.01
        z1 = (0.0, 0.0)
        z2 = (-1.0 + delta, 1.0)
        assert tau(z1, z1, z2) == pytest.approx(delta, abs=1e-15)
        assert tau(z2, z1, z2) == pytest.approx(-0.99, abs=1e-15)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            zb, z1, z2 = rng.uniform(-1, 1, size=(3, 2))
            assert tau(zb, z1, z2) == pytest.approx(-tau(zb, z2, z1), abs=1e-14)

    def test_endpoint_difference_is_separation_squared(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z1, z2 = rng.uniform(-1, 1, size=(2, 2))
            lhs = tau(z1, z1, z2) - tau(z2, z1, z2)
            assert lhs == pytest.approx((z2[1] - z1[1]) ** 2, abs=1e-14)

    def test_only_base_y_matters(self):
        z1, z2 = (0.1, -0.2), (0.4, 0.7)
        assert tau((0.0, 0.5), z1, z2) == tau((123.0, 0.5), z1, z2)

    def test_broadcasts(self):
        y2 = np.linspace(-1, 1, 9)
        vals = tau((0.0, 0.0), (0.0, 0.0), (0.5, y2))
        assert vals.shape == (9,)
        assert np.allclose(vals, 0.5 + y2 * y2)


class TestGamma:
    def test_worked_value(self):
        assert gamma2((0.0, 0.0), (0.0, 0.0), (1.0, 1.0)) == pytest.approx(4.0, abs=1e-15)

    def test_matches_linalg_oracle_base(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            zb, z1, z2 = rng.uniform(-1, 1, size=(3, 2))
            expect = hess_inv_quadform(BASE, zb, z1, z2)
            assert gamma2(zb, z1, z2) == pytest.approx(expect, abs=1e-12)

    def test_matches_linalg_oracle_prototype(self):
        rng = np.random.default_rng(8)
        fam = PhaseFamily.prototype(0.05)
        for _ in range(200):
            zb, z1, z2 = rng.uniform(-1, 1, size=(3, 2))
            expect = hess_inv_quadform(fam, zb, z1, z2)
            assert gamma2(zb, z1, z2, family=fam) == pytest.approx(expect, rel=1e-10, abs=1e-10)

    def test_equals_twice_separation_times_tau(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            zb, z1, z2 = rng.uniform(-1, 1, size=(3, 2))
            expect = 2.0 * (z2[1] - z1[1]) * tau(zb, z1, z2)
            assert gamma2(zb, z1, z2) == pytest.approx(expect, abs=1e-13)


def unit_tangent(d):
    # Unit vector orthogonal to d with a positive second component, ties
    # broken toward a positive first component.
    omega = np.array([-d[1], d[0]]) / np.hypot(d[0], d[1])
    if omega[1] < 0 or (omega[1] == 0 and omega[0] < 0):
        omega = -omega
    return omega


class TestTransversality:
    def test_worked_example_magnitudes(self):
        delta = 1e-3
        tv1, tv2 = tv_values(BASE, 0.0, 0.0, -1.0 + delta, 1.0)
        assert abs(tv1) == pytest.approx(math.sqrt(2.0) * delta, rel=2e-3)
        assert abs(tv2) == pytest.approx(2.0 / math.sqrt(10.0), rel=2e-3)

    def test_omega_orthogonal_to_gradient_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            z1, z2 = rng.uniform(-1, 1, size=(2, 2))
            d = grad_hess(BASE, z2).grad - grad_hess(BASE, z1).grad
            omega = np.array(_omega_from_gdiff(d[0], d[1]))
            assert float(omega @ d) == pytest.approx(0.0, abs=1e-12)
            assert float(omega @ omega) == pytest.approx(1.0, rel=1e-12)
            assert np.array_equal(omega, unit_tangent(d))

    def test_omega_sign_convention(self):
        ox, oy = _omega_from_gdiff(0.5, -1.25)
        assert oy > 0
        # gradient difference along the x-axis only: omega = (0, 1)
        assert _omega_from_gdiff(-1.0, 0.0) == (0.0, 1.0)
        # along the y-axis only, the tie goes to a positive first component
        assert _omega_from_gdiff(0.0, 2.0) == (1.0, 0.0)
        assert _omega_from_gdiff(0.0, -2.0) == (1.0, 0.0)

    def test_matrix_oracle(self):
        # Recompute tv_i with matrix operations: the numerator is the 2x2
        # determinant of rows (grad2 - grad1) and H(z_i) omega, normalized by
        # the two graph-normal lengths and |H omega|.
        rng = np.random.default_rng(22)
        for fam in (BASE, PhaseFamily.prototype(0.2)):
            pts = rng.uniform(-1, 1, size=(200, 4))
            tv1, tv2 = tv_values(fam, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
            for k, (z1, z2) in enumerate(zip(pts[:, :2], pts[:, 2:])):
                g1 = grad_hess(fam, z1).grad
                g2 = grad_hess(fam, z2).grad
                d = g2 - g1
                if np.hypot(d[0], d[1]) < 1e-6:
                    continue
                omega = unit_tangent(d)
                denom = math.sqrt(1.0 + g1 @ g1) * math.sqrt(1.0 + g2 @ g2)
                for z, tv in ((z1, tv1[k]), (z2, tv2[k])):
                    w = grad_hess(fam, z).hess @ omega
                    det = float(np.linalg.det(np.vstack([d, w])))
                    assert tv == pytest.approx(det / (denom * np.linalg.norm(w)), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-1, 1, size=(50, 4))
        fam = PhaseFamily.prototype(2.0**-3)
        tv1, tv2 = tv_values(fam, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
        for k in range(50):
            s1, s2 = tv_values(fam, *pts[k])
            assert tv1[k] == pytest.approx(float(s1), abs=1e-14)
            assert tv2[k] == pytest.approx(float(s2), abs=1e-14)

    def test_vectorized_degenerate_is_nan(self):
        tv1, tv2 = tv_values(BASE, np.array([0.1]), np.array([0.2]), np.array([0.1]), np.array([0.2]))
        assert np.isnan(tv1[0]) and np.isnan(tv2[0])
