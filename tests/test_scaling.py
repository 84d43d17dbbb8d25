"""Tests for the unit-scale reduction and the prototype scaling."""

import numpy as np
import pytest

from hypwhitney.geometry import (
    OPEN_SCALE,
    AdmissiblePair,
    DyadicInterval,
    Strip,
    make_type1_pair,
    pair_sample,
    sample_members,
)
from hypwhitney.scaling import (
    AffineMap2,
    DEFAULT_PROTOTYPE_C0,
    audit_hessian_entry,
    audit_prototype_tv,
    gamma_scaled_audit,
    prototype,
    prototype_tv_stability,
    reduce,
)
from hypwhitney.surface import BASE, PhaseFamily, gamma2, phase_eval, tau

RHO = 2.0**-4
C0 = 32.0


def pair_at(delta, d_steps=512):
    g = RHO * RHO * delta
    pair = make_type1_pair(0.0, -0.75, d_steps * g, 0.75, RHO, delta, C0)
    assert isinstance(pair, AdmissiblePair)
    return pair


class TestAffineMap2:
    def test_apply(self):
        m = AffineMap2([[2.0, 1.0], [0.0, 3.0]], [1.0, -1.0])
        out = m.apply((1.0, 2.0))
        assert out[0] == 5.0 and out[1] == 5.0

    def test_det_and_validation(self):
        assert AffineMap2([[2.0, 0.0], [0.0, 0.5]], [0, 0]).det == 1.0
        with pytest.raises(ValueError):
            AffineMap2([[1.0, 2.0], [2.0, 4.0]], [0, 0])


class TestReduce:
    def test_base_maps_to_origin(self):
        for delta in (2.0**-3, 1.0, 4.0):
            pair = pair_at(delta)
            red = reduce(pair)
            assert tuple(red.map.apply(pair.base1)) == (0.0, 0.0)

    def test_remainder_closed_form(self):
        red = reduce(pair_at(2.0**-3))
        l0, l1, l2 = red.remainder_coeffs
        assert l1 == -0.75
        assert l2 == 0.5625  # x1_0 + y1_0^2
        assert l0 == 0.28125  # -x1_0*y1_0 - (2/3)*y1_0^3

    def test_identity_residual_everywhere(self):
        # the identity is affine-exact globally, not only on the boxes
        rng = np.random.default_rng(2)
        for delta in (2.0**-6, 2.0**-3, 1.0, 4.0):
            red = reduce(pair_at(delta))
            z = rng.uniform(-1, 1, size=(2, 10000))
            assert np.abs(red.residual(z)).max() <= 1e-12

    def test_residual_on_members(self):
        for delta in (2.0**-4, 2.0):
            pair = pair_at(delta)
            red = reduce(pair)
            z1, z2 = sample_members(pair, 5000, seed=3)
            assert np.abs(red.residual(z1.T)).max() <= 1e-12
            assert np.abs(red.residual(z2.T)).max() <= 1e-12

    def test_affine_part_least_squares_oracle(self):
        # recover L by regression of phase(z) - factor*phase_delta(Tz)
        red = reduce(pair_at(2.0**-3))
        rng = np.random.default_rng(4)
        z = rng.uniform(-1, 1, size=(2, 2000))
        target = phase_eval(BASE, z) - red.phase_factor * phase_eval(red.family, red.map.apply(z))
        design = np.column_stack([np.ones(z.shape[1]), z[0], z[1]])
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.abs(coef - np.array(red.remainder_coeffs)).max() <= 1e-9

    def test_image_windows(self):
        # scaled offsets sit in the stated windows for pairs spread over the
        # whole stream
        V1 = Strip(DyadicInterval(-12, RHO))
        V2 = Strip(DyadicInterval(12, RHO))
        for delta in (2.0**-4, 1.0):
            for pair in pair_sample(V1, V2, delta, C0, max_pairs=21):
                red = reduce(pair)
                wedge = min(1.0, delta)
                assert C0 / 2 <= abs(red.scaled_b) <= 2 * C0
                assert C0**2 * wedge / 4 <= abs(red.scaled_a) <= 4 * C0**2 * wedge

    def test_members_map_into_images(self):
        rng = np.random.default_rng(6)
        for delta in (2.0**-5, 2.0**-2, 2.0):
            pair = pair_at(delta)
            red = reduce(pair)
            z1, z2 = sample_members(pair, 3000, seed=5)
            p1 = red.map.apply(z1.T)
            p2 = red.map.apply(z2.T)
            im1, im2 = red.image(1), red.image(2)
            assert im1.contains(*p1).all()
            assert im2.contains(*p2).all()
            assert not im1.contains(*(p1 + np.array([[2.0], [0.0]]))).any()
            assert not im2.contains(*(p2 + np.array([[0.0], [2.0]]))).any()
            # the images' own members, the corner (0, 0) among them
            u, v = rng.random((2, 3000)) * OPEN_SCALE
            u[0] = v[0] = 0.0
            for im in (im1, im2):
                assert im.contains(*im.member(u, v)).all()
        with pytest.raises(ValueError):
            red.image(3)

    def test_image1_corner_exact(self):
        pair = pair_at(2.0**-3)
        red = reduce(pair)
        wedge = min(1.0, pair.delta)
        # the small box's excluded corner, on its top and right walls; `member`
        # clamps offsets 1 below those walls
        small = pair.carrier(1)
        top = small.y0 + small.dy
        corner = (small._left(top) + small.du, top)
        assert small.contains(*small.member(1.0, 1.0)) and not small.contains(*corner)
        mapped = red.map.apply(corner)
        assert mapped[0] == wedge and mapped[1] == wedge
        # the corner itself is excluded by half-openness
        assert not red.image(1).contains(*mapped)

    def test_type2_reduces_via_swap(self):
        p1 = pair_at(2.0**-3)
        q = p1.params
        p2 = make_type1_pair(*q.values(), RHO, 2.0**-3, C0).swapped()
        r1, r2 = reduce(p1), reduce(p2)
        assert r1.scaled_a == r2.scaled_a and r1.scaled_b == r2.scaled_b
        assert r1.remainder_coeffs == r2.remainder_coeffs
        assert np.array_equal(r1.map.linear, r2.map.linear)

    def test_worked_example_coefficients(self):
        red = reduce(pair_at(2.0**-3))
        assert red.remainder_coeffs == (0.28125, -0.75, 0.5625)
        assert red.scaled_b == 24.0


class TestScaledGamma:
    def test_gamma_scaling_identity(self):
        # gamma for the rescaled family at mapped points equals the base
        # gamma times s/rho, s the x-scale factor of T
        rng = np.random.default_rng(6)
        for delta in (2.0**-4, 1.0, 4.0):
            pair = pair_at(delta)
            red = reduce(pair)
            s = 1.0 / (max(1.0, delta) * RHO**2)
            zb = rng.uniform(-1, 1, size=(2, 500))
            z1 = rng.uniform(-1, 1, size=(2, 500))
            z2 = rng.uniform(-1, 1, size=(2, 500))
            lhs = gamma2(red.map.apply(zb), red.map.apply(z1), red.map.apply(z2), family=red.family)
            rhs = (s / RHO) * gamma2(zb, z1, z2, family=BASE)
            scale = np.abs(rhs) + 1.0
            assert (np.abs(lhs - rhs) / scale).max() <= 1e-9

    def test_audit_passes_on_good_pair(self):
        for delta in (2.0**-4, 2.0):
            rep = gamma_scaled_audit(pair_at(delta), 1000, seed=0)
            assert rep.passed and rep.stats["violations"] == 0
            assert 1 / 64 <= rep.stats["base_ratio_1"] <= 64
            assert 1 / 64 <= rep.stats["base_ratio_2"] <= 64

    def test_audit_type2(self):
        pair = pair_at(2.0**-4)
        q = pair.params
        p2 = make_type1_pair(*q.values(), RHO, 2.0**-4, C0).swapped()
        rep = gamma_scaled_audit(p2, 500, seed=1)
        assert rep.passed

    def test_audit_fails_on_corrupted_pair(self):
        # second endpoint value vanishes at the bases: ratio r2 collapses
        bad = AdmissiblePair(
            pair_type=1, rho=RHO, delta=2.0**-4, C0=C0,
            cx1=0.0, cy1=-0.75, ct2=2.25, cy2=0.75,
        )
        rep = gamma_scaled_audit(bad, 2000, seed=0)
        assert not rep.passed
        assert rep.stats["violations"] > 0 or rep.stats["base_ratio_2"] < 1 / 64


class TestPrototype:
    def scene(self, delta=2.0**-4, b=1.0):
        return prototype(delta, DEFAULT_PROTOTYPE_C0, a=delta, b=b)

    def test_valid_scene_and_membership(self):
        sc = self.scene()
        u1, u2 = sc.carrier(1), sc.carrier(2)
        assert u1.contains(0.0, 0.0)
        assert not u1.contains(-1e-12, 0.0)
        assert not u1.contains(sc.c0**2 * sc.delta, 0.0)
        # U2 contains (a - b^2, b) by construction
        assert u2.contains(sc.a - sc.b**2, sc.b)
        assert not u2.contains(sc.a - sc.b**2, sc.b + sc.c0)
        assert sc.family == PhaseFamily.prototype(sc.delta)
        assert sc.scaling_map.det == sc.delta

    def test_parameter_windows(self):
        # the scene gate admits the full sweep range (0, 1/2]
        assert prototype(0.5, DEFAULT_PROTOTYPE_C0, a=0.5, b=1.0).delta == 0.5
        with pytest.raises(ValueError):
            prototype(0.75, DEFAULT_PROTOTYPE_C0, a=0.75, b=1.0)
        with pytest.raises(ValueError):
            prototype(0.0, DEFAULT_PROTOTYPE_C0, a=0.1, b=1.0)
        with pytest.raises(ValueError):
            prototype(2.0**-4, DEFAULT_PROTOTYPE_C0, a=2.0**-4, b=0.1)
        with pytest.raises(ValueError):
            prototype(2.0**-4, DEFAULT_PROTOTYPE_C0, a=2.0**-4, b=3.0)
        with pytest.raises(ValueError):
            prototype(2.0**-4, DEFAULT_PROTOTYPE_C0, a=2.0**-1, b=1.0)
        with pytest.raises(ValueError):
            prototype(2.0**-4, 0.4, a=2.0**-4, b=1.0)

    def test_scaled_samples_in_scaled_sets(self):
        for b in (1.0, -1.0, 2.0):
            sc = self.scene(b=b)
            z1, z2 = sc.sample_scaled(3000, seed=7)
            # U1^s = [0, c0^2) x [0, c0 delta), written out
            x, y = z1
            assert ((0.0 <= x) & (x < sc.c0**2) & (0.0 <= y) & (y < sc.c0 * sc.delta)).all()
            # the scaled sets are the preimages of the carriers under A
            for slot, z in ((1, z1), (2, z2)):
                assert sc.carrier(slot).contains(*sc.scaling_map.apply(z)).all()

    def test_member_tau_of_order_delta(self):
        # first endpoint transversality is comparable to delta at the
        # unscaled members
        for delta in (2.0**-3, 2.0**-6):
            sc = self.scene(delta=delta)
            z1, z2 = sc.sample_scaled(4000, seed=8)
            zu1 = sc.scaling_map.apply(z1)
            zu2 = sc.scaling_map.apply(z2)
            t1 = np.abs(tau(zu1, zu1, zu2))
            assert t1.min() >= delta / 8 and t1.max() <= 8 * delta

    def test_hessian_entry_separation(self):
        for b in (1.0, -1.5):
            sc = self.scene(b=b)
            rep = audit_hessian_entry(sc, 4000, seed=9)
            assert rep.passed
            assert rep.stats["separation_factor"] > 1.0 / (8 * sc.c0)

    def test_tv_audit_single_scene(self):
        rep = audit_prototype_tv(self.scene(), 4000, seed=10)
        assert rep.passed and rep.stats["degenerate"] == 0
        assert rep.stats["tv1_scaled"]["median"] > 0.05
        assert rep.stats["tv2_scaled"]["median"] > 0.05

    def test_tv_medians_stable_across_delta(self):
        reps = {
            d: audit_prototype_tv(self.scene(delta=d), 4000, seed=11)
            for d in (2.0**-3, 2.0**-6)
        }
        m = [r.stats["tv1_scaled"]["median"] for r in reps.values()]
        assert max(m) / min(m) <= 4.0
        m2 = [r.stats["tv2_scaled"]["median"] for r in reps.values()]
        assert max(m2) / min(m2) <= 4.0
        # unscaled medians differ by roughly the delta ratio (here 8)
        u = [r.stats["tv1_unscaled_median"] for r in reps.values()]
        assert 0.25 <= (u[0] / u[1]) / 8.0 <= 4.0

    def test_stability_driver(self):
        deltas = [2.0**-k for k in range(2, 9)]
        rep = prototype_tv_stability(deltas, DEFAULT_PROTOTYPE_C0, 2000, seed=0)
        assert rep.passed
        assert rep.stats["tv1_scaled_spread"] <= 4.0
        assert rep.stats["tv2_scaled_spread"] <= 4.0
        assert abs(rep.stats["unscaled_exponent"] - 1.0) <= 0.15
