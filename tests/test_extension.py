"""Quadrature oracles, norm plumbing, and sumset audits."""

import dataclasses
import json
import math

import numpy as np
import pytest

from hypwhitney import extension
from hypwhitney.extension import (
    FrequencyField,
    QuadratureSpec,
    UnresolvedOscillation,
    _cube_multiplicity,
    audit_sumset_cubes,
    audit_sumset_x,
    bilinear_field,
    extend_grid,
    extend_points,
    lp_norm,
    sumset_cube_stability,
)
from hypwhitney.geometry import (
    OPEN_SCALE,
    Carrier,
    DyadicInterval,
    Strip,
    _check_strips,
    _sample_pairs,
    make_type1_pair,
)
from hypwhitney.reports import AuditReport
from hypwhitney.scaling import prototype
from hypwhitney.surface import BASE, PhaseFamily, phase_eval

RHO = 2.0**-4
C0 = 32.0
V1 = Strip(DyadicInterval(-12, RHO))
V2 = Strip(DyadicInterval(12, RHO))
QUAD = QuadratureSpec()


def sample_pair(delta=2.0**-4, d=1536):
    g = RHO * RHO * delta
    pair = make_type1_pair(-4 * g, -0.75, (d - 4) * g, 0.75, RHO, delta, C0)
    assert hasattr(pair, "pair_type"), pair
    return pair


def closed_rect(a, b, xi):
    # int_a^b exp(-i xi t) dt
    if xi == 0:
        return b - a
    return (b - a) * np.exp(-1j * xi * (a + b) / 2) * np.sinc(xi * (b - a) / (2 * math.pi))


def dense_field(car, family, field, quad):
    """`extend_points` at every point of the grid of field."""
    mesh = np.meshgrid(*field.axes, indexing="ij")
    xis = np.column_stack([m.ravel() for m in mesh])
    return extend_points(car, family, xis, quad).reshape(field.values.shape)


def unit_offsets(n, seed):
    """n offset pairs (u, v) in [0, OPEN_SCALE)^2, the first at the corner (0, 0)."""
    u, v = np.random.default_rng(seed).random((2, n)) * OPEN_SCALE
    u[0] = v[0] = 0.0
    return u, v


class TestCarrier:
    def test_rectangle_area(self):
        car = Carrier(-0.25, 1.0, 0.0, 0.5)
        assert car.area == pytest.approx(0.5)

    def test_pair_carriers_match_membership(self):
        # both types: the canonical members lie in the slot carriers, and
        # the carriers' own members too
        for pair in (sample_pair(), sample_pair().swapped(), sample_pair(4.0).swapped()):
            c1, c2 = pair.carrier(1), pair.carrier(2)
            rng = np.random.default_rng(5)
            offs = rng.random((4, 300))
            (x1, y1), (x2, y2) = pair.member_at(offs * OPEN_SCALE)
            assert c1.contains(x1, y1).all()
            assert c2.contains(x2, y2).all()
            assert not c1.contains(x2, y2).any()
            for car in (c1, c2):
                assert car.contains(*car.member(*unit_offsets(300, 6))).all()
        with pytest.raises(ValueError):
            sample_pair().carrier(3)

    def test_type2_slots_swap(self):
        pair = sample_pair().swapped()
        c1 = pair.carrier(1)
        assert c1.dy == pytest.approx(pair.rho)  # slot 1 is now the long box

    def test_prototype_carriers(self):
        sc = prototype(2.0**-3, 2.0**-5, 2.0**-3, 1.0)
        c1 = sc.carrier(1)
        c2 = sc.carrier(2)
        assert c1.area == pytest.approx(sc.c0**3 * sc.delta**2)
        rng = np.random.default_rng(2)
        y = sc.b + rng.random(100) * sc.c0
        x = sc.a - y * y + rng.random(100) * sc.c0**2 * sc.delta
        assert c2.contains(x, y).all()
        # the carriers' members, unscaled and as the scaled samples mapped back by A
        for car in (c1, c2):
            assert car.contains(*car.member(*unit_offsets(300, 3))).all()
        for car, z in zip((c1, c2), sc.sample_scaled(300, seed=4)):
            assert car.contains(*sc.scaling_map.apply(z)).all()
        with pytest.raises(ValueError):
            sc.carrier(0)

    def test_subbox(self):
        car = Carrier(0.0, 1.0, 0.0, 1.0)
        sub = car.subbox((0.25, 0.5), (0.0, 1.0))
        assert (sub.u0, sub.du, sub.y0, sub.dy) == (0.25, 0.25, 0.0, 1.0)
        assert sub.area == pytest.approx(0.25)
        with pytest.raises(ValueError):
            car.subbox((0.5, 0.5), (0, 1))


class TestExtendOracles:
    def test_zero_frequency_gives_area(self):
        carriers = [
            Carrier(0.0, 1.0, 0.0, 1.0),
            sample_pair().carrier(1),
            sample_pair().carrier(2),
            prototype(2.0**-4, 2.0**-5, 2.0**-4, 1.0).carrier(2),
        ]
        for car in carriers:
            v = extend_points(car, BASE, (0.0, 0.0, 0.0), QUAD)[0]
            assert abs(v - car.area) <= 1e-10 * max(1.0, car.area)

    def test_flat_slice_matches_product_of_line_integrals(self):
        f = Carrier(-0.5, 1.25, 0.25, 0.75)
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.normal(scale=20.0, size=2)
            got = extend_points(f, BASE, (a, b, 0.0), QUAD)[0]
            want = closed_rect(-0.5, 0.75, a) * closed_rect(0.25, 1.0, b)
            assert abs(got - want) <= 1e-12

    def test_full_period_vanishes(self):
        f = Carrier(0.0, 1.0, 0.0, 1.0)
        assert abs(extend_points(f, BASE, (2 * math.pi, 0.0, 0.0), QUAD)[0]) <= 1e-13

    def test_conjugate_symmetry(self):
        f = sample_pair().carrier(2)
        rng = np.random.default_rng(3)
        xis = rng.normal(scale=30.0, size=(25, 3))
        plus = extend_points(f, BASE, xis, QUAD)
        minus = extend_points(f, BASE, -xis, QUAD)
        assert np.abs(minus - np.conj(plus)).max() <= 1e-13

    def test_modulus_bounded_by_area(self):
        pair = sample_pair()
        for slot in (1, 2):
            car = pair.carrier(slot)
            xis = np.random.default_rng(slot).normal(scale=200.0, size=(50, 3))
            vals = extend_points(car, BASE, xis, QUAD)
            assert np.abs(vals).max() <= car.area * (1 + 1e-12)

    def test_linearity_partition(self):
        car = sample_pair().carrier(2)
        parts = [
            car.subbox((a, a + 0.5), (c, c + 0.5))
            for a in (0.0, 0.5)
            for c in (0.0, 0.5)
        ]
        xis = np.array([[0.0, 0.0, 0.0], [7.0, -3.0, 11.0], [40.0, 25.0, -60.0]])
        vw = extend_points(car, BASE, xis, QUAD)
        vp = sum(extend_points(p, BASE, xis, QUAD) for p in parts)
        assert np.abs(vw - vp).max() <= 1e-12

    def test_translation_covariance(self):
        # shifting the carrier in x multiplies the value by a unimodular
        # factor and shears the frequency: ext_shift(xi) =
        # exp(-i xi1 dx) ext(xi1, xi2 + dx*xi3, xi3)
        dx = 0.375
        base_car = Carrier(0.0, 0.5, 0.25, 0.5)
        shift_car = Carrier(dx, 0.5 + dx - dx, 0.25, 0.5)
        rng = np.random.default_rng(9)
        for _ in range(10):
            xi = rng.normal(scale=15.0, size=3)
            got = extend_points(shift_car, BASE, xi, QUAD)[0]
            want = np.exp(-1j * xi[0] * dx) * extend_points(
                base_car, BASE, (xi[0], xi[1] + dx * xi[2], xi[2]), QUAD
            )[0]
            assert abs(got - want) <= 1e-10
            assert abs(abs(got) - abs(want)) <= 1e-12

    def test_refinement_stable_at_moderate_frequency(self):
        rng = np.random.default_rng(17)
        xis = rng.normal(size=(40, 3))
        xis *= (64.0 * rng.random((40, 1))) / np.linalg.norm(xis, axis=1, keepdims=True)
        for car in (Carrier(0.0, 1.0, 0.0, 1.0), sample_pair().carrier(2)):
            v1 = extend_points(car, BASE, xis, QUAD)
            v2 = extend_points(car, BASE, xis, QUAD.refine())
            assert np.abs(v1 - v2).max() <= 1e-8

    def test_unresolved_oscillation_raises(self):
        f = Carrier(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(UnresolvedOscillation):
            extend_points(f, BASE, (0.0, 0.0, 2.0**25), QUAD)

    @pytest.mark.parametrize("xi", [(math.inf, 0.0, 0.0), (1e308,) * 3])
    def test_unbounded_slope_is_unresolved(self, xi):
        # a phase slope past the float range needs unboundedly many panels
        with pytest.raises(UnresolvedOscillation, match="unboundedly many panels"):
            extend_points(sample_pair().carrier(2), BASE, [xi], QUAD)

    def test_unbounded_truncation_is_unresolved(self):
        with pytest.raises(UnresolvedOscillation, match="unboundedly many panels"):
            extend_grid(sample_pair().carrier(2), BASE, QuadratureSpec(truncation=(1e308,) * 3))

    @pytest.mark.parametrize("bad", [
        {"nodes_per_panel": 0},
        {"refinement": 0},
        {"node_budget": 0},
        {"max_panel_phase": 0.0},
        {"max_panel_phase": -1.0},
        {"truncation": (1.0, 1.0)},
        {"truncation": (1.0, 0.0, 1.0)},
        {"freq_grid": (8, 8, 8, 8)},
        {"freq_grid": (8, -8, 8)},
        {"freq_grid": (4.5, 4, 4)},
        {"freq_grid": (4.0, 4, 4)},
        {"freq_grid": (True, 4, 4)},
        {"truncation": (math.inf,) * 3},
        {"truncation": (1.0, math.nan, 1.0)},
        {"max_panel_phase": math.inf},
        {"max_panel_phase": math.nan},
        {"nodes_per_panel": 2.5},
        {"refinement": 1.5},
        {"node_budget": 2.0**20},
    ])
    def test_quadrature_spec_validated(self, bad):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)

    def test_quadrature_spec_takes_numpy_scalars(self):
        quad = QuadratureSpec(truncation=tuple(np.full(3, 8.0)), freq_grid=tuple(np.full(3, 4)),
                              nodes_per_panel=np.int64(4), max_panel_phase=np.float64(1.0))
        f = Carrier(0.0, 1.0, 0.0, 1.0)
        assert extend_grid(f, BASE, quad).values.shape == (4, 4, 4)

    def test_points_blocks_are_bounded(self, monkeypatch):
        # extend_points works in blocks of at most GRID_BLOCK (point, y-node)
        # elements, at least one point each; the block size changes only the
        # rounding of the product over y (a one-row block takes another BLAS
        # path), by a few units in the last place
        f = sample_pair().carrier(2)
        xis = np.random.default_rng(13).normal(scale=40.0, size=(50, 3))
        whole = extend_points(f, BASE, xis, QUAD)
        sizes = []
        sinc = np.sinc

        def spy(x):
            sizes.append(x.size)
            return sinc(x)

        monkeypatch.setattr(np, "sinc", spy)
        ny = extension._y_nodes(f, BASE, np.abs(xis).max(axis=0), QUAD)[0].size
        for block in (1, ny, 3 * ny + 1, 7 * ny):
            monkeypatch.setattr(extension, "GRID_BLOCK", block)
            sizes.clear()
            vals = extend_points(f, BASE, xis, QUAD)
            assert np.abs(vals - whole).max() <= 1e-14 * np.abs(whole).max()
            rows = max(1, block // ny)
            assert sizes == [min(rows, 50 - lo) * ny for lo in range(0, 50, rows)]

    def test_flat_slice_plancherel(self):
        # (2 pi)^-2 int |F(xi1, xi2, 0)|^2 over a large box recovers the area
        f = Carrier(0.0, 1.0, 0.0, 1.0)
        R, n = 128.0, 256
        ax = -R + (2 * R / n) * (np.arange(n) + 0.5)
        g1, g2 = np.meshgrid(ax, ax, indexing="ij")
        xis = np.column_stack([g1.ravel(), g2.ravel(), np.zeros(n * n)])
        vals = extend_points(f, BASE, xis, QUAD)
        mass = (np.abs(vals) ** 2).sum() * (2 * R / n) ** 2 / (2 * math.pi) ** 2
        assert mass == pytest.approx(1.0, abs=0.03)

    def test_cubic_divisor_changes_value(self):
        f = Carrier(0.0, 1.0, 0.0, 1.0)
        xi = (0.0, 0.0, 40.0)
        v_base = extend_points(f, BASE, xi, QUAD)[0]
        v_proto = extend_points(f, PhaseFamily.prototype(2.0**-3), xi, QUAD)[0]
        assert abs(v_base - v_proto) > 1e-3


class TestGridAndNorms:
    def test_grid_axes_are_midpoints(self):
        quad = QuadratureSpec(truncation=(4.0, 2.0, 1.0), freq_grid=(4, 2, 2))
        f = Carrier(0.0, 1.0, 0.0, 1.0)
        field = extend_grid(f, BASE, quad)
        assert np.allclose(field.axes[0], [-3.0, -1.0, 1.0, 3.0])
        assert np.allclose(field.axes[1], [-1.0, 1.0])
        assert field.values.shape == (4, 2, 2)
        xi = (field.axes[0][1], field.axes[1][0], field.axes[2][1])
        spot = extend_points(f, BASE, xi, quad)[0]
        assert abs(field.values[1, 0, 1] - spot) <= 1e-13

    def test_lp_norm_of_flat_field(self):
        axes = (np.linspace(-1, 1, 8), np.linspace(-1, 1, 8), np.linspace(-1, 1, 8))
        field = FrequencyField(axes, np.full((8, 8, 8), 2.0 + 0j), (1.0, 1.0, 1.0))
        est = lp_norm(field, 2.0)
        assert est.value == pytest.approx((4.0 * 8.0) ** 0.5)
        assert est.refinement_delta <= 1e-12

    def test_lp_norm_of_flat_field_on_odd_grid(self):
        shape = (3, 5, 1)
        axes = tuple(np.linspace(-1, 1, n) for n in shape)
        field = FrequencyField(axes, np.full(shape, 2.0 + 0j), (1.0, 1.0, 1.0))
        est = lp_norm(field, 2.0)
        assert est.value == pytest.approx((4.0 * 8.0) ** 0.5)
        assert est.refinement_delta <= 1e-12

    def test_grid_matches_dense_oracle_for_sheared_boxes(self):
        pair = sample_pair()
        quad = QuadratureSpec(truncation=(96.0, 48.0, 64.0), freq_grid=(5, 7, 4))
        for slot in (1, 2):
            f = pair.carrier(slot)
            field = extend_grid(f, BASE, quad)
            g = np.meshgrid(*field.axes, indexing="ij")
            dense = extend_points(f, BASE, np.column_stack([a.ravel() for a in g]), quad)
            dense = dense.reshape(field.values.shape)
            assert np.abs(field.values - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_grid_where_the_sinc_argument_is_zero(self):
        # odd grids with dyadic steps hold xi1 = xi3 = 0 exactly, so there
        # om = 0 at every y-node and sin(t)/t would be 0/0
        pair = sample_pair()
        quad = QuadratureSpec(truncation=(10.0, 6.0, 5.0), freq_grid=(5, 3, 5))
        for slot in (1, 2):
            f = pair.carrier(slot)
            field = extend_grid(f, BASE, quad)
            assert 0.0 in field.axes[0] and 0.0 in field.axes[2]
            assert np.isfinite(field.values).all()
            dense = dense_field(f, BASE, field, quad)
            assert np.abs(field.values - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 3), (2, 4)])
    def test_grid_blocks_match_dense_oracle(self, monkeypatch, rows, cols):
        # a budget of rows*cols*ny elements makes blocks of rows xi1 by cols
        # xi3 values; the 5 x 4 grid leaves a short last block on an axis
        pair = sample_pair()
        quad = QuadratureSpec(truncation=(96.0, 48.0, 64.0), freq_grid=(5, 7, 4))
        f = pair.carrier(2)
        nodes = []
        real = extension._y_nodes

        def recording(*args):
            out = real(*args)
            nodes.append(out[0].size)
            return out

        monkeypatch.setattr(extension, "_y_nodes", recording)
        extend_grid(f, BASE, quad)
        monkeypatch.setattr(extension, "GRID_BLOCK", rows * cols * nodes[0])
        field = extend_grid(f, BASE, quad)
        dense = dense_field(f, BASE, field, quad)
        assert np.abs(field.values - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_bilinear_field_is_the_product_of_the_box_extensions(self):
        # one admissible pair and one prototype scene, each with its family
        quad = QuadratureSpec(truncation=(8.0, 8.0, 8.0), freq_grid=(4, 4, 4))
        scene = prototype(2.0**-3, 2.0**-5, 2.0**-3, 1.0)
        for pair, family in ((sample_pair(), BASE), (scene, scene.family)):
            field = bilinear_field(pair, family, quad)
            e1, e2 = (extend_grid(pair.carrier(slot), family, quad) for slot in (1, 2))
            assert (field.values == e1.values * e2.values).all()
            assert all((a == b).all() for a, b in zip(field.axes, e1.axes))
            assert field.truncation == quad.truncation


class TestSumsetX:
    def test_stated_windows_hold(self):
        rep = audit_sumset_x(V1, V2, C0, 2.0**-4, 20000, 101)
        assert rep.passed and rep.samples == 20000
        assert rep.stats["violations"] == 0
        assert rep.stats["max_x_offset"] <= 10 * C0 * C0 * RHO * RHO
        lo, hi = rep.stats["y_sum_range"]
        assert 0.0 <= lo and hi <= 2 * C0 * RHO

    def test_all_criterion_scales_pass(self):
        for k in range(3, 7):
            rep = audit_sumset_x(V1, V2, C0, 2.0**-k, 4000, 7 * k)
            assert rep.passed, (k, rep.stats)

    def test_shrunken_windows_fail(self):
        rep = audit_sumset_x(V1, V2, C0, 2.0**-4, 20000, 101, window_shrink=64.0)
        assert not rep.passed
        assert rep.stats["violations"] > 0
        assert rep.failures  # concrete counterexamples retained

    def test_determinism(self):
        a = audit_sumset_x(V1, V2, C0, 2.0**-5, 3000, 55)
        b = audit_sumset_x(V1, V2, C0, 2.0**-5, 3000, 55)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_large_delta_rejected(self):
        with pytest.raises(ValueError):
            audit_sumset_x(V1, V2, C0, 0.5, 100, 1)


class TestSumsetCubes:
    def test_rescaled_y_offsets_stay_small(self):
        # the y-part of the dilated sum is within 2 delta of the base image
        # by construction; this isolates the axis that does meet the bound
        delta = 2.0**-4
        rep = audit_sumset_cubes(V1, V2, C0, delta, 4000, 23)
        assert rep.samples == 4000
        assert rep.stats["tuples"] > 0

    def test_side_4delta_is_violated_at_these_constants(self):
        # the audited claim hides separation-dependent constants: the
        # observed enclosing cube is ~C0^2 delta per side, so the literal
        # 4 delta containment fails and is reported as such
        rep = audit_sumset_cubes(V1, V2, C0, 2.0**-4, 20000, 23)
        assert not rep.passed
        assert rep.stats["violations"] > 0
        assert rep.stats["min_enclosing_side_over_delta"] > 4.0
        assert rep.failures

    def test_wide_cube_contains_everything(self):
        # positive control: the same construction passes once the cube is
        # allowed the observed C0-dependent width
        rep = audit_sumset_cubes(V1, V2, C0, 2.0**-4, 20000, 23, side_factor=2048.0)
        assert rep.passed
        assert rep.stats["violations"] == 0

    def test_multiplicity_delta_stable(self):
        rep = sumset_cube_stability(V1, V2, C0, [2.0**-k for k in range(3, 7)], 4000, 31)
        assert rep.stats["multiplicity_stable"]
        mults = rep.stats["max_multiplicities"]
        assert max(mults) <= 2 * max(1, min(mults))
        # containment at side 4 delta stays red at every scale
        assert not rep.stats["containment_all"]
        assert not rep.passed

    def test_determinism(self):
        a = audit_sumset_cubes(V1, V2, C0, 2.0**-4, 2000, 77)
        b = audit_sumset_cubes(V1, V2, C0, 2.0**-4, 2000, 77)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )


def loop_sumset_x(V1, V2, C0, delta, n, seed, window_shrink=1.0):
    """One pair at a time, with Python-int column arithmetic: the oracle of
    the batched `audit_sumset_x`, at its members per pair."""
    members_per_pair = extension.SUMSET_X_MEMBERS
    delta = float(delta)
    rho, C0 = _check_strips(V1, V2, C0)
    rng = np.random.default_rng(seed)
    n_pairs = max(1, n // members_per_pair)
    pairs = _sample_pairs(rng, V1, V2, C0, delta, n_pairs)
    x_half = 10.0 * C0 * C0 * rho * rho / window_shrink
    y_hi = 2.0 * C0 * rho / window_shrink
    failures = []
    violations = 0
    checked = 0
    max_x_off = 0.0
    max_y_sum = -math.inf
    min_y_sum = math.inf
    for pair in pairs:
        take = min(members_per_pair, n - checked)
        if take <= 0:
            break
        offs = rng.random((4, take)) * OPEN_SCALE
        (x1, y1), (x2, y2) = pair.member_at(offs)
        i = int(round(pair.cx1 / (rho * rho * delta)))
        N = math.floor(i * delta)
        x_off = np.abs(x1 + x2 - 2.0 * N * rho * rho)
        y_sum = y1 + y2
        max_x_off = max(max_x_off, float(x_off.max()))
        max_y_sum = max(max_y_sum, float(y_sum.max()))
        min_y_sum = min(min_y_sum, float(y_sum.min()))
        bad = (x_off > x_half) | (y_sum < 0.0) | (y_sum > y_hi)
        violations += int(bad.sum())
        for t in np.nonzero(bad)[0][:5 - len(failures)]:
            failures.append({
                "z1": [float(x1[t]), float(y1[t])],
                "z2": [float(x2[t]), float(y2[t])],
                "N": N,
                "x_offset": float(x_off[t]),
                "y_sum": float(y_sum[t]),
            })
        checked += take
    return AuditReport(
        name="sumset_x_window",
        passed=violations == 0,
        samples=checked,
        stats={
            "delta": delta,
            "violations": violations,
            "x_window_halfwidth": x_half,
            "y_window": [0.0, y_hi],
            "max_x_offset": max_x_off,
            "y_sum_range": [min_y_sum, max_y_sum],
        },
        failures=failures,
    )


def loop_sumset_cubes(V1, V2, C0, delta, n, seed, side_factor=4.0):
    """One tuple at a time, with scalar base sums and a set of tuple keys:
    the oracle of the batched `audit_sumset_cubes`, at its members per tuple
    and multiplicity points."""
    members_per_tuple = extension.SUMSET_CUBE_MEMBERS
    multiplicity_points = extension.CUBE_MULTIPLICITY_POINTS
    delta = float(delta)
    rho, C0 = _check_strips(V1, V2, C0)
    rng = np.random.default_rng(seed)
    n_tuples = max(1, n // members_per_tuple)
    pairs = _sample_pairs(rng, V1, V2, C0, delta, n_tuples, x_band=True)
    slab = rho * delta
    slabs_per_box = int(round(1.0 / delta))
    half = side_factor * delta / 2.0

    centers = []
    points = []
    failures = []
    violations = 0
    checked = 0
    max_off = 0.0
    seen = set()
    for pair in pairs:
        k0 = int(round(pair.cy2 / slab))
        k = k0 + int(rng.integers(slabs_per_box))
        y2k = k * slab
        # the tuple's slab of the long box, a box of its own
        slab_box = dataclasses.replace(pair.carrier(2), y0=y2k, dy=slab)
        z2k = slab_box.member(0.0, 0.0)
        base_z = float(phase_eval(BASE, (pair.cx1, pair.cy1)) + phase_eval(BASE, z2k))
        center = ((pair.cx1 + z2k[0]) / rho**2, (pair.cy1 + y2k) / rho, base_z / rho**3)
        key = (pair.cx1, pair.cy1, pair.ct2, k)
        if key not in seen:
            seen.add(key)
            centers.append(center)

        take = min(members_per_tuple, n - checked)
        if take <= 0:
            break
        offs = rng.random((4, take)) * OPEN_SCALE
        x1, y1 = pair.carrier(1).member(offs[0], offs[1])
        x2, y2 = slab_box.member(offs[2], offs[3])
        w = np.stack([(x1 + x2) / rho**2, (y1 + y2) / rho,
                      (phase_eval(BASE, (x1, y1)) + phase_eval(BASE, (x2, y2))) / rho**3], axis=1)
        off = np.abs(w - center).max(axis=1)
        max_off = max(max_off, float(off.max()))
        bad = off > half + 1e-12
        violations += int(bad.sum())
        for t in np.nonzero(bad)[0][:5 - len(failures)]:
            failures.append({
                "z1": [float(x1[t]), float(y1[t])],
                "z2": [float(x2[t]), float(y2[t])],
                "offset_over_delta": float(off[t] / delta),
            })
        if len(points) * members_per_tuple < multiplicity_points:
            points.append(w)
        checked += take

    pts = np.concatenate(points, axis=0)[:multiplicity_points]
    mult = _cube_multiplicity(pts, np.asarray(centers), half + 1e-12)
    return AuditReport(
        name="sumset_cubes",
        passed=violations == 0,
        samples=checked,
        stats={
            "delta": delta,
            "cube_side": side_factor * delta,
            "violations": violations,
            "tuples": len(seen),
            "max_offset_over_delta": max_off / delta,
            "min_enclosing_side_over_delta": 2.0 * max_off / delta,
            "max_multiplicity": int(mult.max()),
            "mean_multiplicity": float(mult.mean()),
        },
        failures=failures,
    )


SAMPLE_SIZES = (1, 3, 4, 5, 9, 37, 2000)


class TestBatchedAuditsMatchLoops:
    """The batched sumset audits against the per-pair loops, key for key and
    bit for bit: both consume the generator in the same order.  The loops
    read the audits' member and point constants, which the variants patch."""

    @pytest.mark.parametrize("n", SAMPLE_SIZES)
    @pytest.mark.parametrize("k", range(3, 7))
    def test_sumset_x(self, k, n, monkeypatch):
        for seed, members, kwargs in ((5 * n + k, 8, {}), ([k, n], 3, {}),
                                      (n, 1, dict(window_shrink=2.0))):
            monkeypatch.setattr(extension, "SUMSET_X_MEMBERS", members)
            want = loop_sumset_x(V1, V2, C0, 2.0**-k, n, seed, **kwargs).to_json_dict()
            assert audit_sumset_x(V1, V2, C0, 2.0**-k, n, seed, **kwargs).to_json_dict() == want

    @pytest.mark.parametrize("n", SAMPLE_SIZES)
    @pytest.mark.parametrize("k", range(1, 7))
    def test_sumset_cubes(self, k, n, monkeypatch):
        for seed, members, points, kwargs in ((5 * n + k, 4, 4096, {}), ([k, n], 3, 4096, {}),
                                              (n, 5, 1003, dict(side_factor=64.0))):
            monkeypatch.setattr(extension, "SUMSET_CUBE_MEMBERS", members)
            monkeypatch.setattr(extension, "CUBE_MULTIPLICITY_POINTS", points)
            want = loop_sumset_cubes(V1, V2, C0, 2.0**-k, n, seed, **kwargs).to_json_dict()
            assert audit_sumset_cubes(V1, V2, C0, 2.0**-k, n, seed, **kwargs).to_json_dict() == want

    def test_capped_failures_in_pair_order(self):
        # shrunken windows: thousands of violations, the first five kept
        for seed in (101, 102):
            want = loop_sumset_x(V1, V2, C0, 2.0**-4, 2000, seed, window_shrink=64.0)
            got = audit_sumset_x(V1, V2, C0, 2.0**-4, 2000, seed, window_shrink=64.0)
            assert want.stats["violations"] > 5 and len(want.failures) == 5
            assert got.to_json_dict() == want.to_json_dict()
        want = loop_sumset_cubes(V1, V2, C0, 2.0**-4, 2000, 23)
        assert want.stats["violations"] > 5 and len(want.failures) == 5
        assert audit_sumset_cubes(V1, V2, C0, 2.0**-4, 2000, 23).to_json_dict() == want.to_json_dict()

    def test_criterion_sized_run(self):
        want = loop_sumset_cubes(V1, V2, C0, 2.0**-3, 20000, 88)
        got = audit_sumset_cubes(V1, V2, C0, 2.0**-3, 20000, 88)
        assert got.to_json_dict() == want.to_json_dict()


def tuple_draws_oracle(rng, count, slabs, take):
    """`_tuple_draws` one tuple at a time with scalar `rng.integers` and
    `rng.random` draws: the loop the stream replay replaced."""
    slab_draws, offsets = [], []
    for _ in range(count):
        slab_draws.append(rng.integers(slabs))
        offsets.append(rng.random((4, take)))
    return np.array(slab_draws), np.array(offsets) * OPEN_SCALE


class TestTupleDraws:
    """The replayed `_tuple_draws` against the per-tuple loop: equal arrays,
    and generators left in one state."""

    def assert_same(self, seed, count, slabs, take, buffered):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            fast.integers(7), slow.integers(7)
        for got, want in zip(extension._tuple_draws(fast, count, slabs, take),
                             tuple_draws_oracle(slow, count, slabs, take)):
            assert np.array_equal(got, want) and (got.dtype, got.shape) == (want.dtype, want.shape)
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.integers(10**6) == slow.integers(10**6) and fast.random() == slow.random()

    @pytest.mark.parametrize("k", range(3, 7))
    def test_audit_calls_match_loop(self, k):
        # the cube audit's draws at each default scale, 5,000 tuples of 4
        # members in 21 passes, over 20 seeds, every other one buffered
        for seed in range(20):
            self.assert_same(seed, 5000, 2**k, 4, buffered=seed % 2)

    @pytest.mark.parametrize("slabs", [2, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32, 2**40])
    def test_odd_counts_and_rejections(self, slabs):
        # odd counts end a pass on a buffered word; 3*2^30 and 2^31 + 1 reject
        # about a quarter and a half of their words, 2^32 and above are
        # drawn one tuple at a time
        for count in (1, 2, 3, 7, 600):
            for take in (1, 3):
                self.assert_same(count + take, count, slabs, take, buffered=count % 3 == 1)


@pytest.mark.parametrize("audit", [
    lambda n: audit_sumset_x(V1, V2, C0, 2.0**-4, n, 1),
    lambda n: audit_sumset_cubes(V1, V2, C0, 2.0**-4, n, 1),
    lambda n: sumset_cube_stability(V1, V2, C0, [2.0**-4, 2.0**-5], n, 1),
], ids=["sumset_x", "sumset_cubes", "sumset_cube_stability"])
@pytest.mark.parametrize("n", [0, -3])
def test_sumset_audits_need_a_sample(audit, n):
    with pytest.raises(ValueError, match="need n >= 1"):
        audit(n)


def dense_cube_multiplicity(pts, centers, r):
    """Every point against every center, in blocks: the oracle of
    `_cube_multiplicity`."""
    mult = np.zeros(len(pts), dtype=np.int64)
    for lo in range(0, len(centers), 2048):
        blk = centers[lo:lo + 2048]
        mult += (np.abs(pts[:, None, :] - blk[None, :, :]) <= r).all(axis=2).sum(axis=1)
    return mult


class TestCubeMultiplicity:
    """`_cube_multiplicity` against the dense count over every center."""

    def test_audit_inputs_equal_dense_count(self, monkeypatch):
        calls = []

        def recording(pts, centers, r):
            calls.append((pts, centers, r))
            return _cube_multiplicity(pts, centers, r)

        monkeypatch.setattr(extension, "_cube_multiplicity", recording)
        for delta, side in ((2.0**-3, 4.0), (2.0**-6, 4.0), (2.0**-4, 2048.0)):
            audit_sumset_cubes(V1, V2, C0, delta, 4096, 23, side_factor=side)
        assert len(calls) == 3
        # the side-4 delta audits' candidates fit in one chunk
        for pts, centers, r in calls[:2]:
            window = np.abs(pts[:, None, 0] - centers[None, :, 0]) <= 2.0 * r
            assert window.sum() < extension.CUBE_CANDIDATES
        # 4099 candidates a chunk splits every count into many chunks
        budgets = (extension.CUBE_CANDIDATES, 4099)
        for pts, centers, r in calls:
            want = dense_cube_multiplicity(pts, centers, r)
            assert want.max() >= 1
            for budget in budgets:
                monkeypatch.setattr(extension, "CUBE_CANDIDATES", budget)
                assert np.array_equal(_cube_multiplicity(pts, centers, r), want)
        assert want.min() >= 2  # side 2048 delta: every point in several cubes

    def test_points_at_distance_r(self, monkeypatch):
        # dyadic centers (many sharing an x) and radius: c +- r is exact, so
        # these points sit exactly on cube faces, edges and corners
        rng = np.random.default_rng(61)
        r = 2.0**-5
        centers = rng.integers(-64, 64, size=(3000, 3)) * 2.0**-7
        near = centers[rng.integers(len(centers), size=2000)]
        signs = rng.choice([-1.0, 0.0, 1.0], size=near.shape)
        on_faces = near + signs * r
        nudged = on_faces + rng.integers(-2, 3, size=near.shape) * np.abs(np.spacing(on_faces))
        budgets = (extension.CUBE_CANDIDATES, 777)
        for radius, pts in ((r, on_faces), (r, nudged), (r + 1e-12, near + signs * (r + 1e-12))):
            want = dense_cube_multiplicity(pts, centers, radius)
            for budget in budgets:
                monkeypatch.setattr(extension, "CUBE_CANDIDATES", budget)
                assert np.array_equal(_cube_multiplicity(pts, centers, radius), want)
        assert _cube_multiplicity(on_faces, centers, r).min() >= 1
