"""Tests for strips, strip-pair tilings, and admissible box pairs."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypwhitney import geometry
from hypwhitney.geometry import (
    OPEN_SCALE,
    AdmissiblePair,
    DyadicInterval,
    Rejected,
    Strip,
    audit_tau_bounds,
    count_pairs,
    is_dyadic,
    make_type1_pair,
    pair_sample,
    sample_members,
    separated_strip_pair,
    _checked_columns,
    _decode,
    _pair_boxes,
    _pairs_before,
    _steps,
    _type1_rows,
)
from hypwhitney.scaling import prototype, reduce
from hypwhitney.surface import tau

RHO = 2.0**-4
C0 = 32.0


def in_pair(pair, z1, z2):
    """Whether z1 lies in the pair's slot-1 box and z2 in its slot-2 box;
    elementwise on coordinate arrays."""
    return pair.carrier(1).contains(*z1) & pair.carrier(2).contains(*z2)


class TestDyadicInterval:
    def test_half_open(self):
        I = DyadicInterval(3, 0.25)
        assert I.left == 0.75 and I.right == 1.0
        assert I.contains(0.75)
        assert I.contains(0.999)
        assert not I.contains(1.0)

    def test_non_dyadic_scale_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(0, 0.3)

    def test_is_dyadic(self):
        assert is_dyadic(1) and is_dyadic(0.5) and is_dyadic(4096)
        assert not is_dyadic(0.3) and not is_dyadic(0) and not is_dyadic(-2)
        assert not is_dyadic(float("inf"))


class TestStripPairs:
    def test_separated_strip_pair(self):
        V1, V2 = separated_strip_pair(-12, 12, RHO, C0)
        assert V1.interval.left == -0.75 and V2.interval.left == 0.75
        rng = np.random.default_rng(2)
        s1 = V1.interval.left + rng.random(500) * RHO
        s2 = V2.interval.left + rng.random(500) * RHO
        sep = np.abs(s2 - s1)
        assert sep.min() >= C0 * RHO / 2.0 and sep.max() <= C0 * RHO
        for bad in ((0, 6), (0, 0), (-12, 20)):
            with pytest.raises(ValueError):
                separated_strip_pair(bad[0], bad[1], RHO, C0)


def worked_pair():
    return make_type1_pair(0.0, -0.75, 0.25, 0.75, RHO, 2.0**-3, C0)


class TestMakePairs:
    def test_worked_accept(self):
        pair = worked_pair()
        assert isinstance(pair, AdmissiblePair)
        assert pair.base1 == (0.0, -0.75)
        assert pair.base2 == (0.25 - 0.75 * 1.5, 0.75)  # (-0.875, 0.75)
        # endpoint transversality at the base points is exactly t2_0 - x1_0
        assert tau(pair.base1, pair.base1, pair.base2) == 0.25

    def test_worked_reject_window1(self):
        # |t2_0 - x1_0| below C0^2 rho^2 delta / 4 = 0.125
        g = RHO**2 * 2.0**-3
        out = make_type1_pair(0.0, -0.75, 102 * g, 0.75, RHO, 2.0**-3, C0)
        assert isinstance(out, Rejected) and out.which == "admissible1"

    def test_worked_reject_window2(self):
        # delta = 1: d = 2.25 passes the first window, but the second
        # endpoint value d - (y2_0-y1_0)^2 vanishes exactly
        out = make_type1_pair(0.0, -0.75, 2.25, 0.75, RHO, 1.0, C0)
        assert isinstance(out, Rejected) and out.which == "admissible2"

    def test_worked_reject_separation(self):
        out = make_type1_pair(0.0, 0.0, 0.25, 0.5, RHO, 2.0**-3, C0)
        assert isinstance(out, Rejected) and out.which == "separation"

    def test_off_grid_is_error(self):
        with pytest.raises(ValueError):
            make_type1_pair(0.0, -0.75, 0.05, 0.75, RHO, 2.0**-3, C0)
        with pytest.raises(ValueError):
            make_type1_pair(0.0, -0.7, 0.25, 0.75, RHO, 2.0**-3, C0)
        with pytest.raises(ValueError):
            make_type1_pair(0.0, -0.75, 0.25, 0.7, RHO, 2.0**-3, C0)
        with pytest.raises(ValueError):
            make_type1_pair(0.0, -0.75, 0.25, 0.75, 0.3, 2.0**-3, C0)

    @pytest.mark.parametrize("scale", ["rho", "delta", "C0"])
    def test_non_dyadic_scale_raises_on_every_call(self, scale):
        # the scale check sits in a cached helper, and a cache keeps no errors
        scales = dict(rho=RHO, delta=2.0**-3, C0=C0)
        scales[scale] *= 0.75
        for _ in range(2):
            with pytest.raises(ValueError, match=f"{scale} must be a positive power of two"):
                make_type1_pair(0.0, -0.75, 0.25, 0.75, **scales)

    def test_type2_mirror(self):
        p1 = worked_pair()
        p2 = make_type1_pair(0.0, -0.75, 0.25, 0.75, RHO, 2.0**-3, C0).swapped()
        assert isinstance(p2, AdmissiblePair) and p2.pair_type == 2
        assert p2.base1 == p1.base2 and p2.base2 == p1.base1
        assert set(p2.params) == {"t1_0", "y1_0", "x2_0", "y2_0"}
        assert p2 == p1.swapped()
        assert p2.swapped() == p1
        rng = np.random.default_rng(3)
        for _ in range(200):
            za = rng.uniform(-1.2, 1.2, 2)
            zb = rng.uniform(-1.2, 1.2, 2)
            assert in_pair(p2, za, zb) == in_pair(p1, zb, za)

    def test_type2_rejections_propagate(self):
        # the type-2 candidate of these slots is the swapped type-1 one
        out = make_type1_pair(0.0, 0.0, 0.25, 0.5, RHO, 2.0**-3, C0)
        assert isinstance(out, Rejected) and out.which == "separation"


class TestMembership:
    def test_bases_contained(self):
        pair = worked_pair()
        assert in_pair(pair, pair.base1, pair.base2)
        assert pair.member_at((0.0, 0.0, 0.0, 0.0)) == (pair.base1, pair.base2)

    def test_half_open_boundaries(self):
        pair = worked_pair()
        h, g = _steps(pair.rho, pair.delta)
        z1_top = (pair.base1[0] - pair.cy1 * h, pair.cy1 + h)  # v1 = 1
        assert not in_pair(pair, z1_top, pair.base2)
        z1_right = (pair.base1[0] + g, pair.base1[1])  # u1 = 1
        assert not in_pair(pair, z1_right, pair.base2)
        # just inside both walls
        z1_in, _ = pair.member_at((1.0 - 1e-9, 1.0 - 1e-9, 0.0, 0.0))
        assert in_pair(pair, z1_in, pair.base2)

    def test_members_fill_boxes(self):
        pair = worked_pair()
        h, g = _steps(pair.rho, pair.delta)
        z1, z2 = sample_members(pair, 4000, seed=5)
        assert in_pair(pair, z1.T, z2.T).all()
        assert np.abs(z1[:, 1] - pair.cy1 - h / 2).max() <= h / 2
        assert np.abs(z2[:, 1] - pair.cy2 - pair.rho / 2).max() <= pair.rho / 2
        # shifting either point out of its box breaks membership
        assert not in_pair(pair, (z1[:, 0] + 2 * g, z1[:, 1]), z2.T).any()
        assert not in_pair(pair, z1.T, (z2[:, 0], z2[:, 1] + pair.rho)).any()

    def test_sampling_deterministic(self):
        pair = worked_pair()
        a1, a2 = sample_members(pair, 64, seed=9)
        b1, b2 = sample_members(pair, 64, seed=9)
        c1, _ = sample_members(pair, 64, seed=10)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
        assert not np.array_equal(a1, c1)
        with pytest.raises(ValueError):
            sample_members(pair, 0, seed=1)

    def test_type2_member_slots(self):
        p2 = make_type1_pair(0.0, -0.75, 0.25, 0.75, RHO, 2.0**-3, C0).swapped()
        z1, z2 = sample_members(p2, 100, seed=4)
        # slot 1 carries the long box (y-width rho), slot 2 the small one
        assert z1[:, 1].min() >= 0.75 and z1[:, 1].max() < 0.75 + RHO
        assert z2[:, 1].min() >= -0.75 and z2[:, 1].max() < -0.75 + _steps(RHO, 2.0**-3)[0]


class TestMemberMap:
    @pytest.mark.parametrize("pair_type", [1, 2])
    def test_box_coordinates_invert_member_at(self, pair_type):
        V1, V2 = separated_strip_pair(-12, 12, RHO, C0)
        rng = np.random.default_rng(21)
        checked = 0
        for k in range(-6, 3):
            for pair in pair_sample(V1, V2, 2.0**k, C0, pair_type=pair_type, max_pairs=8):
                offs = rng.random((4, 64)) * OPEN_SCALE
                z1, z2 = pair.member_at(offs)
                for slot, z, (u, v) in ((1, z1, offs[:2]), (2, z2, offs[2:])):
                    car = pair.carrier(slot)
                    # slot 1 is the small box of a type-1 pair, the long box of a type-2 pair
                    small = (slot == 1) == (pair_type == 1)
                    assert car.dy == (_steps(pair.rho, pair.delta)[0] if small else pair.rho)
                    cu, cv = car.coords(*z)
                    assert np.abs(cu / car.du - u).max() <= 1e-9
                    assert np.abs(cv / car.dy - v).max() <= 1e-9
                assert in_pair(pair, z1, z2).all()
                checked += 1
        assert checked >= 40


class TestBroadcastCarriers:
    """`_pair_boxes` on a table's columns against each row view's carriers."""

    @pytest.mark.parametrize("pair_type", [1, 2])
    @pytest.mark.parametrize("delta", [2.0**-8, 2.0])
    def test_columns_equal_row_views(self, pair_type, delta):
        # the whitney-scan strips, at its finest scale and at a coarse one
        V1, V2 = separated_strip_pair(-12, 12, RHO, C0)
        table = pair_sample(V1, V2, delta, C0, pair_type=pair_type, max_pairs=64)
        assert len(table) == 64
        small, long = _pair_boxes(table.cx1, table.cy1, table.ct2, table.cy2, RHO, delta)
        # slot 1 holds the small box of a type-1 pair, the long box of a type-2 pair
        by_slot = (small, long) if pair_type == 1 else (long, small)
        rng = np.random.default_rng(22)
        u, v = rng.random((2, len(table))) * OPEN_SCALE
        u[:8] = v[:8] = 0.0
        points = rng.uniform(-1.0, 1.0, (2, len(table)))
        for slot, boxes in zip((1, 2), by_slot):
            members, coords = boxes.member(u, v), boxes.coords(*points)
            inside = boxes.contains(*members), boxes.contains(*points)
            for k, pair in enumerate(table):
                car = pair.carrier(slot)
                assert car.member(u[k], v[k]) == (members[0][k], members[1][k])
                assert car.coords(points[0][k], points[1][k]) == (coords[0][k], coords[1][k])
                assert car.contains(members[0][k], members[1][k]) == inside[0][k]
                assert car.contains(points[0][k], points[1][k]) == inside[1][k]


# A unit offset of exactly 0, which puts a member on its box's left or
# bottom wall, the largest offset the samplers draw, just below OPEN_SCALE,
# which rounds onto the excluded walls at fine scales, or any offset between.
UNIT_OFFSETS = st.tuples(*[st.one_of(st.just(0.0), st.just(math.nextafter(OPEN_SCALE, 0.0)),
                                     st.floats(0.0, OPEN_SCALE, exclude_max=True))] * 4)


@functools.lru_cache(maxsize=None)
def audit_strip_table(k, pair_type):
    """At most 64 pairs of one type at scale 2^k on the default audit strips."""
    V1, V2 = separated_strip_pair(-12, 12, RHO, C0)
    return pair_sample(V1, V2, 2.0**k, C0, pair_type=pair_type, max_pairs=64)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(k=st.sampled_from([-20, -17, -15, -8, -6, -4, -2, 0, 1]), pair_type=st.sampled_from([1, 2]),
       row=st.integers(0, 63), scene_exp=st.integers(1, 8),
       b=st.sampled_from([1.0, -1.0, 2.0, -1.5]), offsets=UNIT_OFFSETS)
def test_every_box_contains_its_own_members(k, pair_type, row, scene_exp, b, offsets):
    # `contains` tests the wall `member` computes, and `member` clamps below
    # the excluded walls, so rounding cannot put a member outside its own
    # box, down to DELTA_MIN = 2^-20: the pair slots of both types, a reduced
    # pair's unit images and the prototype boxes
    table = audit_strip_table(k, pair_type)
    pair = table[row % len(table)]
    assert in_pair(pair, *pair.member_at(offsets))
    red = reduce(pair)
    scene = prototype(2.0**-scene_exp, 2.0**-5, 2.0**-scene_exp, b)
    u1, v1, u2, v2 = offsets
    for car in (pair.carrier(1), pair.carrier(2), red.image(1), red.image(2),
                scene.carrier(1), scene.carrier(2)):
        assert car.contains(*car.member(u1, v1)) and car.contains(*car.member(u2, v2))


class TestSerialization:
    def test_json_fields(self):
        pair = worked_pair()
        d = json.loads(json.dumps(pair.to_json_dict()))
        assert set(d) == {"type", "rho", "delta", "C0", "params", "base1", "base2"}
        assert d["type"] == 1 and d["rho"] == RHO and d["delta"] == 0.125
        assert d["params"] == {"x1_0": 0.0, "y1_0": -0.75, "t2_0": 0.25, "y2_0": 0.75}
        rebuilt = make_type1_pair(
            d["params"]["x1_0"], d["params"]["y1_0"], d["params"]["t2_0"],
            d["params"]["y2_0"], d["rho"], d["delta"], d["C0"],
        )
        assert rebuilt == pair

    def test_json_type2(self):
        p2 = make_type1_pair(0.0, -0.75, 0.25, 0.75, RHO, 2.0**-3, C0).swapped()
        d = p2.to_json_dict()
        assert d["type"] == 2
        assert set(d["params"]) == {"t1_0", "y1_0", "x2_0", "y2_0"}
        assert d["base1"] == [-0.875, 0.75] and d["base2"] == [0.0, -0.75]


class TestAuditTauBounds:
    def safe_pair(self, pair_type=1):
        # delta = 2^-4 on strips 24 apart: both endpoint windows are met
        # with a wide margin at every member
        pair = make_type1_pair(0.0, -0.75, 0.125, 0.75, RHO, 2.0**-4, C0)
        return pair if pair_type == 1 else pair.swapped()

    def test_passes_on_valid_pair(self):
        for t in (1, 2):
            pair = self.safe_pair(t)
            assert isinstance(pair, AdmissiblePair)
            rep = audit_tau_bounds(pair, 2000, seed=0)
            assert rep.passed and rep.stats["violations"] == 0
            assert rep.stats["small_ratio_min"] >= 1.0 / 8.0
            assert rep.stats["small_ratio_max"] <= 8.0
            assert rep.stats["long_ratio_min"] >= 1.0 / 1000.0
            assert rep.stats["long_ratio_max"] <= 1000.0

    def test_fails_on_corrupted_pair(self):
        # bypass validation: t2_0 - x1_0 = (y2_0-y1_0)^2, so the second
        # endpoint value vanishes at the bases and crosses zero on members
        bad = AdmissiblePair(
            pair_type=1, rho=RHO, delta=2.0**-4, C0=C0,
            cx1=0.0, cy1=-0.75, ct2=2.25, cy2=0.75,
        )
        rep = audit_tau_bounds(bad, 4000, seed=0)
        assert not rep.passed
        assert not rep.stats["base_window_ok"]
        assert rep.stats["violations"] > 0
        assert rep.failures and "small_ratio" in rep.failures[0]

    def test_report_shape(self):
        rep = audit_tau_bounds(self.safe_pair(), 500, seed=3)
        d = rep.to_json_dict()
        assert d["name"] == "tau_bounds" and d["pass"] is True
        assert d["samples"] == 500


def run_offsets(runs):
    """The offsets of a row's runs [a_k, b_k], ascending; an empty slot
    (1, 0) adds none."""
    return np.concatenate([np.arange(a, b + 1) for a, b in runs])


def records(rows, sel=slice(None)):
    """The rows sel of a `_type1_rows` index as tuples (y1_0, runs, i_lo,
    i_hi, t_lo, t_hi, total) of Python numbers, without the empty run slots."""
    runs = [tuple((a, b) for a, b in row if a <= b) for row in rows.runs[..., sel].transpose(2, 0, 1).tolist()]
    return list(zip(rows.y1_0[sel].tolist(), runs, *(v[sel].tolist() for v in rows[2:])))


def rows_oracle(V1, V2, delta, c0, ms=None):
    """The masked row builder that the closed form replaced, one row at a
    time as `records`: every window-1 offset of each fine row (only the rows
    m in ms, if given) masked by window 2, and the runs read off the
    surviving offsets.  Window 2 keeps the upper bound hi2 that `_windows`
    dropped, so a match shows that it never binds.  The snap range is the
    floor-snap of the long box's u = x + y*(y - y1_0) over x in [-1, 1] at
    the strip ends and at the shear's vertex, if it lies between them."""
    rho = V1.rho
    h, g = geometry._steps(rho, delta)
    y2_0 = V2.j * rho
    lo1, hi1, lo2 = geometry._windows(rho, delta, c0)
    hi2 = 5.0 * c0 * c0 * rho * rho * max(1.0, delta)
    d_lo, d_hi = int(math.ceil(lo1 / g)), int(math.ceil(hi1 / g))
    d_all = np.concatenate([np.arange(-d_hi + 1, -d_lo + 1), np.arange(d_lo, d_hi)])
    rows = []
    for m in range(int(round(rho / h))) if ms is None else ms:
        y1_0 = V1.j * rho + m * h
        if not geometry._separation_ok(y2_0 - y1_0, h, rho, c0):
            continue
        tau2 = d_all * g - (y2_0 - y1_0) ** 2
        d_valid = d_all[geometry._in_window(np.abs(tau2), lo2, hi2)]
        if d_valid.size == 0:
            continue
        cut = np.flatnonzero(np.diff(d_valid) != 1)
        runs = tuple(zip(d_valid[np.r_[0, cut + 1]].tolist(), d_valid[np.r_[cut, -1]].tolist()))
        i_lo = math.floor((-1.0 - g - abs(y1_0) * h) / g)
        i_hi = math.floor((1.0 + abs(y1_0) * h) / g)
        ylo, yhi = V2.j * rho, (V2.j + 1) * rho
        ys = [ylo, yhi] + ([y1_0 / 2.0] if ylo < y1_0 / 2.0 < yhi else [])
        box = geometry.Carrier(0.0, g, ylo, rho, (0.0, 1.0, y1_0))
        t_lo = math.floor(min(box.coords(-1.0, y)[0] for y in ys) / g)
        t_hi = math.floor(max(box.coords(1.0, y)[0] for y in ys) / g)
        total = _pairs_before(runs, i_lo, t_lo, t_hi, i_hi - i_lo + 1)
        if total > 0:
            rows.append((y1_0, runs, i_lo, i_hi, t_lo, t_hi, total))
    return rows


def decode_oracle(rows, q, y2_0, rho, delta, c0):
    """The per-column decoder that the closed form replaced: for each queried
    row, the admitted offsets of every column that can hold a pair by two
    searches over the expanded offsets, and each query's column by a search
    over their running count."""
    q = np.asarray(q, dtype=np.int64)
    rows = records(rows)
    row_pos = np.cumsum([0] + [row[-1] for row in rows])
    r = np.searchsorted(row_pos, q, side="right") - 1
    local = q - row_pos[r]
    i = np.empty(q.size, dtype=np.int64)
    d = np.empty(q.size, dtype=np.int64)
    for m in np.unique(r):
        sel = r == m
        _, runs, i_lo, i_hi, t_lo, t_hi, _ = rows[m]
        d_valid = run_offsets(runs)
        # the columns that can hold a pair, t_lo - d_max <= i <= t_hi - d_min
        cols = np.arange(max(i_lo, t_lo - d_valid[-1]), min(i_hi, t_hi - d_valid[0]) + 1)
        lo = np.searchsorted(d_valid, t_lo - cols, side="left")
        hi = np.searchsorted(d_valid, t_hi - cols, side="right")
        starts = np.concatenate([[0], np.cumsum(hi - lo)])
        col = np.searchsorted(starts, local[sel], side="right") - 1
        i[sel] = cols[col]
        d[sel] = d_valid[lo[col] + local[sel] - starts[col]]
    cy1 = np.array([row[0] for row in rows], dtype=np.float64)[r]
    return _checked_columns(i, cy1, d, y2_0, rho, delta, c0)


# separated strip pairs (rho, C0, j1, j2) for the row and decoder property
# tests; in the last, |j2 - j1| = 13 is odd, so at delta = 2 window 2's
# one-offset central gap falls between two offsets and its intervals merge
SEPARATED = [(2.0**-4, 32.0, -12, 12), (2.0**-4, 32.0, -16, 1),
             (2.0**-3, 16.0, -6, 6), (2.0**-3, 16.0, -7, 3), (2.0**-3, 16.0, -6, 7)]
C0_256 = (2.0**-7, 256.0, -96, 96)
# every scale from 2^-8 to the coarsest, rho^2*delta = 4, and 2^-12, 2^-16
# and DELTA_MIN = 2^-20 on the default strips and the C0 = 256 pair
ROW_CASES = ([(strips, k) for strips in SEPARATED + [C0_256]
              for k in range(-8, geometry._coarsest_exponent(strips[0]) + 1)]
             + [(strips, k) for strips in (SEPARATED[0], C0_256) for k in (-12, -16, -20)])
# 2^-8 to 2 for the C0 <= 32 pairs, and from 2^-3 at C0 = 256: the oracle
# expands every row, about 2^21 columns in all at 2^-3 and 2^31 at 2^-8
DECODE_CASES = ([(strips, k) for strips in SEPARATED for k in range(-8, 2)]
                + [(C0_256, k) for k in range(-3, 2)])

# test_rows_match_oracle reads the rows m in [first, first + n) with
# first <= 2^10 and n <= 2^22/(8*C0^2), C0 >= 16: all below this bound
ORACLE_ROWS = 2**10 + 2**22 // (8 * 16 * 16)


@functools.lru_cache(maxsize=None)
def strip_index(strips, k, swap):
    """The `_type1_rows` index of strips (rho, C0, j1, j2) at scale 2^k,
    j1 and j2 interchanged if swap, as its stream size and the index cut to
    its first ORACLE_ROWS rows.  Cached, as each index at 2^-20 takes about
    0.6 s, and cut, as it holds 100 MB."""
    rho, c0, j1, j2 = strips
    if swap:
        j1, j2 = j2, j1
    rows = _type1_rows(*separated_strip_pair(j1, j2, rho, c0), 2.0**k, c0)
    return sum(rows.total.tolist()), rows._make(v[..., :ORACLE_ROWS] for v in rows)



@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.sampled_from(ROW_CASES), swap=st.booleans(), first=st.integers(0, 2**10))
@example(case=(SEPARATED[0], -8), swap=False, first=0)  # 256 rows of 2 runs
@example(case=(SEPARATED[2], -3), swap=False, first=0)  # 2 and 3 runs
@example(case=(SEPARATED[4], 1), swap=True, first=0)  # ..84 and 85.. merged
@example(case=(C0_256, -8), swap=False, first=252)
@example(case=(C0_256, 0), swap=True, first=0)  # 3 runs
@example(case=(SEPARATED[0], -20), swap=False, first=2**10)
@example(case=(C0_256, -20), swap=True, first=77)
def test_rows_match_oracle(case, swap, first):
    # the rows m in [first, first + n) of the strip, n set so the oracle
    # masks at most 2^22 offsets: every row for C0 <= 32, 8 for C0 = 256
    (rho, c0, j1, j2), k = case
    if swap:
        j1, j2 = j2, j1
    V1, V2 = separated_strip_pair(j1, j2, rho, c0)
    delta = 2.0**k
    h = geometry._steps(rho, delta)[0]
    n_rows = round(rho / h)
    first %= n_rows
    ms = range(first, min(n_rows, first + 2**22 // int(8 * c0 * c0)))
    assert ms.stop <= ORACLE_ROWS
    rows = strip_index(*case, swap)[1]
    got = records(rows, np.isin(rows.y1_0, [V1.j * rho + m * h for m in ms]))
    assert got == rows_oracle(V1, V2, delta, c0, ms)


def breakpoint_positions(rows):
    """Stream positions F(b) - 1, F(b) and F(b) + 1 for every breakpoint b of
    every row: its ends and each c at which t_hi - i or t_lo - 1 - i, with
    i = i_lo + c, crosses a run end; clipped to the stream."""
    pos, start = [], 0
    for _, runs, i_lo, i_hi, t_lo, t_hi, total in records(rows):
        n_cols = i_hi - i_lo + 1
        ends = {t - i_lo - e for t in (t_hi, t_lo - 1) for a, b in runs for e in (a - 1, b)}
        for c in {0, n_cols} | {min(max(c, 0), n_cols) for c in ends}:
            at = start + _pairs_before(runs, i_lo, t_lo, t_hi, c)
            pos += [at - 1, at, at + 1]
        start += total
    return np.clip(pos, 0, start - 1)


@functools.lru_cache(maxsize=None)
def decode_case(case, swap):
    """The rows of a `DECODE_CASES` entry, its fixed queries and the oracle's
    columns at them: positions 0 and total - 1, every row boundary +-1 and
    the positions around every breakpoint.  Cached, as the oracle expands
    every row (0.5-1.1 s at delta = 2^-8, C0 = 32) and examples repeat
    cases."""
    (rho, c0, j1, j2), k = case
    if swap:
        j1, j2 = j2, j1
    V1, V2 = separated_strip_pair(j1, j2, rho, c0)
    rows = _type1_rows(V1, V2, 2.0**k, c0)
    assert rows.total.size
    row_pos = np.cumsum([0, *rows.total.tolist()])
    q = np.concatenate([[0, row_pos[-1] - 1], (row_pos[1:-1, None] + [-1, 0, 1]).ravel(),
                        breakpoint_positions(rows)])
    return rows, q, decode_oracle(rows, q, j2 * rho, rho, 2.0**k, c0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(DECODE_CASES), swap=st.booleans(),
       draws=st.lists(st.integers(0, 2**62), max_size=40))
@example(case=(SEPARATED[2], -3), swap=False, draws=[])
@example(case=(SEPARATED[0], -8), swap=False, draws=[])  # the default config's finest
@example(case=(C0_256, -3), swap=True, draws=[])
def test_decode_matches_oracle(case, swap, draws):
    # the case's fixed queries and random draws in one call, then the draws
    # alone, which leave most rows unqueried; delta >= 2^-3 reaches rows of
    # 3 runs, delta = 2 rows of 270 columns against 8,190 offsets, and the
    # first explicit example rows of 2 and 3 runs in one table
    rows, q_fixed, want = decode_case(case, swap)
    (rho, c0, j1, j2), k = case
    y2_0, delta = (j1 if swap else j2) * rho, 2.0**k
    q = np.array(draws, dtype=np.int64) % sum(rows.total.tolist())
    drawn = decode_oracle(rows, q, y2_0, rho, delta, c0)
    got = _decode(rows, np.concatenate([q_fixed, q]), y2_0, rho, delta, c0)
    for column, expected in zip(got, [np.concatenate(pair) for pair in zip(want, drawn)]):
        assert np.array_equal(column, expected)
    for column, expected in zip(_decode(rows, q, y2_0, rho, delta, c0), drawn):
        assert np.array_equal(column, expected)


def full_table(V1, V2, delta, c0, pair_type=1):
    """The stride-1 table of a stream small enough to materialize."""
    table = pair_sample(V1, V2, delta, c0, pair_type=pair_type, max_pairs=10**6)
    assert table.stride == 1 and len(table) == table.total
    return table


class TestEnumerate:
    # C0=16, rho=2^-4, delta=4, strips at -6 and +6: small enough to
    # materialize; expected count worked out by hand from the snap ranges
    def small_config(self):
        V1 = Strip(DyadicInterval(-6, RHO))
        V2 = Strip(DyadicInterval(6, RHO))
        return V1, V2, 4.0, 16.0

    def test_full_enumeration_count(self):
        V1, V2, delta, c0 = self.small_config()
        table = full_table(V1, V2, delta, c0)
        # i in [-67, 65], t_idx in [-46, 86], |d| in [64, 1024):
        # positives give sum_{d=64}^{154}(154-d) = 4095, negatives 1176
        assert len(table) == 5271
        assert len({(p.cx1, p.ct2) for p in table}) == len(table)

    def test_stream_matches_brute_force_scan(self):
        # every row y1_0, every column i and every offset |d| <= 4*C0^2 + 1,
        # kept when make_type1_pair admits the pair and t2_0 = (i + d)*g lies
        # in the long box's snap range; collected in stream order
        V1, V2, delta, c0 = self.small_config()
        h, g = RHO, RHO * RHO * delta  # delta >= 1: one fine row per strip
        d_max = int(4 * c0 * c0) + 1
        scan = []
        for m in range(int(RHO / h)):
            y1_0 = V1.interval.left + m * h
            # the row's column range and snap range, derived by hand for
            # y1_0 = -3/8: |y1_0|*h/g = 3/2
            assert y1_0 == -0.375
            for i in range(-67, 66):
                for d in range(-d_max, d_max + 1):
                    if not -46 <= i + d <= 86:
                        continue
                    pair = make_type1_pair(i * g, y1_0, (i + d) * g, V2.interval.left,
                                           RHO, delta, c0)
                    if isinstance(pair, AdmissiblePair):
                        scan.append(pair)
        assert list(full_table(V1, V2, delta, c0)) == scan

    def test_enumeration_against_interval_arithmetic(self):
        V1, V2, delta, c0 = self.small_config()
        table = full_table(V1, V2, delta, c0)
        g = RHO * RHO * delta
        offsets = np.round((table.ct2 - table.cx1) / g).astype(int)
        d_all = np.unique(offsets)
        assert d_all.min() >= -1023 and d_all.max() <= 1023
        assert (np.abs(d_all) >= 64).all()
        # count per d must equal the clipped i-interval length
        for d, n in zip(*np.unique(offsets, return_counts=True)):
            lo = max(-67, -46 - d)
            hi = min(65, 86 - d)
            assert n == hi - lo + 1

    def test_all_emitted_pairs_revalidate(self):
        V1, V2, delta, c0 = self.small_config()
        table = full_table(V1, V2, delta, c0)
        rng = np.random.default_rng(12)
        for k in rng.choice(len(table), size=300, replace=False):
            p = table[int(k)]
            q = p.params
            again = make_type1_pair(
                q["x1_0"], q["y1_0"], q["t2_0"], q["y2_0"], p.rho, p.delta, p.C0
            )
            assert again == p
            z1, z2 = sample_members(p, 8, seed=1)
            assert (z1[:, 1] >= V1.interval.left).all()
            assert (z1[:, 1] < V1.interval.right).all()
            assert (z2[:, 1] >= V2.interval.left).all()
            assert (z2[:, 1] < V2.interval.right).all()

    def test_window_index_matches_validation(self):
        # the row index and make_type1_pair apply one set of windows: in every
        # indexed row and column, an offset d validates exactly when listed
        V1, V2, delta, c0 = self.small_config()
        g = RHO * RHO * delta
        y2_0 = V2.j * RHO
        d_max = int(4 * c0 * c0) + 1
        rows = records(_type1_rows(V1, V2, delta, c0))
        assert rows
        for y1_0, runs, i_lo, i_hi, *_ in rows:
            listed = set(run_offsets(runs).tolist())
            for i in range(i_lo, i_hi + 1):
                admissible = {
                    d for d in range(-d_max, d_max + 1)
                    if isinstance(make_type1_pair(i * g, y1_0, (i + d) * g, y2_0,
                                                  RHO, delta, c0), AdmissiblePair)
                }
                assert admissible == listed, (y1_0, i)

    def test_corrupted_index_raises(self, monkeypatch):
        # a decoded pair that fails the windows is a fault of the index, not
        # a rejection: the decoder raises (here the first row is moved off
        # the separation window)
        V1, V2, delta, c0 = self.small_config()
        rows = _type1_rows(V1, V2, delta, c0)
        broken = rows._replace(y1_0=rows.y1_0 + 0.5)  # the config's one row
        monkeypatch.setattr(geometry, "_type1_rows", lambda *args: broken)
        with pytest.raises(RuntimeError, match="indexed candidate failed validation"):
            pair_sample(V1, V2, delta, c0)

    def test_extended_run_raises(self, monkeypatch):
        # the row's first run [-1023, -64] extended by the offset -63, which
        # window 1 rejects; the row's total counts the extra pairs, so the
        # full table decodes them and the decoder raises
        V1, V2, delta, c0 = self.small_config()
        rows = _type1_rows(V1, V2, delta, c0)
        assert rows.runs.transpose(2, 0, 1).tolist() == [[[-1023, -64], [1, 0], [64, 1023]]]
        runs = rows.runs.copy()
        runs[0, 1] = -63
        grown = _pairs_before(runs, rows.i_lo, rows.t_lo, rows.t_hi, rows.i_hi - rows.i_lo + 1)
        assert grown > rows.total
        broken = rows._replace(runs=runs, total=grown)
        monkeypatch.setattr(geometry, "_type1_rows", lambda *args: broken)
        with pytest.raises(RuntimeError, match="indexed candidate failed validation"):
            pair_sample(V1, V2, delta, c0, max_pairs=10**6)

    def test_deterministic_order(self):
        V1, V2, delta, c0 = self.small_config()
        pairs = list(full_table(V1, V2, delta, c0))[:400]
        keys = [(p.cy1, p.cx1, p.ct2 - p.cx1) for p in pairs]
        assert keys == sorted(keys)
        g = _steps(pairs[0].rho, delta)[1]
        assert pairs[0].params["x1_0"] == -67 * g
        assert pairs[0].params["t2_0"] == -3 * g

    def test_large_stream_prefix(self):
        V1, V2 = separated_strip_pair(-12, 12, RHO, C0)
        table = pair_sample(V1, V2, 2.0**-3, C0, max_pairs=300)
        assert table.stride > 1
        assert len(table) == -(-table.total // table.stride) <= 300
        pairs = list(table)
        assert pairs[0].params["y1_0"] == -0.75
        assert pairs[0].params["x1_0"] == -2061 * _steps(RHO, 2.0**-3)[1]
        assert pairs[0].params["t2_0"] == 0.125
        keys = [(p.cy1, p.cx1, p.ct2 - p.cx1) for p in pairs]
        assert keys == sorted(keys)
        for p in pairs[:20]:
            q = p.params
            assert isinstance(
                make_type1_pair(q["x1_0"], q["y1_0"], q["t2_0"], q["y2_0"], p.rho, p.delta, p.C0),
                AdmissiblePair,
            )

    def test_type2_stream_is_swapped_type1(self):
        V1, V2, delta, c0 = self.small_config()
        t2 = full_table(V1, V2, delta, c0, pair_type=2)
        t1 = full_table(V2, V1, delta, c0, pair_type=1)
        assert (t2.pair_type, t2.total, t2.stride) == (2, t1.total, t1.stride)
        for name in ("cx1", "cy1", "ct2", "cy2"):
            assert np.array_equal(getattr(t2, name), getattr(t1, name))
        assert [p.swapped() for p in t1] == list(t2)
        assert all(p.pair_type == 2 for p in t2)

    def test_scale_limits(self):
        V1, V2, _, c0 = self.small_config()
        empty = pair_sample(V1, V2, 2.0**-21, c0)
        assert (len(empty), empty.total, empty.stride, list(empty)) == (0, 0, 1, [])
        with pytest.raises(ValueError):
            pair_sample(V1, V2, 2.0**15, c0)
        with pytest.raises(ValueError):
            pair_sample(V1, Strip(DyadicInterval(6, 2.0**-5)), 1.0, c0)
        with pytest.raises(ValueError):
            pair_sample(V1, V2, 1.0, c0, pair_type=3)
        with pytest.raises(ValueError):
            pair_sample(V1, V2, 1.0, c0, max_pairs=0)

    def test_stream_beyond_int64_is_an_error(self):
        # C0 = 1024: 3.03e19 pairs at 2^-12, more than int64 counts; 7.6e18 at 2^-11
        V1, V2 = separated_strip_pair(-384, 384, 2.0**-9, 1024.0)
        with pytest.raises(ValueError, match="more than int64"):
            pair_sample(V1, V2, 2.0**-12, 1024.0)
        table = pair_sample(V1, V2, 2.0**-11, 1024.0)
        assert table.total == 7572383653342740480 and len(table) == 4096

    def test_count_beyond_int64_is_exact(self):
        # the type-1 rows' totals summed as Python ints; nothing is decoded
        V1, V2 = separated_strip_pair(-384, 384, 2.0**-9, 1024.0)
        assert count_pairs(V1, V2, 2.0**-12, 1024.0) == 30_289_528_428_594_462_720
        assert count_pairs(V1, V2, 2.0**-11, 1024.0) == 7572383653342740480
        with pytest.raises(ValueError, match="more than int64"):
            pair_sample(V1, V2, 2.0**-12, 1024.0)
        with pytest.raises(ValueError):
            count_pairs(V1, V2, 2.0**-12, 1024.0, pair_type=3)
        with pytest.raises(ValueError):
            count_pairs(V1, V2, 0.3, 1024.0)

    @pytest.mark.parametrize("strips, k, counts", [
        (SEPARATED[0], -16, (7586633251560960, 8361795240591360)),
        (SEPARATED[0], -18, (121386095786073600, 133788612113203200)),
        (SEPARATED[0], -20, (1942177387621916160, 2140617346866216960)),
        (C0_256, -17, (121462085042559221760, 123079165000726609920)),
        (C0_256, -20, (7773573269550678835200, 7877066038723373629440)),
    ])
    def test_fine_scale_counts(self, strips, k, counts):
        # type-1 and type-2 stream sizes down to DELTA_MIN, as the per-row
        # loop that built the index before it took Python ints counted them;
        # count_pairs is this sum of row totals, the type-2 one over the
        # interchanged strips (test_count_matches_stream)
        assert (strip_index(strips, k, False)[0], strip_index(strips, k, True)[0]) == counts

    @pytest.mark.parametrize("c0, j, k, count", [(1024.0, 384, -19, 496263533234619655127040),
                                                 (2048.0, 768, -15, 31003500806583091200000)])
    def test_index_int64_bound(self, c0, j, k, count):
        # the last scale whose index stays within 2^62 in int64 (its count
        # checked against the row totals in Python ints), and the first past
        # it, which raises; both streams hold more than 2^63 pairs
        V1, V2 = separated_strip_pair(-j, j, 2.0 / c0, c0)
        assert count_pairs(V1, V2, 2.0**k, c0) == count
        for pair_type in (1, 2):
            with pytest.raises(ValueError, match=r"would pass 2\^62 in int64"):
                count_pairs(V1, V2, 2.0**(k - 1), c0, pair_type)
        with pytest.raises(ValueError, match=r"would pass 2\^62 in int64"):
            pair_sample(V1, V2, 2.0**(k - 1), c0)

    def test_count_matches_stream(self):
        V1, V2, delta, c0 = self.small_config()
        assert count_pairs(V1, V2, delta, c0) == len(full_table(V1, V2, delta, c0)) == 5271
        assert count_pairs(V1, V2, delta, c0, pair_type=2) == \
            len(list(full_table(V1, V2, delta, c0, pair_type=2)))
        assert count_pairs(V1, V2, 2.0**-21, c0) == 0

    def test_strided_sample_matches_stream(self):
        V1, V2, delta, c0 = self.small_config()
        full = list(full_table(V1, V2, delta, c0))
        for cap in (40, 500, 10000):
            table = pair_sample(V1, V2, delta, c0, max_pairs=cap)
            assert table.total == 5271 and table.stride == max(1, -(-table.total // cap))
            assert list(table) == full[::table.stride]
        t2 = pair_sample(V1, V2, delta, c0, pair_type=2, max_pairs=64)
        assert all(p.pair_type == 2 for p in t2)
        assert t2.total == len(full_table(V1, V2, delta, c0, pair_type=2))

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(-6, 2), cap=st.integers(1, 200), pair_type=st.sampled_from([1, 2]))
    def test_table_rows_revalidate(self, k, cap, pair_type):
        V1, V2 = separated_strip_pair(-12, 12, RHO, C0)
        table = pair_sample(V1, V2, 2.0**k, C0, pair_type=pair_type, max_pairs=cap)
        assert table.stride == max(1, -(-table.total // cap))
        assert len(table) == -(-table.total // table.stride)
        for pair in table:
            rebuilt = make_type1_pair(pair.cx1, pair.cy1, pair.ct2, pair.cy2, RHO, 2.0**k, C0)
            assert (rebuilt if pair_type == 1 else rebuilt.swapped()) == pair


def sample_pairs_oracle(rng, V1, V2, c0, delta, count, x_band=False):
    """`_sample_pairs` one attempt at a time with scalar `rng.integers`
    draws, on Python ints: the loop the stream replay replaced."""
    rows = geometry._type1_rows(V1, V2, delta, c0)
    y1_0, i_lo, i_hi, t_lo, t_hi = (v.tolist() for v in (rows.y1_0, *rows[2:6]))
    runs = [[(a, b) for a, b in row if a <= b] for row in rows.runs.transpose(2, 0, 1).tolist()]
    picks, guard = [], 0
    while len(picks) < count:
        guard += 1
        if guard > 200 * count + 1000:
            raise ValueError("sampling stalled; configuration too sparse")
        r = int(rng.integers(len(runs)))
        c_lo, c_hi = 0, i_hi[r] - i_lo[r]
        if x_band:
            c_lo, c_hi = max(0, -i_lo[r]), min(c_hi, math.floor(1.0 / delta) - i_lo[r])
        if c_hi < c_lo:
            continue
        i = i_lo[r] + int(rng.integers(c_lo, c_hi + 1))
        lo, hi = geometry._upto(runs[r], t_lo[r] - i - 1)[0], geometry._upto(runs[r], t_hi[r] - i)[0]
        if hi > lo:
            picks.append((i, y1_0[r], geometry._run_member(runs[r], lo + int(rng.integers(hi - lo)))))
    rho = V1.rho
    return _checked_columns(*map(np.array, zip(*picks)), V2.j * rho, rho, delta, c0)


def assert_same_sample(seed, V1, V2, c0, delta, count, x_band=False, buffered=False):
    """The replayed `_sample_pairs` equals the oracle column for column, and
    both generators are left in one state: equal state dicts and equal next
    `integers` and `random` draws.  buffered starts both with a buffered
    half word."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        fast.integers(7), slow.integers(7)
    table = geometry._sample_pairs(fast, V1, V2, c0, delta, count, x_band=x_band)
    assert (table.total, table.stride, len(table)) == (count, 1, count)
    for got, want in zip((table.cx1, table.cy1, table.ct2, table.cy2),
                         sample_pairs_oracle(slow, V1, V2, c0, delta, count, x_band)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.integers(10**6) == slow.integers(10**6) and fast.random() == slow.random()


class TestStreamReplay:
    # the default audit's strips, and a separation constant whose column
    # ranges pass 2^32 at delta = 2^-16
    AUDIT = separated_strip_pair(-12, 12, RHO, C0)
    WIDE = (*separated_strip_pair(-384, 384, 2.0**-9, 1024.0), 1024.0, 2.0**-16)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_cursor_replays_scalar_draws(self, buffered):
        # ranges of 1, small ones, ones rejected about half and a quarter of
        # the time (2^31 + 1, 3*2^30), 2^32 - 1, 2^32 and 64-bit ones
        # (2^62 + 1 rejects about a quarter of its outputs), between doubles
        ranges = [1, 2, 7, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63 - 1]
        ops = np.random.default_rng(99).integers(len(ranges) + 1, size=400).tolist()
        fast, slow = np.random.default_rng(4), np.random.default_rng(4)
        if buffered:
            fast.integers(7), slow.integers(7)
        stream = geometry._Stream(fast)
        for op in ops:
            if op == len(ranges):
                assert np.array_equal(stream.doubles(3), slow.random(3))
            else:
                assert stream.integers(ranges[op]) == slow.integers(ranges[op])
        stream.close()
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.integers(5) == slow.integers(5) and fast.random() == slow.random()

    def test_cursor_needs_pcg64(self):
        with pytest.raises(TypeError, match="PCG64"):
            geometry._Stream(np.random.Generator(np.random.MT19937(0)))

    @pytest.mark.parametrize("k", range(3, 7))
    @pytest.mark.parametrize("x_band", [False, True])
    def test_audit_calls_match_loop(self, k, x_band):
        # every (delta, x_band) the default audit samples at, over 20 seeds,
        # every other one from a buffered half word; 400 pairs take one to five
        # passes of the replay
        for seed in range(20):
            assert_same_sample(seed, *self.AUDIT, C0, 2.0**-k, 400, x_band, buffered=seed % 2)

    @pytest.mark.parametrize("seed, k, scalar", [(50, -3, [8, 4121, 3880]), (281, -6, [64, 32793, 7680])])
    def test_pinned_rejections(self, monkeypatch, seed, k, scalar):
        # seeds whose 2,500-pair sumset_x draw meets a Lemire rejection: that
        # attempt takes scalar draws, one per range in scalar
        calls, draw = [], geometry._Stream.integers
        monkeypatch.setattr(geometry._Stream, "integers", lambda self, n: calls.append(n) or draw(self, n))
        assert_same_sample(seed, *self.AUDIT, C0, 2.0**k, 2500)
        assert calls == scalar

    def crafted(self, monkeypatch, rows, **columns):
        """Make `_type1_rows` return rows with the given columns replaced."""
        rows = rows._replace(**columns)
        monkeypatch.setattr(geometry, "_type1_rows", lambda *args: rows)

    def test_range_one_draws_take_nothing(self, monkeypatch):
        # a one-row index draws no row, a one-column row no column and a
        # one-member column no member
        delta = 2.0**-4
        rows = _type1_rows(*self.AUDIT, delta, C0)
        # the column and offset of each row's last pair
        cx1, _, ct2, _ = _decode(rows, np.cumsum(rows.total) - 1, self.AUDIT[1].j * RHO, RHO, delta, C0)
        last, d = (np.rint(v / _steps(RHO, delta)[1]).astype(np.int64) for v in (cx1, ct2 - cx1))
        self.crafted(monkeypatch, rows, i_lo=last, i_hi=last)
        assert_same_sample(3, *self.AUDIT, C0, delta, 300, buffered=True)
        one = rows._make(v[..., 5:6] for v in rows)
        self.crafted(monkeypatch, one)
        assert_same_sample(3, *self.AUDIT, C0, delta, 300)
        self.crafted(monkeypatch, one, i_lo=last[5:6], i_hi=last[5:6],
                     runs=np.array([[[d[5]], [d[5]]], [[1], [0]], [[1], [0]]]))
        for buffered in (False, True):
            rng = np.random.default_rng(3)
            if buffered:
                rng.integers(7)
            state = rng.bit_generator.state
            table = geometry._sample_pairs(rng, *self.AUDIT, C0, delta, 50)
            assert rng.bit_generator.state == state and len(set(table.ct2.tolist())) == 1
            assert_same_sample(3, *self.AUDIT, C0, delta, 50, buffered=buffered)

    def test_wide_ranges(self, monkeypatch):
        # column ranges of about 3.4e10 take 64-bit draws; a row cut to 2^32
        # columns takes plain words
        V1, V2, c0, delta = self.WIDE
        rows = _type1_rows(V1, V2, delta, c0)
        assert (rows.i_hi - rows.i_lo + 1).min() > 2**32
        for seed in range(3):
            assert_same_sample(seed, V1, V2, c0, delta, 40, buffered=seed == 2)
        r = 100
        mid = np.cumsum(rows.total)[r - 1] + rows.total[r] // 2
        i = round(_decode(rows, np.array([mid]), V2.j * V2.rho, V2.rho, delta, c0)[0][0]
                  / _steps(V2.rho, delta)[1])
        one = rows._make(v[..., r:r + 1] for v in rows)
        self.crafted(monkeypatch, one, i_lo=np.array([i - 2**31]), i_hi=np.array([i + 2**31 - 1]))
        assert one.i_lo[0] <= i - 2**31 and i + 2**31 - 1 <= one.i_hi[0]
        for seed in range(3):
            assert_same_sample(seed, V1, V2, c0, delta, 40, buffered=seed == 1)

    def test_stall_guard(self, monkeypatch):
        # a row whose one column holds no pair stalls after 200*count + 1000 attempts
        rows = _type1_rows(*self.AUDIT, 2.0**-4, C0)
        one = rows._make(v[..., :1] for v in rows)
        self.crafted(monkeypatch, one, i_lo=one.i_lo - 10**6, i_hi=one.i_lo - 10**6)
        for sample in (geometry._sample_pairs, sample_pairs_oracle):
            with pytest.raises(ValueError, match="sampling stalled"):
                sample(np.random.default_rng(0), *self.AUDIT, C0, 2.0**-4, 3)
