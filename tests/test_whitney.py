"""Tests for scale location, containment scans, and covering audits."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hypwhitney import geometry, whitney
from hypwhitney.geometry import (
    OPEN_SCALE,
    AdmissiblePair,
    DyadicInterval,
    Strip,
    _pair_boxes,
    _sample_pairs,
    _steps,
    _type1_rows,
    make_type1_pair,
    sample_members,
    separated_strip_pair,
)
from hypwhitney.whitney import (
    _class_index,
    _containment_counts,
    _interior_samples,
    _signed_sum,
    DegenerateTau,
    LocationFailed,
    audit_chi,
    audit_disjoint,
    audit_locate,
    audit_overlap,
    containing_pairs,
    decompose,
    locate_pair,
)

RHO = 2.0**-4
C0 = 32.0


def strip(j, rho=RHO):
    return Strip(DyadicInterval(j, rho))


V1 = strip(-12)
V2 = strip(12)


def in_pair(pair, z1, z2):
    """Whether z1 lies in the pair's slot-1 box and z2 in its slot-2 box."""
    return pair.carrier(1).contains(*z1) and pair.carrier(2).contains(*z2)


def classes_and_chi(decomp, z1, z2) -> int:
    """Scalar oracle of the chi audit: the signed sum over the ten type-1 and
    the ten type-2 scale classes of the point's containing products, 1
    exactly when some product of either type contains it, 0 otherwise."""
    type1, type2 = containing_pairs(z1, z2, decomp.V1, decomp.V2, decomp.C0)
    return _signed_sum(len({_class_index(p.delta) for p in type1}),
                       len({_class_index(p.delta) for p in type2}))


def stream_oracle(V1, V2, delta, c0):
    """The type-1 stream pair by pair: every (row, column, offset) of the
    `_type1_rows` index in order, listed by a mask per column rather than by
    the decoder's search, each validated by make_type1_pair."""
    rho, g = V1.rho, V1.rho * V1.rho * delta
    rows = _type1_rows(V1, V2, delta, c0)
    out = []
    for r, y1_0 in enumerate(rows.y1_0.tolist()):
        i_lo, i_hi, t_lo, t_hi, total = (int(v[r]) for v in rows[2:])
        d_valid = np.concatenate([np.arange(a, b + 1) for a, b in rows.runs[..., r]])
        row = [(i, int(d)) for i in range(i_lo, i_hi + 1)
               for d in d_valid[(t_lo <= i + d_valid) & (i + d_valid <= t_hi)]]
        assert len(row) == total
        for i, d in row:
            pair = make_type1_pair(i * g, y1_0, (i + d) * g, V2.j * rho, rho, delta, c0)
            assert isinstance(pair, AdmissiblePair), pair
            out.append(pair)
    return out


def window_pair(delta, d=1536, pair_type=1, i0=-4):
    """Pair whose members keep the anchor discrepancy inside
    [d/1024 rounded down to a power of two, twice that) * C0^2 rho^2 delta;
    i0 places the boxes so that all members stay inside Q."""
    g = RHO * RHO * delta
    if pair_type == 1:
        pair = make_type1_pair(i0 * g, -0.75, (d + i0) * g, 0.75, RHO, delta, C0)
    else:
        pair = make_type1_pair(i0 * g, 0.75, (d + i0) * g, -0.75, RHO, delta, C0).swapped()
    assert isinstance(pair, AdmissiblePair), pair
    return pair


class TestLocate:
    def test_self_location_type1(self):
        pair = window_pair(2.0**-4)
        z1s, z2s = sample_members(pair, 300, seed=11)
        for i in range(300):
            found = locate_pair((z1s[i, 0], z1s[i, 1]), (z2s[i, 0], z2s[i, 1]), V1, V2, C0)
            assert found == pair

    def test_self_location_type2(self):
        pair = window_pair(2.0**-3, pair_type=2)
        z1s, z2s = sample_members(pair, 300, seed=12)
        for i in range(300):
            found = locate_pair((z1s[i, 0], z1s[i, 1]), (z2s[i, 0], z2s[i, 1]), V1, V2, C0)
            assert found == pair
            assert found.pair_type == 2

    def test_window_straddle_relocates_finer(self):
        # d=768 puts the anchor discrepancy near 0.75 * C0^2 rho^2 delta, so
        # location lands one scale finer; both pairs contain the sample.
        pair = window_pair(2.0**-4, d=768, i0=400)
        z1s, z2s = sample_members(pair, 100, seed=13)
        for i in range(100):
            z1, z2 = (z1s[i, 0], z1s[i, 1]), (z2s[i, 0], z2s[i, 1])
            found = locate_pair(z1, z2, V1, V2, C0)
            assert found.delta == pair.delta / 2.0
            assert in_pair(found, z1, z2) and in_pair(pair, z1, z2)

    def test_degenerate_tau_raises(self):
        y1, y2 = -0.72, 0.78
        # discrepancy anchored at z1 vanishes (up to one ulp)
        z1 = (0.5, y1)
        z2 = (0.5 - y2 * (y2 - y1), y2)
        with pytest.raises(DegenerateTau):
            locate_pair(z1, (z2[0] + 2.0**-52, z2[1]), V1, V2, C0)
        # discrepancy anchored at z2 vanishes exactly
        z1 = (-0.9, y1)
        z2 = (-0.9 - y1 * (y2 - y1), y2)
        with pytest.raises(DegenerateTau):
            locate_pair(z1, z2, V1, V2, C0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            locate_pair((0.1, 0.0), (0.2, 0.75), V1, V2, C0)  # z1 not in V1
        with pytest.raises(ValueError):
            locate_pair((0.1, -0.75), (0.2, 0.75), strip(-2), strip(2), C0)

    def test_audit_locate_full_success(self):
        rep = audit_locate(V1, V2, C0, 3000, seed=0)
        assert rep.passed and rep.stats["successes"] == 3000
        assert 0.35 < rep.stats["type1_share"] < 0.65
        assert rep.stats["delta_min"] >= 2.0**-40


class TestScaleWindow:
    """The shared limits of location and the containment scan: the
    degeneracy threshold and the coarsest scale rho^2 delta = 4."""

    def test_sub_tolerance_anchor_has_no_candidate_of_its_type(self):
        # tau at z1 is 7.5e-15, below DEGENERATE_TAU_TOL, yet its dyadic
        # scale 2^-39 lies above the location floor at rho = 2^-8
        V1, V2 = strip(-12, 2.0**-8), strip(12, 2.0**-8)
        z1 = (-0.0890241423458753, -0.0430757616343909)
        z2 = (-0.09362224165080572, 0.0496097095498268)
        type1, type2 = containing_pairs(z1, z2, V1, V2, C0)
        assert type1 == [] and type2
        with pytest.raises(DegenerateTau):
            locate_pair(z1, z2, V1, V2, C0)

    def test_anchor_above_the_coarsest_scale(self):
        # strips outside Q at rho = 2: the coarsest scale is delta = 1, and
        # the anchors 207 and 143 sit at the scale C0^2 rho^2 * 2
        V1, V2 = separated_strip_pair(9, 12, 2.0, 4.0)
        z1, z2 = (0.3, 18.0), (-0.2, 25.99)
        with pytest.raises(LocationFailed, match="coarsest scale"):
            locate_pair(z1, z2, V1, V2, 4.0)
        type1, type2 = containing_pairs(z1, z2, V1, V2, 4.0)
        assert type1 and type2
        assert {p.delta for p in type1 + type2} == {1.0}
        assert sorted(decompose(V1, V2, 4.0, 0.25, 64.0, cap=16).scales) == [0.25, 0.5, 1.0]


class TestContainingPairs:
    def test_member_is_covered_by_original(self):
        pair = window_pair(2.0**-4)
        z1s, z2s = sample_members(pair, 50, seed=21)
        for i in range(50):
            z1, z2 = (z1s[i, 0], z1s[i, 1]), (z2s[i, 0], z2s[i, 1])
            type1, type2 = containing_pairs(z1, z2, V1, V2, C0)
            assert pair in type1
            for p in type1 + type2:
                assert in_pair(p, z1, z2)
            # at most one containing pair per scale and type
            assert len({p.delta for p in type1}) == len(type1)
            assert len({p.delta for p in type2}) == len(type2)

    def test_scales_pinned_by_discrepancy(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            z1 = (rng.uniform(-1, 1), -0.75 + rng.random() * RHO)
            z2 = (rng.uniform(-1, 1), 0.75 + rng.random() * RHO)
            type1, type2 = containing_pairs(z1, z2, V1, V2, C0)
            t1 = z2[0] - z1[0] + z2[1] * (z2[1] - z1[1])
            for p in type1:
                ratio = abs(t1) / (C0 * C0 * RHO * RHO * p.delta)
                assert 1.0 / 8.0 < ratio < 8.0

    def test_outside_points_have_no_cover(self):
        assert containing_pairs((0.1, 0.0), (0.2, 0.75), V1, V2, C0) == ([], [])
        assert containing_pairs((0.1, -0.75), (1.5, 0.75), V1, V2, C0) == ([], [])


class TestDecompose:
    def test_scale_range_and_exact_totals(self):
        d = decompose(V1, V2, C0, 2.0**-6, 4.0, cap=256)
        assert sorted(d.scales) == [2.0**k for k in range(-6, 3)]
        # window offsets outrun the snap range
        assert [t.total for t in d.scales[4.0]] == [0, 0]
        assert d.scales[2.0][0].total == len(stream_oracle(V1, V2, 2.0, C0))
        assert d.truncated
        for delta, tables in d.scales.items():
            for pair_type, table in enumerate(tables, start=1):
                assert table.stride == max(1, -(-table.total // 256))
                assert len(table) == -(-table.total // table.stride) <= 256
                for p in table:
                    assert p.pair_type == pair_type and p.delta == delta

    def test_untruncated_scale_matches_stream(self):
        d = decompose(V1, V2, C0, 2.0, 2.0, cap=20000)
        t1, t2 = d.scales[2.0]
        assert (t1.stride, t2.stride) == (1, 1) and not d.truncated
        assert list(t1) == stream_oracle(V1, V2, 2.0, C0)
        assert list(t2) == [p.swapped() for p in stream_oracle(V2, V1, 2.0, C0)]

    @pytest.mark.parametrize("delta, x_band", [(2.0, False), (1.0, True)])
    def test_sample_pairs_replay_the_stream(self, delta, x_band):
        # `_sample_pairs` draws a row, a column of it (in the N=0 band with
        # x_band) and one of that column's pairs, re-drawing on an empty
        # column; replayed here over the stream oracle's columns
        rows = _type1_rows(V1, V2, delta, C0)
        g = RHO * RHO * delta
        columns = {}
        for p in stream_oracle(V1, V2, delta, C0):
            columns.setdefault((p.cy1, round(p.cx1 / g)), []).append(p)
        rng = np.random.default_rng(5)
        want = []
        while len(want) < 60:
            r = int(rng.integers(rows.total.size))
            y1_0, i_lo, i_hi = rows.y1_0[r].item(), int(rows.i_lo[r]), int(rows.i_hi[r])
            if x_band:
                c_lo, c_hi = max(0, -i_lo), min(i_hi - i_lo, math.floor(1.0 / delta) - i_lo)
                if c_hi < c_lo:
                    continue
                col = int(rng.integers(c_lo, c_hi + 1))
            else:
                col = int(rng.integers(i_hi - i_lo + 1))
            column = columns.get((y1_0, i_lo + col), [])
            if column:
                want.append(column[int(rng.integers(len(column)))])
        got = _sample_pairs(np.random.default_rng(5), V1, V2, C0, delta, 60, x_band=x_band)
        assert (got.total, got.stride) == (60, 1)
        assert list(got) == want

    def test_each_index_built_once(self, monkeypatch):
        # one `_type1_rows` index per scale and type; totals and strides come
        # with the tables
        calls = []

        def counting(V1, V2, delta, c0):
            calls.append((V1.j, V2.j, delta))
            return _type1_rows(V1, V2, delta, c0)

        monkeypatch.setattr(geometry, "_type1_rows", counting)
        d = decompose(V1, V2, C0, 2.0**-8, 4.0)
        assert len(d.scales) == 11
        assert len(calls) == len(set(calls)) == 2 * len(d.scales)

    def test_empty_and_invalid_ranges(self):
        assert decompose(V1, V2, C0, 1.0, 0.5).scales == {}
        with pytest.raises(ValueError):
            decompose(V1, V2, C0, -1.0, 1.0)
        with pytest.raises(ValueError):
            decompose(strip(-2), strip(2), C0, 0.5, 1.0)  # strips too close

    def test_class_partition(self):
        d = decompose(V1, V2, C0, 2.0**-6, 2.0, cap=64)
        sizes = d.class_sizes()
        stored1 = sum(len(v[0]) for v in d.scales.values())
        assert sum(v[0] for v in sizes.values()) == stored1
        for r in range(10):
            in_class = [v for delta, v in d.scales.items() if round(math.log2(delta)) % 10 == r]
            assert sizes[r] == (sum(len(l1) for l1, _ in in_class),
                                sum(len(l2) for _, l2 in in_class))

    def test_json_summary_and_dump(self):
        d = decompose(V1, V2, C0, 2.0**-5, 1.0, cap=32)
        again = decompose(V1, V2, C0, 2.0**-5, 1.0, cap=32)
        assert json.dumps(d.to_json_dict(), sort_keys=True) == \
            json.dumps(again.to_json_dict(), sort_keys=True)
        buf = io.StringIO()
        count = d.dump_pairs(buf)
        lines = [ln for ln in buf.getvalue().splitlines() if ln]
        assert count == len(lines) == sum(len(a) + len(b) for a, b in d.scales.values())
        json.loads(lines[0])


class TestChi:
    def setup_method(self):
        self.decomp = decompose(V1, V2, C0, 2.0**-4, 2.0, cap=16)

    def test_interior_gives_one(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            z1 = (rng.uniform(-1, 1), -0.75 + rng.random() * RHO)
            z2 = (rng.uniform(-1, 1), 0.75 + rng.random() * RHO)
            t1 = z2[0] - z1[0] + z2[1] * (z2[1] - z1[1])
            t2 = z2[0] - z1[0] + z1[1] * (z2[1] - z1[1])
            if min(abs(t1), abs(t2)) < 1e-12:
                continue
            assert classes_and_chi(self.decomp, z1, z2) == 1

    def test_outside_gives_zero(self):
        assert classes_and_chi(self.decomp, (0.1, 0.0), (0.2, 0.75)) == 0
        assert classes_and_chi(self.decomp, (0.1, -0.75), (0.2, 0.5)) == 0
        assert classes_and_chi(self.decomp, (1.2, -0.75), (0.2, 0.75)) == 0

    def test_vanishing_first_discrepancy_still_covered(self):
        # tau at z1 is exactly zero; the type-2 side still covers the point
        z1 = (0.5, -0.72)
        z2 = (0.5 - 0.78 * (0.78 + 0.72), 0.78)
        assert classes_and_chi(self.decomp, z1, z2) == 1

    def test_signed_sum_matches_cover_indicator(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            z1 = (rng.uniform(-1.2, 1.2), -0.75 + rng.uniform(-0.5, 1.5) * RHO)
            z2 = (rng.uniform(-1.2, 1.2), 0.75 + rng.uniform(-0.5, 1.5) * RHO)
            type1, type2 = containing_pairs(z1, z2, V1, V2, C0)
            want = 1 if (type1 or type2) else 0
            assert classes_and_chi(self.decomp, z1, z2) == want

    def test_audit_chi(self):
        rep = audit_chi(self.decomp, 400, seed=7)
        assert rep.passed and rep.samples == 500


class TestAuditDisjoint:
    def test_passes_with_coverage(self):
        d = decompose(V1, V2, C0, 2.0**-5, 2.0, cap=512)
        rep = audit_disjoint(d, 800, seed=3)
        assert rep.passed
        assert rep.stats["samples_inside_some_product"] > 100
        assert rep.stats["max_containment_count"] == 1

    def test_duplicated_shifted_pair_fails(self):
        d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=64)
        t1, t2 = d.scales[2.0**-4]
        # the first pair again, shifted by half a grid step in x
        d.scales[2.0**-4] = (dataclasses.replace(
            t1,
            cx1=np.append(t1.cx1, t1.cx1[0] + _steps(t1.rho, 2.0**-4)[1] / 2.0),
            cy1=np.append(t1.cy1, t1.cy1[0]),
            ct2=np.append(t1.ct2, t1.ct2[0]),
            cy2=np.append(t1.cy2, t1.cy2[0]),
        ), t2)
        rep = audit_disjoint(d, 2000, seed=5)
        assert not rep.passed
        assert rep.failures and rep.failures[0]["count"] >= 2

    def test_pair_duplicated_off_the_y_grid_fails(self):
        d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=64)
        t1, t2 = d.scales[2.0**-4]
        d.scales[2.0**-4] = (shifted_duplicates(t1, [0], "y"), t2)
        rep = audit_disjoint(d, 2000, seed=5)
        assert not rep.passed
        assert rep.failures and rep.failures[0]["count"] >= 2


class TestAuditOverlap:
    def test_multiplicity_and_ratio_bounds(self):
        d = decompose(V1, V2, C0, 2.0**-5, 1.0, cap=16)
        rep = audit_overlap(d, 1500, seed=2)
        viol = rep.stats["violations"]
        assert viol["multiplicity"] == 0 and viol["scale_ratio"] == 0
        assert rep.stats["max_multiplicity_type1"] <= 64
        assert rep.stats["max_multiplicity_type2"] <= 64
        assert rep.stats["max_scale_ratio_type1"] <= 2.0**7
        assert rep.stats["max_scale_ratio_type2"] <= 2.0**7
        assert rep.stats["mixed_samples"] > 0
        assert rep.stats["max_mixed_joint_count"] <= 8 * C0
        # pass verdict must reflect the violation counters exactly
        assert rep.passed == all(v == 0 for v in viol.values())

    def test_kappa_negative_control(self):
        d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=16)
        rep = audit_overlap(d, 400, seed=4, kappa=1e-3)
        assert not rep.passed
        assert rep.stats["violations"]["mixed_count"] > 0

    def test_deterministic(self):
        d = decompose(V1, V2, C0, 2.0**-4, 1.0, cap=16)
        a = audit_overlap(d, 300, seed=9).to_json_dict()
        b = audit_overlap(d, 300, seed=9).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("audit", [
    lambda d: audit_disjoint(d, 0, seed=1),
    lambda d: audit_overlap(d, 0, seed=1),
    lambda d: audit_locate(d.V1, d.V2, d.C0, 0, seed=1),
    lambda d: audit_chi(d, 0, seed=1),
], ids=["disjoint", "overlap", "locate", "chi"])
def test_audits_need_a_sample(audit):
    d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=16)
    with pytest.raises(ValueError, match="need n >= 1"):
        audit(d)


class TestContainmentScan:
    """The batched scan against independent and scalar oracles."""

    def test_matches_brute_force_over_complete_tables(self):
        # every pair at scales 1 and 2 is stored, so the covering rows of a
        # point can be found by testing all of them
        d = decompose(V1, V2, C0, 1.0, 2.0, cap=200_000)
        tables = [t for delta in sorted(d.scales) for t in d.scales[delta]]
        assert [(t.total, t.stride) for t in tables] == \
            [(173_797, 1), (155_118, 1), (14_121, 1), (11_268, 1)]
        rng = np.random.default_rng(41)
        points = []
        for _ in range(60):
            table = tables[rng.integers(len(tables))]
            points.append(table[int(rng.integers(len(table)))].member_at(rng.random(4) * OPEN_SCALE))
        for _ in range(40):
            points.append(((rng.uniform(-1, 1), -0.75 + rng.random() * RHO),
                           (rng.uniform(-1, 1), 0.75 + rng.random() * RHO)))
        covered = 0
        for z1, z2 in points:
            want = ([], [])
            # rows reaching past x = +-1 cover no point outside the strip product
            for t in tables if V1.contains(z1) and V2.contains(z2) else []:
                zs, zl = (z1, z2) if t.pair_type == 1 else (z2, z1)
                hits = box_hits((t.cx1, t.cy1, t.ct2, t.cy2), RHO, t.delta, *zs, *zl)
                want[t.pair_type - 1].extend(t[int(k)] for k in np.flatnonzero(hits))
            got = tuple([p for p in grp if p.delta in d.scales]
                        for grp in containing_pairs(z1, z2, V1, V2, C0))
            assert got == want
            covered += bool(want[0] or want[1])
        assert covered >= 60

    def test_audit_locate_equals_scalar_loop(self):
        rep = audit_locate(V1, V2, C0, 300, seed=42)
        samples = _interior_samples(np.random.default_rng(42), V1, V2, C0, 300)
        successes, type1, deltas, failures = 0, 0, [], []
        for i in range(300):
            z1, z2 = tuple(samples[:2, i].tolist()), tuple(samples[2:, i].tolist())
            try:
                pair = locate_pair(z1, z2, V1, V2, C0)
            except (DegenerateTau, LocationFailed) as exc:
                failures.append({"z1": list(z1), "z2": list(z2), "error": str(exc)})
                continue
            successes += 1
            type1 += pair.pair_type == 1
            deltas.append(pair.delta)
        assert rep.stats == {"successes": successes, "type1_share": type1 / 300,
                             "delta_min": min(deltas), "delta_max": max(deltas)}
        assert rep.failures == failures[:5]

    @pytest.mark.parametrize("kappa", [8.0, 1e-3])
    def test_audit_overlap_equals_scalar_loop(self, kappa):
        d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=16)
        rep = audit_overlap(d, 300, seed=43, kappa=kappa)
        samples = _interior_samples(np.random.default_rng(43), V1, V2, C0, 300)
        viol = dict.fromkeys(rep.stats["violations"], 0)
        mult, ratios, mixed, joints, failures = [0, 0], [1.0, 1.0], 0, [0], []
        for i in range(300):
            z1, z2 = tuple(samples[:2, i].tolist()), tuple(samples[2:, i].tolist())
            groups = containing_pairs(z1, z2, V1, V2, C0)
            bad = []
            for t, grp in enumerate(groups):
                deltas = [p.delta for p in grp] or [1.0]
                mult[t] = max(mult[t], len(grp))
                ratios[t] = max(ratios[t], max(deltas) / min(deltas))
                if len(grp) > 64:
                    viol["multiplicity"] += 1
                    bad.append(f"type-{t + 1} multiplicity {len(grp)}")
                if max(deltas) / min(deltas) > 2.0**7:
                    viol["scale_ratio"] += 1
                    bad.append(f"type-{t + 1} scale ratio {max(deltas) / min(deltas):g}")
            if groups[0] and groups[1]:
                mixed += 1
                deltas = [p.delta for p in groups[0] + groups[1]]
                joints.append(len(deltas))
                for name, hit, why in (
                    ("mixed_small_scale", min(deltas) < 1.0 / 800.0,
                     f"mixed containment at scale {min(deltas):g} < 1/800"),
                    ("mixed_scale_ratio", max(deltas) / min(deltas) > 2.0**10,
                     f"mixed scale ratio {max(deltas) / min(deltas):g}"),
                    ("mixed_count", len(deltas) > kappa * C0, f"mixed joint count {len(deltas)}"),
                ):
                    if hit:
                        viol[name] += 1
                        bad.append(why)
            if bad:
                failures.append({"z1": list(z1), "z2": list(z2), "reasons": bad})
        assert rep.stats == {
            "violations": viol,
            "max_multiplicity_type1": mult[0],
            "max_multiplicity_type2": mult[1],
            "max_scale_ratio_type1": ratios[0],
            "max_scale_ratio_type2": ratios[1],
            "mixed_samples": mixed,
            "max_mixed_joint_count": max(joints),
        }
        assert rep.failures == failures[:5]
        assert (kappa < 1.0) == (viol["mixed_count"] > 0)

    def test_audit_chi_equals_scalar_loop(self):
        d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=16)
        rep = audit_chi(d, 300, seed=44)
        rng = np.random.default_rng(44)
        samples = _interior_samples(rng, V1, V2, C0, 300)
        failures = []
        for i in range(300):
            z1, z2 = samples[:2, i].tolist(), samples[2:, i].tolist()
            chi = classes_and_chi(d, z1, z2)
            if chi != 1:
                failures.append({"z1": z1, "z2": z2, "chi": chi, "want": 1})
        for i in range(75):
            (x1, y1), (x2, y2) = samples[:2, i].tolist(), samples[2:, i].tolist()
            if i % 4 == 0:
                y1 += 2.0 * RHO * (1 + int(rng.integers(0, 3)))
            elif i % 4 == 1:
                y2 -= 2.0 * RHO * (1 + int(rng.integers(0, 3)))
            elif i % 4 == 2:
                x1 = 1.0 + rng.random() + 1e-9
            else:
                x2 = -1.0 - rng.random() - 1e-9
            chi = classes_and_chi(d, (x1, y1), (x2, y2))
            if chi != 0:
                failures.append({"z1": [x1, y1], "z2": [x2, y2], "chi": chi, "want": 0})
        assert rep.failures == failures[:5] == []
        assert rep.stats == {"interior": 300, "outside": 75} and rep.samples == 375

    def test_each_candidate_checked_once(self, monkeypatch):
        # the scan checks each snapped candidate elementwise; no candidate is
        # rebuilt through make_type1_pair
        calls = []

        def counting(*args):
            calls.append(args)
            return make_type1_pair(*args)

        monkeypatch.setattr(whitney, "make_type1_pair", counting)
        d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=16)
        assert audit_locate(V1, V2, C0, 3000, 0).passed
        audit_overlap(d, 300, seed=1)
        audit_chi(d, 300, seed=2)
        pair = window_pair(2.0**-4)
        z1s, z2s = sample_members(pair, 20, seed=3)
        for i in range(20):
            assert pair in containing_pairs(z1s[i], z2s[i], V1, V2, C0)[0]
        assert calls == []


def box_hits(arrays, rho, delta, xs, ys, xl, yl):
    """Whether the small and long boxes of the canonical columns contain the
    canonical samples (xs, ys) and (xl, yl); broadcasts."""
    small, long = _pair_boxes(*arrays, rho, delta)
    return small.contains(xs, ys) & long.contains(xl, yl)


def dense_containment_counts(arrays, rho, delta, xs, ys, xl, yl):
    """Every sample against every pair: the oracle of `_containment_counts`."""
    counts = np.zeros(xs.size, dtype=np.int64)
    for lo in range(0, arrays[0].size, 1024):
        chunk = tuple(v[lo:lo + 1024, None] for v in arrays)
        counts += box_hits(chunk, rho, delta, xs, ys, xl, yl).sum(axis=0)
    return counts


# unit offsets on, and one ulp around, the edges and the middle of a box
EDGE_OFFSETS = np.array([-2.0**-52, 0.0, 2.0**-52, 0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52])


def edge_samples(table, V1, V2, rng, n_members=1500, n_uniform=500):
    """Canonical samples (xs, ys, xl, yl) for a table: members of random
    rows at edge offsets with every coordinate nudged by -2..2 ulps, then
    uniform points of the canonical strip product widened by g in x."""
    rho, delta = table.rho, table.delta
    g = _steps(rho, delta)[1]
    Vs, Vl = (V1, V2) if table.pair_type == 1 else (V2, V1)
    k = rng.integers(len(table), size=n_members)
    u1, v1, u2, v2 = rng.choice(EDGE_OFFSETS, size=(4, n_members))
    small, long = _pair_boxes(*(c[k] for c in (table.cx1, table.cy1, table.ct2, table.cy2)),
                              rho, delta)
    members = np.array([*small.member(u1, v1), *long.member(u2, v2)])
    members += rng.integers(-2, 3, size=members.shape) * np.abs(np.spacing(members))
    uniform = np.array([rng.uniform(-1.0 - g, 1.0 + g, n_uniform),
                        Vs.interval.left + rng.random(n_uniform) * rho,
                        rng.uniform(-1.0 - g, 1.0 + g, n_uniform),
                        Vl.interval.left + rng.random(n_uniform) * rho])
    return np.concatenate([members, uniform], axis=1)


def shifted_duplicates(table, rows, axis="x"):
    """The table with the given rows appended again, their small boxes moved
    by half a box along axis "x" or "y", so that the copies sit off that
    grid and overlap their originals.  A move in y shifts both shears, so
    cx1 and ct2 follow it: the copy's small-box base is the original's
    member at unit offsets (0, 1/2)."""
    h, g = _steps(table.rho, table.delta)
    cx1, cy1, ct2, cy2 = (c[rows] for c in (table.cx1, table.cy1, table.ct2, table.cy2))
    if axis == "x":
        moved = (cx1 + g / 2.0, cy1, ct2, cy2)
    else:
        moved = (cx1 - cy1 * h / 2.0, cy1 + h / 2.0, ct2 - cy2 * h / 2.0, cy2)
    return dataclasses.replace(table, **{c: np.append(getattr(table, c), v) for c, v
                                         in zip(("cx1", "cy1", "ct2", "cy2"), moved)})


class TestBucketedContainment:
    """`_containment_counts` against the dense count over every pair."""

    @pytest.mark.parametrize("strips, deltas, cap", [
        ((-12, 12, RHO), (2.0**-6, 2.0**-3), 4096),  # the default audit's lists
        ((-12, 12, RHO), (2.0**-8,), 4096),  # whitney-scan's finest scale
        ((-12, 12, RHO), (1.0, 2.0), 512),  # delta >= 1, where h = rho
        ((-40, -20, 2.0**-6), (2.0**-4, 1.0), 512),  # far strips
    ], ids=["audit", "fine", "coarse", "far"])
    def test_equals_dense_count(self, strips, deltas, cap):
        V1, V2 = separated_strip_pair(*strips, C0)
        d = decompose(V1, V2, C0, min(deltas), max(deltas), cap=cap)
        rng = np.random.default_rng(51)
        lists = 0
        for delta in deltas:
            for table in d.scales[delta]:
                samples = edge_samples(table, V1, V2, rng)
                arrays = (table.cx1, table.cy1, table.ct2, table.cy2)
                got = _containment_counts(arrays, table.rho, delta, *samples)
                want = dense_containment_counts(arrays, table.rho, delta, *samples)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert 0 < (want > 0).sum() < want.size
                lists += 1
        assert lists == 2 * len(deltas)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_off_grid_duplicates_equal_dense_count(self, axis):
        d = decompose(V1, V2, C0, 2.0**-4, 2.0**-4, cap=64)
        rng = np.random.default_rng(52)
        for table in d.scales[2.0**-4]:
            table = shifted_duplicates(table, np.arange(0, len(table), 3), axis)
            samples = edge_samples(table, V1, V2, rng)
            arrays = (table.cx1, table.cy1, table.ct2, table.cy2)
            want = dense_containment_counts(arrays, RHO, 2.0**-4, *samples)
            assert np.array_equal(_containment_counts(arrays, RHO, 2.0**-4, *samples), want)
            assert want.max() == 2

    @pytest.mark.parametrize("strips", [(-12, 12, RHO), (-40, -20, 2.0**-6)], ids=["audit", "far"])
    def test_wall_samples_equal_dense_count(self, strips):
        """Samples within ulps of the sheared x-walls of their boxes at delta
        1, every other base moved to just below its next x grid line: where
        the sheared column rounds past the pair's column."""
        V1, V2 = separated_strip_pair(*strips, C0)
        table_pair = decompose(V1, V2, C0, 1.0, 1.0, cap=256).scales[1.0]
        rng = np.random.default_rng(53)
        left = 0
        for table in table_pair:
            rho, g = table.rho, _steps(table.rho, 1.0)[1]
            cx1 = np.where(np.arange(len(table)) % 2, np.nextafter(table.cx1 + g, -np.inf), table.cx1)
            arrays = (cx1, table.cy1, table.ct2, table.cy2)
            k = rng.integers(len(table), size=50000)
            small, long = _pair_boxes(*(a[k] for a in arrays), rho, 1.0)
            v = rng.random(k.size)
            xs, ys = small.member(rng.integers(0, 2, k.size), v)
            xs += rng.integers(-3, 4, k.size) * np.spacing(np.abs(xs))
            xl, yl = long.member(*rng.random((2, k.size)) * OPEN_SCALE)
            want = dense_containment_counts(arrays, rho, 1.0, xs, ys, xl, yl)
            assert np.array_equal(_containment_counts(arrays, rho, 1.0, xs, ys, xl, yl), want)
            # samples in their own box whose snapped column lies left of the box's
            inside = small.contains(xs, ys) & long.contains(xl, yl)
            column = whitney._snap((xs, ys), (xl, yl), rho, 1.0)[0]
            left += (inside & (np.floor(column / g) < np.floor(small.u0 / g))).sum()
        assert left > 0


@pytest.fixture(scope="module")
def scan_tables():
    """The tables of the whitney-scan decomposition, 512 rows at most each."""
    d = decompose(V1, V2, C0, 2.0**-8, 4.0, cap=512)
    return [t for delta in sorted(d.scales) for t in d.scales[delta] if len(t)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=st.integers(0, 10**6), row=st.integers(0, 511),
       offsets=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, OPEN_SCALE, exclude_max=True))] * 4))
def test_members_are_covered_and_located(scan_tables, table, row, offsets):
    table = scan_tables[table % len(scan_tables)]
    pair = table[row % len(table)]
    z1, z2 = pair.member_at(offsets)
    # boxes overhang |x| = 1; those members lie outside the strip product
    assume(V1.contains(z1) and V2.contains(z2))
    # a member lies in its own pair, offsets of exactly 0 included, so the
    # scan reports the pair and location succeeds
    assert in_pair(pair, z1, z2)
    groups = containing_pairs(z1, z2, V1, V2, C0)
    assert pair in groups[pair.pair_type - 1]
    found = locate_pair(z1, z2, V1, V2, C0)
    assert found in groups[found.pair_type - 1]
    if (found.pair_type, found.delta) == (pair.pair_type, pair.delta):
        assert found == pair
