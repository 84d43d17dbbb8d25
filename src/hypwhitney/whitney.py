"""Scale location and covering structure for the admissible box pairs.

The admissible pairs over one separated strip pair, taken over all dyadic
scales delta, tile the off-diagonal part of the strip product: every
non-degenerate point (z1, z2) lies in at least one product, within one scale
and type it lies in at most one, and the scales that can contain it are
pinned to a narrow dyadic window by the size of its anchored discrepancies.
This module materializes bounded snapshots of that family (decompose: one
`geometry.PairTable` per scale and type) and audits the covering claims on
random samples.  One containment scan over point arrays (`_covering`) snaps
each point onto the grids of the seven scales of that window, for both
types, and checks each snapped candidate once; locate_pair, containing_pairs
and the location, overlap and chi audits are views of it; snapping and
wall tests read `Carrier.coords` of the pairs' boxes, containment
`Carrier.contains`.  Scales lie in
[2^LOG2_DELTA_FLOOR, the coarsest scale rho^2 delta = 4], and an anchored
discrepancy below DEGENERATE_TAU_TOL is degenerate: it has no candidate of
its type (`_anchor_exponents` holds both rules).

The scan checks its candidates one scale at a time, so that grid steps and
windows stay scalar.  `_by_scale` groups them with one stable sort of the
anchor exponents per type: the seven rows are those exponents shifted by
-3..3, so each row's members at a scale are one run of that order.  Two
other designs were measured on the `whitney-scan` benchmark (2-vCPU host)
and rejected: sorting the flattened (7, n) candidates raised its peak memory
from 61.5 to 69.5 MB, and one ungrouped pass with array-valued delta was no
faster than the per-exponent grouping it replaced (0.335 s against 0.283 s)
and peaked at 113 MB.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DELTA_MIN,
    LOG2_DELTA_FLOOR,
    OPEN_SCALE,
    AdmissiblePair,
    Rejected,
    Strip,
    _ceil_log2,
    _check_strips,
    _coarsest_exponent,
    _conditions,
    _dyadic_label,
    _floor_log2,
    _in_ranges,
    _pair_boxes,
    _require_count,
    _steps,
    make_type1_pair,
    pair_sample,
)
from .reports import AuditReport
from .surface import _require_finite, _require_positive, tau

__all__ = [
    "DegenerateTau",
    "LocationFailed",
    "WhitneyDecomposition",
    "decompose",
    "locate_pair",
    "containing_pairs",
    "audit_disjoint",
    "audit_overlap",
    "audit_locate",
    "audit_chi",
]

# An anchored discrepancy below this is degenerate: in no pair of its type.
DEGENERATE_TAU_TOL = 1e-14
BOUNDARY_TOL = 2.0**-40
# The scan's exponents about the anchor's dyadic scale, one row each.
_SCAN_OFFSETS = np.arange(-3, 4)


class DegenerateTau(ValueError):
    """No scale fits: either anchored discrepancy lies below
    DEGENERATE_TAU_TOL, or the anchor's would need a scale below
    2^LOG2_DELTA_FLOOR."""


class LocationFailed(RuntimeError):
    """The snapped candidate was rejected or does not contain the point."""


def _class_index(delta: float) -> int:
    """Residue class of the scale exponent, ten classes per spec'd period."""
    return _floor_log2(delta) % 10


def _snap_small(zs, rho, delta):
    """The small-box columns (cx1, cy1) of the only type-1 pair at this
    scale whose small box can hold zs: floor-snap y first, then the sheared
    x (box coordinate of the small box with that y-base and x-base 0);
    elementwise."""
    h, g = _steps(rho, delta)
    cy1 = h * np.floor(zs[1] / h)
    small = _pair_boxes(0.0, cy1, 0.0, 0.0, rho, delta)[0]
    return g * np.floor(small.coords(*zs)[0] / g), cy1


def _snap(zs, zl, rho, delta):
    """Grid parameters of the only type-1 pair at this scale that can
    contain (zs, zl): the small box's columns (`_snap_small`), then the long
    box's sheared x and y; elementwise."""
    cx1, cy1 = _snap_small(zs, rho, delta)
    g = _steps(rho, delta)[1]
    long = _pair_boxes(0.0, cy1, 0.0, 0.0, rho, delta)[1]
    return cx1, cy1, g * np.floor(long.coords(*zl)[0] / g), rho * np.floor(zl[1] / rho)


def _anchor_exponents(t, rho, C0, offsets=0):
    """Exponents k + offsets, C0^2 rho^2 2^k <= |t| < 2 C0^2 rho^2 2^k, of
    anchored discrepancies t, and whether each is usable: |t| is at least
    DEGENERATE_TAU_TOL and k + offsets in [LOG2_DELTA_FLOOR, coarsest]."""
    a = np.abs(t)
    # C0^2 rho^2 is a power of two, so the dyadic window test is exact
    ks = _floor_log2(a / (C0 * C0 * rho * rho)) + offsets
    return ks, (a >= DEGENERATE_TAU_TOL) & (LOG2_DELTA_FLOOR <= ks) & (ks <= _coarsest_exponent(rho))


def _runs(v):
    """Bounds b of the maximal runs of equal neighbours in a non-empty v:
    run m is v[b[m]:b[m + 1]]."""
    return np.flatnonzero(np.r_[True, v[1:] != v[:-1], True])


def _by_scale(k0, mask, offsets=(0,)):
    """(delta, positions in mask) for each exponent among the true entries
    of mask, ascending, so that the grid steps and windows stay scalar
    within a group.  The exponent at (r, i) is k0[i] + offsets[r] for a
    mask of shape (len(offsets), n), k0[i] for one of shape (n,); positions
    are row-major, as np.nonzero gives them.

    One stable sort of k0 groups every row: row r's members at exponent k
    are the run of anchors k - offsets[r] in that order, filtered by the
    row's mask."""
    k0, offsets = np.asarray(k0), np.asarray(offsets)
    rows = np.reshape(mask, (offsets.size, k0.size))
    if not rows.any():
        return
    # a stable sort of int16 keys is a radix sort; keys that wrap (none do
    # for the exponents of doubles) would only split runs, not reorder them
    order = np.argsort(k0.astype(np.int16), kind="stable")
    sk, rows = k0[order], rows[:, order]
    b = _runs(sk)
    # the (row, run) pairs with a member, by exponent and then row
    r, m = np.nonzero(np.logical_or.reduceat(rows, b[:-1], axis=1))
    ks = sk[b[m]] + offsets[r]
    by = np.lexsort((r, ks))
    r, m, ks = r[by], m[by], ks[by]
    c = _runs(ks)
    for lo, hi in zip(c[:-1].tolist(), c[1:].tolist()):
        parts = [order[b[q]:b[q + 1]][rows[p, b[q]:b[q + 1]]]
                 for p, q in zip(r[lo:hi].tolist(), m[lo:hi].tolist())]
        i = np.concatenate(parts)
        delta = math.ldexp(1.0, int(ks[lo]))
        if np.ndim(mask) == 1:
            yield delta, (i,)
        else:
            yield delta, (np.repeat(r[lo:hi], [p.size for p in parts]), i)


# ---------------------------------------------------------------------------
# The containment scan


def _covering(z1, z2, V1: Strip, V2: Strip, C0: float) -> tuple:
    """Every candidate pair of the points (z1, z2), given as coordinates or
    as coordinate arrays of shape (n,).

    Containment at scale delta forces the anchored discrepancy of the small
    slot into a fixed multiplicative window around C0^2 rho^2 delta, so a
    point can only lie in pairs at the exponents kc-3..kc+3 about the
    anchor's dyadic scale kc, and within one scale and type only in the
    snapped candidate.  Returns, for type 1 (anchor z1) and then type 2
    (anchor z2): the exponents, shape (7, n), and whether the candidate at
    each is admissible and contains the point, shape (7, n), each candidate
    checked once (`_snap` gives a candidate's columns back).  Points outside
    the strip product and unusable exponents (`_anchor_exponents`) have none.
    """
    rho = V1.rho
    z1, z2 = np.reshape(np.asarray([*z1, *z2], dtype=np.float64), (2, 2, -1))
    inside = V1.contains(z1) & V2.contains(z2)
    scans = []
    for zs, zl, t in ((z1, z2, tau(z1, z1, z2)), (z2, z1, tau(z2, z1, z2))):
        ks, ok = _anchor_exponents(t, rho, C0, _SCAN_OFFSETS[:, None])
        ok &= inside
        # row 3 (offset 0) holds the anchors' own exponents
        for delta, (r, i) in _by_scale(ks[3], ok, _SCAN_OFFSETS):
            small, long = (zs[0][i], zs[1][i]), (zl[0][i], zl[1][i])
            cand = _snap(small, long, rho, delta)
            boxes = _pair_boxes(*cand, rho, delta)
            ok[r, i] = np.logical_and.reduce((*_conditions(*cand, rho, delta, C0),
                                              boxes[0].contains(*small), boxes[1].contains(*long)))
        scans.append((ks, ok))
    return tuple(scans)


# ---------------------------------------------------------------------------
# Point location and containment


def locate_pair(z1, z2, V1: Strip, V2: Strip, C0) -> AdmissiblePair:
    """The admissible pair containing (z1, z2), built constructively.

    The anchor is the slot with the smaller absolute discrepancy; its size
    fixes the unique dyadic scale with C0^2 rho^2 delta <= |tau| <
    2 C0^2 rho^2 delta, and the candidate is the middle row of the anchor
    type's containment scan, the floor-snap of the anchor's coordinates
    onto that scale's grids.  Raises DegenerateTau when either discrepancy
    is below tolerance (or the scale would fall under 2^-40) and
    LocationFailed if the candidate is rejected or does not contain the
    point.
    """
    rho, C0 = _check_strips(V1, V2, C0)
    _require_finite(x1=z1[0], y1=z1[1], x2=z2[0], y2=z2[1])
    if not (V1.contains(z1) and V2.contains(z2)):
        raise ValueError("points must lie in the strip product")
    t1, t2 = tau(z1, z1, z2), tau(z2, z1, z2)
    if min(abs(t1), abs(t2)) < DEGENERATE_TAU_TOL:
        raise DegenerateTau(f"discrepancies {t1:.3e}, {t2:.3e} below tolerance")
    swap = bool(abs(t2) < abs(t1))
    ks, ok = _covering(z1, z2, V1, V2, C0)[swap]
    k = int(ks[3, 0])
    if k < LOG2_DELTA_FLOOR:
        raise DegenerateTau(f"anchor discrepancy {(t1, t2)[swap]:.3e} needs a scale below 2^{LOG2_DELTA_FLOOR}")
    if k > _coarsest_exponent(rho):
        raise LocationFailed("anchor discrepancy exceeds the coarsest scale")
    delta = math.ldexp(1.0, k)
    cols = [float(v) for v in _snap(*((z2, z1) if swap else (z1, z2)), rho, delta)]
    if not ok[3, 0]:
        cand = make_type1_pair(*cols, rho, delta, C0)
        if isinstance(cand, Rejected):
            raise LocationFailed(f"snapped candidate rejected ({cand.which}): {cand.message}")
        raise LocationFailed("snapped candidate does not contain the sample")
    return AdmissiblePair(1 + swap, rho, delta, C0, *cols)


def containing_pairs(z1, z2, V1: Strip, V2: Strip, C0) -> tuple:
    """Every admissible product containing (z1, z2), split by type and in
    ascending scale: the admissible, containing rows of the point's
    containment scan.  Points outside the strip product are in no pair.
    """
    rho, C0 = _check_strips(V1, V2, C0)
    _require_finite(x1=z1[0], y1=z1[1], x2=z2[0], y2=z2[1])
    return tuple([AdmissiblePair(t, rho, delta, C0, *map(float, _snap(*zs, rho, delta)))
                  for delta in np.ldexp(1.0, ks[ok[:, 0], 0]).tolist()]
                 for t, zs, (ks, ok) in zip((1, 2), ((z1, z2), (z2, z1)), _covering(z1, z2, V1, V2, C0)))


def _signed_sum(n_a: int, n_t: int) -> int:
    """Signed indicator sum over all joint intersections of n_a type-1 and
    n_t type-2 scale classes, the empty-empty term excluded."""
    return sum((-1) ** (a + b + 1) * math.comb(n_a, a) * math.comb(n_t, b)
               for a in range(n_a + 1) for b in range(n_t + 1) if a or b)


# _signed_sum(a, b) for a, b in 0..10, read by audit_chi
_SIGNED_SUMS = np.array([[_signed_sum(a, b) for b in range(11)] for a in range(11)])


# ---------------------------------------------------------------------------
# Materialized decomposition


@dataclass
class WhitneyDecomposition:
    """Bounded snapshot of the pair family over one strip pair.

    scales maps each materialized dyadic delta to (type-1 table, type-2
    table).  When the full stream at a scale exceeds the cap a table holds
    an evenly strided subset and its stride records the thinning factor
    (1 means complete); its total is always the exact full stream size.
    """

    V1: Strip
    V2: Strip
    C0: float
    delta_min: float
    delta_max: float
    scales: dict = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        return any(t.stride != 1 for tables in self.scales.values() for t in tables)

    def class_sizes(self) -> dict:
        sizes = {r: [0, 0] for r in range(10)}
        for delta, (l1, l2) in self.scales.items():
            r = _class_index(delta)
            sizes[r][0] += len(l1)
            sizes[r][1] += len(l2)
        return {r: tuple(v) for r, v in sizes.items()}

    def to_json_dict(self) -> dict:
        scales = {_dyadic_label(delta): {
            "delta": delta, "type1_total": t1.total, "type2_total": t2.total,
            "type1_stored": len(t1), "type2_stored": len(t2),
            "stride1": t1.stride, "stride2": t2.stride,
        } for delta, (t1, t2) in sorted(self.scales.items())}
        return {
            "strips": {"j1": self.V1.j, "j2": self.V2.j, "rho": self.V1.rho},
            "C0": self.C0,
            "delta_min": self.delta_min,
            "delta_max": self.delta_max,
            "truncated": self.truncated,
            "scales": scales,
            "class_sizes": {str(r): list(v) for r, v in self.class_sizes().items()},
        }

    def dump_pairs(self, fh) -> int:
        """Write stored pairs as json-lines in deterministic order."""
        count = 0
        for delta in sorted(self.scales):
            for slot in (0, 1):
                for pair in self.scales[delta][slot]:
                    fh.write(json.dumps(pair.to_json_dict(), sort_keys=True) + "\n")
                    count += 1
        return count


def decompose(V1: Strip, V2: Strip, C0, delta_min, delta_max,
              cap: int = 4096) -> WhitneyDecomposition:
    """Materialize the pair family for every dyadic scale in the range.

    The range is clamped to the enumerable window [DELTA_MIN, the coarsest
    scale rho^2 delta = 4].  A scale whose stream exceeds cap (a count: an
    int >= 1) stores an evenly strided subset (full counts stay exact).  The
    range ends are positive reals; an empty range yields an empty
    decomposition.
    """
    rho, C0 = _check_strips(V1, V2, C0)
    delta_min, delta_max = _require_positive(delta_min=delta_min, delta_max=delta_max)
    cap = _require_count(cap=cap)
    out = WhitneyDecomposition(V1, V2, C0, delta_min, delta_max)
    if delta_min > delta_max:
        return out
    for k in range(max(_ceil_log2(delta_min), _floor_log2(DELTA_MIN)),
                   min(_floor_log2(delta_max), _coarsest_exponent(rho)) + 1):
        delta = math.ldexp(1.0, k)
        out.scales[delta] = (pair_sample(V1, V2, delta, C0, 1, cap),
                             pair_sample(V1, V2, delta, C0, 2, cap))
    return out


# ---------------------------------------------------------------------------
# Sampling helpers


def _near_wall(zs, zl, rho, delta):
    """Whether each point sits within 2^-40 of a snap-grid wall at this
    scale (normalized units); such samples are re-drawn before audits."""
    fracs = []
    for box, z in zip(_pair_boxes(*_snap(zs, zl, rho, delta), rho, delta), (zs, zl)):
        u, v = box.coords(*z)
        fracs += [u / box.du, v / box.dy]
    fracs = np.array(fracs)
    return (np.minimum(fracs, 1.0 - fracs) < BOUNDARY_TOL).any(axis=0)


def _interior_samples(rng, V1: Strip, V2: Strip, C0, n: int):
    """n points of V1 x V2, re-drawn while either anchored discrepancy is
    below DEGENERATE_TAU_TOL (the points locate_pair rejects as degenerate)
    or while wall-adjacent at the dyadic scale of either."""
    n, rho = _require_count(n=n), V1.rho
    out = np.empty((4, n))
    filled = 0
    while filled < n:
        m = n - filled
        x1 = rng.uniform(-1.0, 1.0, m)
        y1 = V1.interval.left + rng.random(m) * rho
        x2 = rng.uniform(-1.0, 1.0, m)
        y2 = V2.interval.left + rng.random(m) * rho
        z1, z2 = (x1, y1), (x2, y2)
        t1, t2 = tau(z1, z1, z2), tau(z2, z1, z2)
        ok = np.minimum(np.abs(t1), np.abs(t2)) >= DEGENERATE_TAU_TOL
        for t in (t1, t2):
            ks, usable = _anchor_exponents(t, rho, C0)
            for delta, (i,) in _by_scale(ks, ok & usable):
                zi1, zi2 = (x1[i], y1[i]), (x2[i], y2[i])
                ok[i] &= ~(_near_wall(zi1, zi2, rho, delta) | _near_wall(zi2, zi1, rho, delta))
        take = np.nonzero(ok)[0][: n - filled]
        out[:, filled:filled + take.size] = x1[take], y1[take], x2[take], y2[take]
        filled += take.size
    return out


# ---------------------------------------------------------------------------
# Audits


def _containment_counts(arrays, rho, delta, xs, ys, xl, yl) -> np.ndarray:
    """How many of the pairs contain each canonical sample.

    h is a power of two, so a pair whose small-box base lies on the y-grid,
    cy1 = r*h, can contain a sample only in the row r = floor(ys/h), and
    then only if its column floor(cx1/g) is within -2..+1 of the column of
    the sample's snapped small box (`_snap_small`), the margins covering rounding
    and bases off the x-grid.  Those pairs are sorted by cell and each
    sample is tested only against the pairs of its four cells; pairs off
    the y-grid are tested against every sample.
    """
    cx1, cy1 = arrays[:2]
    h, g = _steps(rho, delta)
    rows, cols = np.floor(cy1 / h).astype(np.int64), np.floor(cx1 / g).astype(np.int64)
    on, width = rows * h == cy1, cols.max() - cols.min() + 4
    order = np.flatnonzero(on)[np.argsort((rows * width + cols)[on], kind="stable")]
    keys = (rows * width + cols)[order]
    sx, sy = _snap_small((xs, ys), rho, delta)
    key = np.floor(sy / h).astype(np.int64) * width + np.floor(sx / g).astype(np.int64)
    i, pos = _in_ranges(np.searchsorted(keys, key - 2), np.searchsorted(keys, key + 1, side="right"))
    off = np.flatnonzero(~on)
    i = np.append(i, np.repeat(np.arange(xs.size), off.size))
    p = np.append(order[pos], np.tile(off, xs.size))
    small, long = _pair_boxes(*(v[p] for v in arrays), rho, delta)
    hit = small.contains(xs[i], ys[i]) & long.contains(xl[i], yl[i])
    return np.bincount(i[hit], minlength=xs.size)


def audit_disjoint(decomp: WhitneyDecomposition, n: int, seed) -> AuditReport:
    """Within one scale and type, no sample may lie in two stored products.

    Per (scale, type) list, n samples are counted against the stored pairs:
    half drawn uniformly from the strip product, half drawn from the stored
    products themselves (cycling through all of them) so that containment is
    actually exercised.  Any sample covered twice is a violation.
    """
    n = _require_count(n=n)
    rng = np.random.default_rng(seed)
    rho = decomp.V1.rho
    failures = []
    tested = 0
    inside = 0
    max_count = 0
    for delta in sorted(decomp.scales):
        for slot, table in enumerate(decomp.scales[delta]):
            if not table:
                continue
            arrays = (table.cx1, table.cy1, table.ct2, table.cy2)
            g = _steps(rho, delta)[1]
            # canonical small slot lives in V1 for type 1 lists, V2 for type 2
            Vs, Vl = (decomp.V1, decomp.V2) if slot == 0 else (decomp.V2, decomp.V1)
            nu, nm = n // 2, n - n // 2
            us = np.empty((4, nu + nm))
            us[0, :nu] = rng.uniform(-1.0 - g, 1.0 + g, nu)
            us[1, :nu] = Vs.interval.left + rng.random(nu) * rho
            us[2, :nu] = rng.uniform(-1.0 - g, 1.0 + g, nu)
            us[3, :nu] = Vl.interval.left + rng.random(nu) * rho
            idx = np.arange(nm) % len(table)
            offs = rng.random((4, nm)) * OPEN_SCALE
            small, long = _pair_boxes(*(v[idx] for v in arrays), rho, delta)
            us[:2, nu:], us[2:, nu:] = small.member(*offs[:2]), long.member(*offs[2:])
            counts = _containment_counts(arrays, rho, delta, *us)
            tested += counts.size
            inside += int((counts > 0).sum())
            max_count = max(max_count, int(counts.max()))
            for i in np.nonzero(counts >= 2)[0][:5]:
                failures.append({
                    "delta": delta,
                    "pair_type": slot + 1,
                    "sample": [float(v) for v in us[:, i]],
                    "count": int(counts[i]),
                })
    return AuditReport(
        name="whitney_disjoint",
        passed=not failures,
        samples=tested,
        stats={
            "scales": len(decomp.scales),
            "samples_inside_some_product": inside,
            "max_containment_count": max_count,
        },
        failures=failures,
    )


def _spans(scan):
    """Per point: how many candidates contain it, and the least and largest
    containing exponents (0 where none does)."""
    ks, ok = scan
    count = ok.sum(axis=0)
    some = count > 0
    k_lo = np.where(some, np.where(ok, ks, ks.max() + 1).min(axis=0), 0)
    k_hi = np.where(some, np.where(ok, ks, ks.min() - 1).max(axis=0), 0)
    return count, k_lo, k_hi


def _point(samples, i) -> dict:
    return {"z1": samples[:2, i].tolist(), "z2": samples[2:, i].tolist()}


def audit_overlap(decomp: WhitneyDecomposition, n: int, seed,
                  kappa: float = 8.0) -> AuditReport:
    """Cross-scale multiplicity bounds on n interior samples.

    Checks, per sample: at most 2^6 type-1 products contain it and their
    scales agree within 2^7 (same for type-2 by the swap symmetry); and when
    products of both types contain it, every involved scale is at least
    1/800, scales agree within 2^10, and the joint count is at most
    kappa*C0.
    """
    kappa = _require_positive(kappa=kappa)
    rng = np.random.default_rng(seed)
    V1, V2, C0 = decomp.V1, decomp.V2, decomp.C0
    samples = _interior_samples(rng, V1, V2, C0, n)
    spans = [_spans(scan) for scan in _covering(samples[:2], samples[2:], V1, V2, C0)]
    # (violation, per-sample mask, reason of sample i), in reason order
    checks = []
    ratio = []
    for t, (count, k_lo, k_hi) in enumerate(spans):
        r = np.ldexp(1.0, k_hi - k_lo)
        ratio.append(r)
        checks += [
            ("multiplicity", count > 64,
             lambda i, t=t, c=count: f"type-{t + 1} multiplicity {int(c[i])}"),
            ("scale_ratio", (count >= 2) & (r > 2.0**7),
             lambda i, t=t, r=r: f"type-{t + 1} scale ratio {float(r[i]):g}"),
        ]
    (c1, lo1, hi1), (c2, lo2, hi2) = spans
    mixed = (c1 > 0) & (c2 > 0)
    joint = c1 + c2
    small = np.ldexp(1.0, np.minimum(lo1, lo2))
    mixed_ratio = np.ldexp(1.0, np.maximum(hi1, hi2) - np.minimum(lo1, lo2))
    checks += [
        ("mixed_small_scale", mixed & (small < 1.0 / 800.0),
         lambda i: f"mixed containment at scale {float(small[i]):g} < 1/800"),
        ("mixed_scale_ratio", mixed & (mixed_ratio > 2.0**10),
         lambda i: f"mixed scale ratio {float(mixed_ratio[i]):g}"),
        ("mixed_count", mixed & (joint > kappa * C0),
         lambda i: f"mixed joint count {int(joint[i])}"),
    ]
    viol = dict.fromkeys([name for name, _, _ in checks], 0)
    for name, mask, _ in checks:
        viol[name] += int(mask.sum())
    bad = np.logical_or.reduce([mask for _, mask, _ in checks])
    failures = [{**_point(samples, i), "reasons": [why(i) for _, mask, why in checks if mask[i]]}
                for i in np.flatnonzero(bad)[:5]]
    return AuditReport(
        name="whitney_overlap",
        passed=all(v == 0 for v in viol.values()),
        samples=n,
        stats={
            "violations": viol,
            "max_multiplicity_type1": int(c1.max()),
            "max_multiplicity_type2": int(c2.max()),
            "max_scale_ratio_type1": float(ratio[0].max()),
            "max_scale_ratio_type2": float(ratio[1].max()),
            "mixed_samples": int(mixed.sum()),
            "max_mixed_joint_count": int((joint * mixed).max()),
        },
        failures=failures,
    )


def audit_locate(V1: Strip, V2: Strip, C0, n: int, seed) -> AuditReport:
    """Location on n interior samples: the anchor type's middle scan row
    must be admissible, contain its sample, and sit in the exact scale
    window.  Failure entries carry locate_pair's error."""
    rho, C0 = _check_strips(V1, V2, C0)
    rng = np.random.default_rng(seed)
    samples = _interior_samples(rng, V1, V2, C0, n)
    z1, z2 = samples[:2], samples[2:]
    a1, a2 = np.abs(tau(z1, z1, z2)), np.abs(tau(z2, z1, z2))
    swap = a2 < a1
    (ks1, ok1), (ks2, ok2) = _covering(z1, z2, V1, V2, C0)
    ks = np.where(swap, ks2[3], ks1[3])
    scale = C0 * C0 * rho * rho * np.ldexp(1.0, ks)
    anchor = np.where(swap, a2, a1)
    good = ((np.minimum(a1, a2) >= DEGENERATE_TAU_TOL) & np.where(swap, ok2[3], ok1[3])
            & (scale <= anchor) & (anchor < 2.0 * scale))
    failures = []
    for i in np.flatnonzero(~good)[:5]:
        point = _point(samples, i)
        try:
            locate_pair(point["z1"], point["z2"], V1, V2, C0)
            error = "anchor discrepancy outside the scale window"
        except (DegenerateTau, LocationFailed, ValueError) as exc:
            error = str(exc)
        failures.append({**point, "error": error})
    successes = int(good.sum())
    deltas = np.ldexp(1.0, ks[good])
    return AuditReport(
        name="whitney_locate",
        passed=successes == n,
        samples=n,
        stats={
            "successes": successes,
            "type1_share": int((good & ~swap).sum()) / max(n, 1),
            "delta_min": float(deltas.min()) if successes else None,
            "delta_max": float(deltas.max()) if successes else None,
        },
        failures=failures,
    )


def _class_counts(scan) -> np.ndarray:
    """Per point: how many distinct scale classes its containing candidates
    fall in."""
    ks, ok = scan
    r, i = np.nonzero(ok)
    classes = np.zeros((10, ks.shape[1]), dtype=bool)
    classes[ks[r, i] % 10, i] = True
    return classes.sum(axis=0)


def audit_chi(decomp: WhitneyDecomposition, n: int, seed) -> AuditReport:
    """The signed sum over the ten type-1 and the ten type-2 scale classes
    of a point's containing products must be exactly 1 on interior
    non-degenerate samples and exactly 0 once a coordinate leaves the strip
    product."""
    rng = np.random.default_rng(seed)
    V1, V2, C0 = decomp.V1, decomp.V2, decomp.C0
    rho = V1.rho
    samples = _interior_samples(rng, V1, V2, C0, n)
    outside = samples[:, :max(n // 4, 1)].copy()
    for i in range(outside.shape[1]):
        mode = i % 4
        if mode == 0:
            outside[1, i] += 2.0 * rho * (1 + int(rng.integers(0, 3)))
        elif mode == 1:
            outside[3, i] -= 2.0 * rho * (1 + int(rng.integers(0, 3)))
        elif mode == 2:
            outside[0, i] = 1.0 + rng.random() + 1e-9
        else:
            outside[2, i] = -1.0 - rng.random() - 1e-9
    failures = []
    for points, want in ((samples, 1), (outside, 0)):
        n_a, n_t = (_class_counts(scan) for scan in _covering(points[:2], points[2:], V1, V2, C0))
        chi = _SIGNED_SUMS[n_a, n_t]
        failures += [{**_point(points, i), "chi": int(chi[i]), "want": want}
                     for i in np.flatnonzero(chi != want)[:5 - len(failures)]]
    return AuditReport(
        name="whitney_chi",
        passed=not failures,
        samples=n + outside.shape[1],
        stats={"interior": n, "outside": outside.shape[1]},
        failures=failures,
    )
