"""Scale location and covering structure for the admissible box pairs.

The admissible pairs over one separated strip pair, taken over all dyadic
scales delta, tile the off-diagonal part of the strip product: every
non-degenerate point (z1, z2) lies in at least one product, within one scale
and type it lies in at most one, and the scales that can contain it are
pinned to a narrow dyadic window by the size of its anchored discrepancies.
This module materializes bounded snapshots of that family (decompose: one
`geometry.PairTable` per scale and type, columns of canonical parameters
with the exact stream size and the stride of the stored subset), finds the
pair containing a given point constructively (locate_pair), enumerates
every containing product by scanning the dyadic window (containing_pairs),
and audits the covering claims on random samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    OPEN_SCALE,
    DELTA_MIN,
    AdmissiblePair,
    Rejected,
    Strip,
    _canonical_contains,
    _check_strips,
    _long_coords,
    _long_member,
    _conditions,
    _small_coords,
    _small_member,
    _steps,
    make_type1_pair,
    make_type2_pair,
    pair_sample,
)
from .reports import AuditReport
from .surface import tau

__all__ = [
    "DegenerateTau",
    "LocationFailed",
    "WhitneyDecomposition",
    "decompose",
    "locate_pair",
    "containing_pairs",
    "classes_and_chi",
    "audit_disjoint",
    "audit_overlap",
    "audit_locate",
    "audit_chi",
]

DEGENERATE_TAU_TOL = 1e-14
# No pair is located below this scale; discrepancies that small are treated
# as degenerate rather than mapped to astronomically fine grids.
LOG2_DELTA_FLOOR = -40
BOUNDARY_TOL = 2.0**-40


class DegenerateTau(ValueError):
    """Both anchored discrepancies vanish (or nearly so); no scale fits."""


class LocationFailed(RuntimeError):
    """The snapped candidate was rejected or does not contain the point."""


def _floor_log2(x: float) -> int:
    mant, exp = math.frexp(x)
    return exp - 1


def _ceil_log2(x: float) -> int:
    mant, exp = math.frexp(x)
    return exp - 1 if mant == 0.5 else exp


def _class_index(delta: float) -> int:
    """Residue class of the scale exponent, ten classes per spec'd period."""
    return _floor_log2(delta) % 10


def _snap_type1(x1, y1, x2, y2, rho, delta):
    """Grid parameters of the only type-1 pair at this scale that can
    contain ((x1,y1),(x2,y2)): floor-snap y first, then the sheared x's
    (box coordinates about the x-origin)."""
    h, g = _steps(rho, delta)
    y10 = h * math.floor(y1 / h)
    x10 = g * math.floor(_small_coords(0.0, y10, x1, y1)[0] / g)
    t20 = g * math.floor(_long_coords(0.0, y10, 0.0, x2, y2)[0] / g)
    y20 = rho * math.floor(y2 / rho)
    return x10, y10, t20, y20


# ---------------------------------------------------------------------------
# Point location


def locate_pair(z1, z2, V1: Strip, V2: Strip, C0) -> AdmissiblePair:
    """The admissible pair containing (z1, z2), built constructively.

    The anchor is the slot with the smaller absolute discrepancy; its size
    fixes the unique dyadic scale with C0^2 rho^2 delta <= |tau| <
    2 C0^2 rho^2 delta, and floor-snapping the anchor's coordinates onto the
    scale grids gives the candidate.  Raises DegenerateTau when both
    discrepancies are below tolerance (or the scale would fall under 2^-40)
    and LocationFailed if the candidate fails re-validation.
    """
    C0 = float(C0)
    rho = _check_strips(V1, V2, C0)
    if not (V1.contains(z1) and V2.contains(z2)):
        raise ValueError("points must lie in the strip product")
    t1 = tau(z1, z1, z2)
    t2 = tau(z2, z1, z2)
    if min(abs(t1), abs(t2)) < DEGENERATE_TAU_TOL:
        raise DegenerateTau(f"discrepancies {t1:.3e}, {t2:.3e} below tolerance")
    if abs(t1) <= abs(t2):
        return _locate_anchor(z1, z2, rho, C0, t1)
    return _locate_anchor(z2, z1, rho, C0, t2).swapped()


def _locate_anchor(zs, zl, rho, C0, t_anchor) -> AdmissiblePair:
    # C0^2 rho^2 is a power of two, so the dyadic window test is exact.
    k = _floor_log2(abs(t_anchor) / (C0 * C0 * rho * rho))
    if k < LOG2_DELTA_FLOOR:
        raise DegenerateTau(f"anchor discrepancy {t_anchor:.3e} needs a scale below 2^{LOG2_DELTA_FLOOR}")
    delta = math.ldexp(1.0, k)
    if rho * rho * delta > 4.0:
        raise LocationFailed("anchor discrepancy exceeds the coarsest scale")
    x10, y10, t20, y20 = _snap_type1(zs[0], zs[1], zl[0], zl[1], rho, delta)
    cand = make_type1_pair(x10, y10, t20, y20, rho, delta, C0)
    if isinstance(cand, Rejected):
        raise LocationFailed(f"snapped candidate rejected ({cand.which}): {cand.message}")
    if not cand.contains(zs, zl):
        raise LocationFailed("snapped candidate does not contain the sample")
    return cand


# ---------------------------------------------------------------------------
# Containment scans


def containing_pairs(z1, z2, V1: Strip, V2: Strip, C0) -> tuple:
    """Every admissible product containing (z1, z2), split by type.

    Containment at scale delta forces the anchored discrepancy of the small
    slot into a fixed multiplicative window around C0^2 rho^2 delta, so only
    a few dyadic scales need checking, and within one scale and type the
    candidate grid parameters are unique.  Points outside the strip product
    are in no pair.
    """
    C0 = float(C0)
    rho = _check_strips(V1, V2, C0)
    if not (V1.contains(z1) and V2.contains(z2)):
        return [], []
    type1 = _anchor_candidates(z1, z2, rho, C0)
    type2 = [p.swapped() for p in _anchor_candidates(z2, z1, rho, C0)]
    return type1, type2


def _anchor_candidates(zs, zl, rho, C0) -> list:
    t_anchor = tau(zs, zs, zl)
    a = abs(t_anchor)
    if a < 1e-300:
        return []
    kc = _floor_log2(a / (C0 * C0 * rho * rho))
    k_max = min(kc + 3, _floor_log2(4.0 / (rho * rho)))
    out = []
    for k in range(max(kc - 3, LOG2_DELTA_FLOOR), k_max + 1):
        delta = math.ldexp(1.0, k)
        x10, y10, t20, y20 = _snap_type1(zs[0], zs[1], zl[0], zl[1], rho, delta)
        # most snaps fail a window; checking first is cheaper than letting
        # make_type1_pair re-validate the grid and build a Rejected for each
        if not all(_conditions(x10, y10, t20, y20, rho, delta, C0)):
            continue
        cand = make_type1_pair(x10, y10, t20, y20, rho, delta, C0)
        if isinstance(cand, AdmissiblePair) and cand.contains(zs, zl):
            out.append(cand)
    return out


def classes_and_chi(decomp: "WhitneyDecomposition", z1, z2) -> int:
    """Signed indicator sum over all joint intersections of the ten
    type-1 scale classes and the ten type-2 classes (the empty-empty term
    excluded).  Equals 1 exactly when some product of either type contains
    the point, 0 otherwise; evaluated by exact integer counting.
    """
    type1, type2 = containing_pairs(z1, z2, decomp.V1, decomp.V2, decomp.C0)
    n_a = len({_class_index(p.delta) for p in type1})
    n_t = len({_class_index(p.delta) for p in type2})
    total = 0
    for a in range(n_a + 1):
        for b in range(n_t + 1):
            if a == 0 and b == 0:
                continue
            total += (-1) ** (a + b + 1) * math.comb(n_a, a) * math.comb(n_t, b)
    return total


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
        scales = {}
        for delta in sorted(self.scales):
            t1, t2 = self.scales[delta]
            scales[f"2^{_floor_log2(delta)}"] = {
                "delta": delta,
                "type1_total": t1.total,
                "type2_total": t2.total,
                "type1_stored": len(t1),
                "type2_stored": len(t2),
                "stride1": t1.stride,
                "stride2": t2.stride,
            }
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
        import json

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

    Scales outside the enumerable window (below 2^-20 or with
    rho^2 delta > 4) are skipped.  A scale whose stream exceeds cap stores
    an evenly strided subset (full counts stay exact).  An empty range yields
    an empty decomposition.
    """
    C0 = float(C0)
    rho = _check_strips(V1, V2, C0)
    delta_min, delta_max = float(delta_min), float(delta_max)
    if delta_min <= 0 or delta_max <= 0:
        raise ValueError("scale range must be positive")
    if cap < 1:
        raise ValueError("cap must be positive")
    out = WhitneyDecomposition(V1, V2, C0, delta_min, delta_max)
    if delta_min > delta_max:
        return out
    for k in range(_ceil_log2(delta_min), _floor_log2(delta_max) + 1):
        delta = math.ldexp(1.0, k)
        if delta < DELTA_MIN or rho * rho * delta > 4.0:
            continue
        out.scales[delta] = (pair_sample(V1, V2, delta, C0, 1, cap),
                             pair_sample(V1, V2, delta, C0, 2, cap))
    return out


# ---------------------------------------------------------------------------
# Sampling helpers


def _near_wall(zs, zl, rho, delta) -> bool:
    """True when the point sits within 2^-40 of a snap-grid wall at this
    scale (normalized units); such samples are re-drawn before audits."""
    h, g = _steps(rho, delta)
    x10, y10, t20, y20 = _snap_type1(zs[0], zs[1], zl[0], zl[1], rho, delta)
    us, dys = _small_coords(x10, y10, zs[0], zs[1])
    ul, dyl = _long_coords(t20, y10, y20, zl[0], zl[1])
    for frac in (dys / h, dyl / rho, us / g, ul / g):
        if min(frac, 1.0 - frac) < BOUNDARY_TOL:
            return True
    return False


def _interior_samples(rng, V1: Strip, V2: Strip, C0, n: int):
    """n points of V1 x V2, re-drawn while degenerate or wall-adjacent."""
    if n < 1:
        raise ValueError("need n >= 1")
    rho = V1.rho
    out = np.empty((4, n))
    filled = 0
    while filled < n:
        m = n - filled
        x1 = rng.uniform(-1.0, 1.0, m)
        y1 = V1.interval.left + rng.random(m) * rho
        x2 = rng.uniform(-1.0, 1.0, m)
        y2 = V2.interval.left + rng.random(m) * rho
        t1 = tau((x1, y1), (x1, y1), (x2, y2))
        t2 = tau((x2, y2), (x1, y1), (x2, y2))
        ok = np.minimum(np.abs(t1), np.abs(t2)) > 1e-12
        for i in np.nonzero(ok)[0]:
            k1 = _floor_log2(abs(float(t1[i])) / (C0 * C0 * rho * rho))
            k2 = _floor_log2(abs(float(t2[i])) / (C0 * C0 * rho * rho))
            z1, z2 = (float(x1[i]), float(y1[i])), (float(x2[i]), float(y2[i]))
            for k in (k1, k2):
                if LOG2_DELTA_FLOOR <= k and rho * rho * math.ldexp(1.0, k) <= 4.0:
                    if _near_wall(z1, z2, rho, math.ldexp(1.0, k)) or \
                       _near_wall(z2, z1, rho, math.ldexp(1.0, k)):
                        ok[i] = False
                        break
        idx = np.nonzero(ok)[0]
        take = idx[: n - filled]
        out[0, filled:filled + take.size] = x1[take]
        out[1, filled:filled + take.size] = y1[take]
        out[2, filled:filled + take.size] = x2[take]
        out[3, filled:filled + take.size] = y2[take]
        filled += take.size
    return out


# ---------------------------------------------------------------------------
# Audits


def _containment_counts(arrays, rho, delta, x1, y1, x2, y2) -> np.ndarray:
    """How many of the pairs contain each canonical sample; chunked."""
    points = (x1[None, :], y1[None, :], x2[None, :], y2[None, :])
    counts = np.zeros(x1.size, dtype=np.int64)
    for lo in range(0, arrays[0].size, 1024):
        chunk = (v[lo:lo + 1024, None] for v in arrays)
        counts += _canonical_contains(*chunk, rho, delta, *points).sum(axis=0)
    return counts


def audit_disjoint(decomp: WhitneyDecomposition, n: int, seed) -> AuditReport:
    """Within one scale and type, no sample may lie in two stored products.

    Per (scale, type) list, n samples are tested against every stored pair:
    half drawn uniformly from the strip product, half drawn from the stored
    products themselves (cycling through all of them) so that containment is
    actually exercised.  Any sample covered twice is a violation.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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
            cx1, cy1, ct2, cy2 = arrays
            h, g = _steps(rho, delta)
            # canonical small slot lives in V1 for type 1 lists, V2 for type 2
            Vs = decomp.V1 if slot == 0 else decomp.V2
            Vl = decomp.V2 if slot == 0 else decomp.V1
            nu = n // 2
            nm = n - nu
            us = np.empty((4, nu + nm))
            us[0, :nu] = rng.uniform(-1.0 - g, 1.0 + g, nu)
            us[1, :nu] = Vs.interval.left + rng.random(nu) * rho
            us[2, :nu] = rng.uniform(-1.0 - g, 1.0 + g, nu)
            us[3, :nu] = Vl.interval.left + rng.random(nu) * rho
            idx = np.arange(nm) % len(table)
            offs = rng.random((4, nm)) * OPEN_SCALE
            us[0, nu:], us[1, nu:] = _small_member(cx1[idx], cy1[idx], h, g, offs[0], offs[1])
            us[2, nu:], us[3, nu:] = _long_member(ct2[idx], cy1[idx], cy2[idx], rho, g,
                                                  offs[2], offs[3])
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


def audit_overlap(decomp: WhitneyDecomposition, n: int, seed,
                  kappa: float = 8.0) -> AuditReport:
    """Cross-scale multiplicity bounds on n interior samples.

    Checks, per sample: at most 2^6 type-1 products contain it and their
    scales agree within 2^7 (same for type-2 by the swap symmetry); and when
    products of both types contain it, every involved scale is at least
    1/800, scales agree within 2^10, and the joint count is at most
    kappa*C0.
    """
    rng = np.random.default_rng(seed)
    V1, V2, C0 = decomp.V1, decomp.V2, decomp.C0
    samples = _interior_samples(rng, V1, V2, C0, n)
    viol = {
        "multiplicity": 0,
        "scale_ratio": 0,
        "mixed_small_scale": 0,
        "mixed_scale_ratio": 0,
        "mixed_count": 0,
    }
    failures = []
    max_mult = [0, 0]
    max_ratio = [1.0, 1.0]
    mixed_seen = 0
    mixed_max = 0
    for i in range(n):
        z1 = (float(samples[0, i]), float(samples[1, i]))
        z2 = (float(samples[2, i]), float(samples[3, i]))
        groups = containing_pairs(z1, z2, V1, V2, C0)
        bad = []
        for t, grp in enumerate(groups):
            max_mult[t] = max(max_mult[t], len(grp))
            if len(grp) > 64:
                viol["multiplicity"] += 1
                bad.append(f"type-{t + 1} multiplicity {len(grp)}")
            if len(grp) >= 2:
                deltas = [p.delta for p in grp]
                ratio = max(deltas) / min(deltas)
                max_ratio[t] = max(max_ratio[t], ratio)
                if ratio > 2.0**7:
                    viol["scale_ratio"] += 1
                    bad.append(f"type-{t + 1} scale ratio {ratio:g}")
        if groups[0] and groups[1]:
            mixed_seen += 1
            deltas = [p.delta for p in groups[0] + groups[1]]
            joint = len(groups[0]) + len(groups[1])
            mixed_max = max(mixed_max, joint)
            if min(deltas) < 1.0 / 800.0:
                viol["mixed_small_scale"] += 1
                bad.append(f"mixed containment at scale {min(deltas):g} < 1/800")
            if max(deltas) / min(deltas) > 2.0**10:
                viol["mixed_scale_ratio"] += 1
                bad.append(f"mixed scale ratio {max(deltas) / min(deltas):g}")
            if joint > kappa * C0:
                viol["mixed_count"] += 1
                bad.append(f"mixed joint count {joint}")
        if bad and len(failures) < 5:
            failures.append({"z1": list(z1), "z2": list(z2), "reasons": bad})
    return AuditReport(
        name="whitney_overlap",
        passed=all(v == 0 for v in viol.values()),
        samples=n,
        stats={
            "violations": viol,
            "max_multiplicity_type1": max_mult[0],
            "max_multiplicity_type2": max_mult[1],
            "max_scale_ratio_type1": max_ratio[0],
            "max_scale_ratio_type2": max_ratio[1],
            "mixed_samples": mixed_seen,
            "max_mixed_joint_count": mixed_max,
        },
        failures=failures,
    )


def audit_locate(V1: Strip, V2: Strip, C0, n: int, seed) -> AuditReport:
    """locate_pair on n interior samples: every result must re-validate as
    admissible, contain its sample, and sit in the exact scale window."""
    C0 = float(C0)
    rho = _check_strips(V1, V2, C0)
    rng = np.random.default_rng(seed)
    samples = _interior_samples(rng, V1, V2, C0, n)
    successes = 0
    type1 = 0
    deltas = []
    failures = []
    for i in range(n):
        z1 = (float(samples[0, i]), float(samples[1, i]))
        z2 = (float(samples[2, i]), float(samples[3, i]))
        try:
            pair = locate_pair(z1, z2, V1, V2, C0)
            p = pair.params
            if pair.pair_type == 1:
                rebuilt = make_type1_pair(p["x1_0"], p["y1_0"], p["t2_0"], p["y2_0"],
                                          pair.rho, pair.delta, C0)
                anchor = tau(z1, z1, z2)
            else:
                rebuilt = make_type2_pair(p["t1_0"], p["y1_0"], p["x2_0"], p["y2_0"],
                                          pair.rho, pair.delta, C0)
                anchor = tau(z2, z1, z2)
            scale = C0 * C0 * rho * rho * pair.delta
            if not isinstance(rebuilt, AdmissiblePair):
                raise LocationFailed(f"re-validation rejected: {rebuilt}")
            if rebuilt != pair or not pair.contains(z1, z2):
                raise LocationFailed("re-validated pair mismatch or not containing")
            if not scale <= abs(anchor) < 2.0 * scale:
                raise LocationFailed("anchor discrepancy outside the scale window")
            successes += 1
            type1 += pair.pair_type == 1
            deltas.append(pair.delta)
        except (DegenerateTau, LocationFailed, ValueError) as exc:
            if len(failures) < 5:
                failures.append({"z1": list(z1), "z2": list(z2), "error": str(exc)})
    return AuditReport(
        name="whitney_locate",
        passed=successes == n,
        samples=n,
        stats={
            "successes": successes,
            "type1_share": type1 / max(n, 1),
            "delta_min": min(deltas) if deltas else None,
            "delta_max": max(deltas) if deltas else None,
        },
        failures=failures,
    )


def audit_chi(decomp: WhitneyDecomposition, n: int, seed) -> AuditReport:
    """classes_and_chi must be exactly 1 on interior non-degenerate samples
    and exactly 0 once a coordinate leaves the strip product."""
    rng = np.random.default_rng(seed)
    V1, V2, C0 = decomp.V1, decomp.V2, decomp.C0
    rho = V1.rho
    samples = _interior_samples(rng, V1, V2, C0, n)
    failures = []
    for i in range(n):
        z1 = (float(samples[0, i]), float(samples[1, i]))
        z2 = (float(samples[2, i]), float(samples[3, i]))
        val = classes_and_chi(decomp, z1, z2)
        if val != 1 and len(failures) < 5:
            failures.append({"z1": list(z1), "z2": list(z2), "chi": val, "want": 1})
    n_out = max(n // 4, 1)
    outside = 0
    for i in range(n_out):
        z1 = (float(samples[0, i]), float(samples[1, i]))
        z2 = (float(samples[2, i]), float(samples[3, i]))
        mode = i % 4
        if mode == 0:
            z1 = (z1[0], z1[1] + 2.0 * rho * (1 + int(rng.integers(0, 3))))
        elif mode == 1:
            z2 = (z2[0], z2[1] - 2.0 * rho * (1 + int(rng.integers(0, 3))))
        elif mode == 2:
            z1 = (1.0 + rng.random() + 1e-9, z1[1])
        else:
            z2 = (-1.0 - rng.random() - 1e-9, z2[1])
        val = classes_and_chi(decomp, z1, z2)
        outside += 1
        if val != 0 and len(failures) < 5:
            failures.append({"z1": list(z1), "z2": list(z2), "chi": val, "want": 0})
    return AuditReport(
        name="whitney_chi",
        passed=not failures,
        samples=n + outside,
        stats={"interior": n, "outside": outside},
        failures=failures,
    )
