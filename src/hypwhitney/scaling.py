"""Normalized-coordinate reduction of box pairs and the prototype scaling.

The reduction sends a type-1 box pair at scales (rho, delta) to unit scales:
an affine map T takes the small parallelogram exactly onto [0, 1^delta)^2 and
the long box onto a curved unit box, while the phase transforms as

    phase(z) = rho^3 (1 v delta) phase_delta(Tz) + L(z)

with phase_delta from the rescaled family and L affine.  L's coefficients
have closed forms in (x1_0, y1_0); the residual of the identity is the guard
against drift.

The prototype scaling is the anisotropic map A(xbar, ybar) = (delta*xbar,
ybar) applied to a standard small-delta pair.  It equalizes the two
transversality sizes at the cost of a Hessian entry of size 1/delta; audits
check delta-stability of the scaled transversalities since no absolute
constants are available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import OPEN_SCALE, AdmissiblePair, Carrier, _require_count, sample_members
from .reports import AuditReport, fit_power_law
from .surface import (BASE, PhaseFamily, _finite_array, _require_finite, _require_positive, gamma2,
                      phase_eval, tv_values)

__all__ = [
    "AffineMap2",
    "ReductionResult",
    "PrototypeScene",
    "reduce",
    "prototype",
    "audit_prototype_tv",
    "prototype_tv_stability",
    "gamma_scaled_audit",
    "audit_hessian_entry",
    "DEFAULT_PROTOTYPE_C0",
]

DEFAULT_PROTOTYPE_C0 = 2.0**-5

GAMMA_BAND = 64.0
# The largest ratio of the scaled transversality medians across scenes.
TV_MEDIAN_BAND = 4.0


@dataclass(frozen=True, eq=False)
class AffineMap2:
    """Affine map z -> linear @ z + offset on the plane."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", _finite_array(linear=self.linear).reshape(2, 2))
        object.__setattr__(self, "offset", _finite_array(offset=self.offset).reshape(2))
        if self.det == 0.0:
            raise ValueError("linear part must be invertible")

    @property
    def det(self) -> float:
        m = self.linear
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def apply(self, z):
        """Map z = (x, y); coordinates may be scalars or arrays."""
        x = np.asarray(z[0], dtype=float)
        y = np.asarray(z[1], dtype=float)
        m, c = self.linear, self.offset
        return np.stack([m[0, 0] * x + m[0, 1] * y + c[0], m[1, 0] * x + m[1, 1] * y + c[1]])


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Unit-scale normalization of one type-1 box pair."""

    map: AffineMap2
    family: PhaseFamily
    remainder_coeffs: tuple
    scaled_a: float
    scaled_b: float
    rho: float
    delta: float

    @property
    def phase_factor(self) -> float:
        return self.rho**3 * max(1.0, self.delta)

    def remainder(self, z):
        l0, l1, l2 = self.remainder_coeffs
        return l0 + l1 * np.asarray(z[0], float) + l2 * np.asarray(z[1], float)

    def residual(self, z):
        """phase(z) - factor * phase_delta(Tz) - L(z); identically 0 in exact arithmetic."""
        return phase_eval(BASE, z) - self.phase_factor * phase_eval(self.family, self.map.apply(z)) - self.remainder(z)

    def image(self, slot: int) -> Carrier:
        """The unit image under the map of the small box (slot 1), the square
        [0, w)^2, or of the long box (slot 2), {0 <= y - scaled_b < 1,
        0 <= x + c*y^2 - scaled_a < w}, where w = 1 ^ delta and c is the
        rescaled family's cubic coefficient."""
        w = min(1.0, self.delta)
        if slot == 1:
            return Carrier(0.0, w, 0.0, w)
        if slot == 2:
            return Carrier(self.scaled_a, w, self.scaled_b, 1.0, (0.0, self.family.cubic, 0.0))
        raise ValueError("slot must be 1 or 2")


def reduce(pair: AdmissiblePair) -> ReductionResult:
    """Reduction of a pair to unit scales; type 2 reduces with roles swapped."""
    if pair.pair_type == 2:
        return reduce(pair.swapped())
    rho, delta = pair.rho, pair.delta
    s = 1.0 / (max(1.0, delta) * rho * rho)
    x10, y10 = pair.cx1, pair.cy1
    T = AffineMap2(
        [[s, s * y10], [0.0, 1.0 / rho]],
        [-s * (x10 + y10 * y10), -y10 / rho],
    )
    # phase(z) - rho^3 (1 v delta) phase_delta(Tz) expands to an affine form
    coeffs = (-(x10 * y10) - 2.0 * y10**3 / 3.0, y10, x10 + y10 * y10)
    a = s * (pair.ct2 - x10)
    b = (pair.cy2 - y10) / rho
    return ReductionResult(
        map=T,
        family=PhaseFamily.rescaled(delta),
        remainder_coeffs=coeffs,
        scaled_a=a,
        scaled_b=b,
        rho=rho,
        delta=delta,
    )


@dataclass(frozen=True)
class PrototypeScene:
    """Standard small-delta pair and its anisotropic unit normalization.

    Unscaled sets: U1 = [0, c0^2 delta) x [0, c0 delta) and the curved box
    U2 = {0 <= y - b < c0, 0 <= x + y^2 - a < c0^2 delta}, the carriers of
    slots 1 and 2.  Scaled sets are their preimages under
    A(xbar, ybar) = (delta xbar, ybar), the `scaling_map`.
    """

    delta: float
    c0: float
    a: float
    b: float

    @property
    def family(self) -> PhaseFamily:
        return PhaseFamily.prototype(self.delta)

    @property
    def scaling_map(self) -> AffineMap2:
        return AffineMap2([[self.delta, 0.0], [0.0, 1.0]], [0.0, 0.0])

    def carrier(self, slot: int) -> Carrier:
        """The unscaled box U1 (slot 1) or U2 (slot 2)."""
        w = self.c0 * self.c0 * self.delta
        if slot == 1:
            return Carrier(0.0, w, 0.0, self.c0 * self.delta)
        if slot == 2:
            return Carrier(self.a, w, self.b, self.c0, (0.0, 1.0, 0.0))
        raise ValueError("slot must be 1 or 2")

    def sample_scaled(self, n: int, seed) -> tuple:
        """n member pairs of (U1^s, U2^s), shape (2, n) each: members of the
        two carriers with x divided by delta, which is A^-1 (exact for a
        dyadic delta)."""
        rng = np.random.default_rng(seed)
        u1, v1, u2, v2 = rng.random((4, _require_count(n=n))) * OPEN_SCALE
        (x1, y1), (x2, y2) = self.carrier(1).member(u1, v1), self.carrier(2).member(u2, v2)
        return np.stack([x1 / self.delta, y1]), np.stack([x2 / self.delta, y2])


def prototype(delta: float, c0: float, a: float, b: float) -> PrototypeScene:
    """Validated prototype scene; rejects parameters outside the windows."""
    delta, c0 = _require_positive(delta=delta, c0=c0)
    a, b = _require_finite(a=a, b=b)
    # The curved-box constructions stay meaningful up to delta = 1/2, which
    # the scaling-law experiments use; the transversality-stability audits
    # themselves only ever run deep in the small-delta regime.
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta={delta} outside (0, 1/2]")
    if not 0.0 < c0 <= 0.25:
        raise ValueError(f"c0={c0} outside (0, 1/4]")
    if not 0.5 <= abs(b) <= 2.0:
        raise ValueError(f"|b|={abs(b)} outside [1/2, 2]")
    if not delta / 4.0 <= abs(a) <= 4.0 * delta:
        raise ValueError(f"|a|={abs(a)} outside [delta/4, 4*delta]")
    return PrototypeScene(delta=delta, c0=c0, a=a, b=b)


def audit_prototype_tv(scene: PrototypeScene, n: int, seed) -> AuditReport:
    """Transversality statistics for one scene.

    Both scaled quantities should be of unit order with constants that do
    not depend on delta; the unscaled first quantity at the same points is
    of order delta.  Cross-scene stability is judged by the caller.
    """
    z1, z2 = scene.sample_scaled(n, seed)
    tv1s, tv2s = tv_values(scene.family, z1[0], z1[1], z2[0], z2[1])
    zu1 = scene.scaling_map.apply(z1)
    zu2 = scene.scaling_map.apply(z2)
    tv1u, _ = tv_values(BASE, zu1[0], zu1[1], zu2[0], zu2[1])
    degenerate = int((~np.isfinite(tv1s)).sum())
    good = np.isfinite(tv1s)
    a1, a2, au = np.abs(tv1s[good]), np.abs(tv2s[good]), np.abs(tv1u[good])
    stats = {
        "tv1_scaled": {"min": float(a1.min()), "max": float(a1.max()), "median": float(np.median(a1))},
        "tv2_scaled": {"min": float(a2.min()), "max": float(a2.max()), "median": float(np.median(a2))},
        "tv1_unscaled_median": float(np.median(au)),
        "degenerate": degenerate,
        "delta": scene.delta,
    }
    passed = degenerate == 0 and np.isfinite(a1).all() and a1.min() > 0 and a2.min() > 0
    return AuditReport(name="prototype_tv", passed=bool(passed), samples=n, stats=stats)


def prototype_tv_stability(deltas, c0: float, n: int, seed) -> AuditReport:
    """Delta-stability of the scaled transversalities across scenes.

    Medians of |TV1^s| and |TV2^s| must agree within a factor TV_MEDIAN_BAND
    across the given scales, while the unscaled |TV1| must scale like delta
    (fitted exponent within 0.15 of 1).
    """
    deltas = [_require_positive(delta=d) for d in deltas]
    med1, med2, medu = [], [], []
    for k, d in enumerate(deltas):
        scene = prototype(d, c0, a=d, b=1.0)
        rep = audit_prototype_tv(scene, n, seed=[0 if seed is None else seed, k])
        med1.append(rep.stats["tv1_scaled"]["median"])
        med2.append(rep.stats["tv2_scaled"]["median"])
        medu.append(rep.stats["tv1_unscaled_median"])
    spread1 = max(med1) / min(med1)
    spread2 = max(med2) / min(med2)
    fit = fit_power_law(np.array(deltas), np.array(medu))
    passed = spread1 <= TV_MEDIAN_BAND and spread2 <= TV_MEDIAN_BAND and abs(fit.exponent - 1.0) <= 0.15
    return AuditReport(
        name="prototype_tv_stability",
        passed=bool(passed),
        samples=n * len(deltas),
        stats={
            "deltas": deltas,
            "tv1_scaled_medians": med1,
            "tv2_scaled_medians": med2,
            "tv1_scaled_spread": float(spread1),
            "tv2_scaled_spread": float(spread2),
            "tv1_unscaled_medians": medu,
            "unscaled_exponent": fit.exponent,
            "unscaled_r_squared": fit.r_squared,
        },
    )


def gamma_scaled_audit(pair: AdmissiblePair, n: int, seed) -> AuditReport:
    """Size of the normalized second-order form at mapped members.

    Anchored at the image of the small-box point the form is of size
    C0^3 (1 ^ delta); anchored at the long-box image point, of size C0^3.
    Both ratios must lie in [1/64, 64].
    """
    canon = pair if pair.pair_type == 1 else pair.swapped()
    red = reduce(canon)
    z1, z2 = sample_members(canon, n, seed)
    z1p, z2p = red.map.apply(z1.T), red.map.apply(z2.T)
    fam = red.family
    wedge = min(1.0, pair.delta)
    r1 = np.abs(gamma2(z1p, z1p, z2p, family=fam)) / (pair.C0**3 * wedge)
    r2 = np.abs(gamma2(z2p, z1p, z2p, family=fam)) / pair.C0**3
    b1p = red.map.apply(canon.base1)
    b2p = red.map.apply(canon.base2)
    rb1 = abs(float(gamma2(b1p, b1p, b2p, family=fam))) / (pair.C0**3 * wedge)
    rb2 = abs(float(gamma2(b2p, b1p, b2p, family=fam))) / pair.C0**3
    lo, hi = 1.0 / GAMMA_BAND, GAMMA_BAND
    bad = (r1 < lo) | (r1 > hi) | (r2 < lo) | (r2 > hi)
    base_ok = lo <= rb1 <= hi and lo <= rb2 <= hi
    failures = []
    for k in np.flatnonzero(bad)[:5]:
        failures.append({"z1": list(z1[k]), "z2": list(z2[k]), "r1": float(r1[k]), "r2": float(r2[k])})
    return AuditReport(
        name="gamma_scaled",
        passed=bool(base_ok and not bad.any()),
        samples=n,
        stats={
            "r1_min": float(r1.min()),
            "r1_max": float(r1.max()),
            "r2_min": float(r2.min()),
            "r2_max": float(r2.max()),
            "base_ratio_1": rb1,
            "base_ratio_2": rb2,
            "violations": int(bad.sum()),
        },
        failures=failures,
    )


def audit_hessian_entry(scene: PrototypeScene, n: int, seed) -> AuditReport:
    """Separation of the corner Hessian entry 2*ybar/delta between the sets.

    On U1^s the entry is below 2*c0; on U2^s its magnitude is of order
    1/delta, at least (|b| - c0) * 2/delta.
    """
    z1, z2 = scene.sample_scaled(n, seed)
    e1 = np.abs(2.0 * z1[1] / scene.delta)
    e2 = np.abs(2.0 * z2[1] / scene.delta)
    hi1 = 2.0 * scene.c0 + 1e-12
    lo2 = (abs(scene.b) - scene.c0) * 2.0 / scene.delta - 1e-12
    passed = e1.max() < hi1 and e2.min() > lo2
    return AuditReport(
        name="hessian_entry",
        passed=bool(passed),
        samples=n,
        stats={
            "U1s_max": float(e1.max()),
            "U1s_bound": hi1,
            "U2s_min": float(e2.min()),
            "U2s_bound": lo2,
            "separation_factor": float(e2.min() / max(e1.max(), 1e-300)),
        },
    )
