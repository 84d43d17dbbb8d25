"""Dyadic strips and the admissible box pairs on a strip pair.

For a fixed pair of strips at scale rho whose members are vertically
separated at scale C0*rho, the type-1/type-2 box pairs at scale delta are a
small sheared parallelogram U1 paired with a long (straight or curved) box
U2, constrained so that both endpoint transversality values have a fixed
dyadic size.

Every box is a `Carrier` with a factored shear; its `member` map and the
inverse `coords` are the package's only ones.  `contains` compares x with
the left wall that `member` computes, so every member lies in its own box.
`_pair_boxes` builds a pair's small and long boxes from its parameters or
from whole `PairTable` columns.

All membership predicates are half-open and evaluated with exact double
comparisons; every grid quantity here is a power of two, so snapping and
comparisons are exact.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Union

import numpy as np

from .reports import AuditReport
from .surface import _checked, _finite_real, _positive, _require_finite, tau

__all__ = [
    "DyadicInterval",
    "Strip",
    "Carrier",
    "AdmissiblePair",
    "PairTable",
    "Rejected",
    "is_dyadic",
    "separated_strip_pair",
    "make_type1_pair",
    "sample_members",
    "audit_tau_bounds",
    "pair_sample",
    "count_pairs",
]

# Sampled offsets are scaled into [0, 1 - 2^-30); `Carrier.member` also clamps
# below the excluded walls, onto which an offset near 1 rounds at fine scales.
OPEN_SCALE = 1.0 - 2.0**-30

# The finest enumerated scale: `pair_sample` gives empty tables below it.
DELTA_MIN = 2.0**-20
# The finest located scale.  Location snaps one candidate per scale and needs
# no pair stream, so it reaches far below DELTA_MIN.
LOG2_DELTA_FLOOR = -40


def is_dyadic(x) -> bool:
    """True iff x is a real power of two (`_positive`, so never a bool); an
    int must equal its float.  Never raises."""
    return _positive(x) and math.frexp(float(x))[0] == 0.5 and float(x) == x


def _floor_log2(x):
    """floor(log2(x)) for positive x: an int for a scalar, elementwise on
    arrays."""
    k = np.frexp(x)[1] - 1
    return k if np.ndim(k) else int(k)


def _ceil_log2(x: float) -> int:
    mant, exp = math.frexp(x)
    return exp - 1 if mant == 0.5 else exp


def _dyadic_label(x: float) -> str:
    """The label "2^k" of a scale x = 2^k."""
    return f"2^{_floor_log2(x)}"


def _require_dyadic(**kwargs):
    """The scales as floats (`_checked`); ValueError unless each is a power of two."""
    return _checked(is_dyadic, "{} must be a positive power of two, got {!r:.40}", float, kwargs)


def _require_count(**kwargs):
    """The counts as ints (`_checked`); ValueError unless each is an int >= 1."""
    return _checked(functools.partial(_positive, kind=numbers.Integral),
                    "need {} >= 1, an int, got {!r:.40}", int, kwargs)


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open dyadic interval [j*rho, j*rho + rho)."""

    j: int
    rho: float

    def __post_init__(self):
        if not (isinstance(self.j, numbers.Integral) and _finite_real(self.j)):
            raise ValueError(f"j must be an int, got {self.j!r:.40}")
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "rho", _require_dyadic(rho=self.rho))

    @property
    def left(self) -> float:
        return self.j * self.rho

    @property
    def right(self) -> float:
        return self.j * self.rho + self.rho

    def contains(self, y: float) -> bool:
        """Elementwise on arrays."""
        return (self.left <= y) & (y < self.right)


@dataclass(frozen=True)
class Strip:
    """Horizontal strip [-1,1] x I inside Q."""

    interval: DyadicInterval

    @property
    def rho(self) -> float:
        return self.interval.rho

    @property
    def j(self) -> int:
        return self.interval.j

    def contains(self, z) -> bool:
        """Elementwise on arrays of coordinates."""
        x, y = z[0], z[1]
        return (-1.0 <= x) & (x <= 1.0) & self.interval.contains(y)


def separated_strip_pair(j1: int, j2: int, rho, C0) -> tuple:
    """Strip pair whose members all satisfy C0*rho/2 <= |y2-y1| <= C0*rho.

    Box pairs live on such strips only: the strip pairs of the classical
    Whitney tiling of {y1 != y2} (parents adjacent, intervals not adjacent)
    are closer together and never host any.
    """
    V1, V2 = Strip(DyadicInterval(j1, rho)), Strip(DyadicInterval(j2, rho))
    rho, C0 = V1.rho, _require_dyadic(C0=C0)
    dj = abs(V2.j - V1.j)
    if (dj + 1) * rho > C0 * rho or (dj - 1) * rho < C0 * rho / 2.0:
        raise ValueError(
            f"|j2-j1|={dj} does not give member separation in [C0/2, C0]*rho"
        )
    return V1, V2


@dataclass(frozen=True)
class Rejected:
    """A candidate that fails one of the admissibility conditions.

    which: "admissible1" (endpoint window |t2_0 - x1_0|), "admissible2"
    (second endpoint window), or "separation" (member y-separation).
    Not a fault; the candidate is simply not an admissible pair.
    """

    which: str
    message: str


def _on_grid(value: float, step: float) -> bool:
    r = value / step
    return r == round(r)


def _steps(rho, delta) -> tuple:
    """Grid steps (h, g) at scales (rho, delta): h = rho*(1^delta) is the
    small box's y-width and fine y-grid, g = rho^2*delta the x-width of both
    boxes and the x-grid."""
    # a conditional rather than min(): this runs for every candidate pair
    return rho * (delta if delta < 1.0 else 1.0), rho * rho * delta


def _coarsest_exponent(rho) -> int:
    """log2 of the coarsest scale at the dyadic strip scale rho, the largest
    delta with rho^2*delta <= 4: no box is wider than Q."""
    return 2 - 2 * _floor_log2(rho)


def _in_ranges(lo, hi) -> tuple:
    """(k, position) for every position of the half-open ranges
    [lo[k], hi[k]) of two flat integer arrays, in order."""
    n = np.maximum(hi - lo, 0)
    k = np.repeat(np.arange(n.size), n)
    return k, np.arange(k.size) - np.repeat(np.cumsum(n) - n - lo, n)


def _below(z, wall):
    """z with its values at or past wall moved to the double just below it;
    z itself, with no `np.nextafter` call, in the common case that none is."""
    return z if np.all(z < wall) else np.where(z < wall, z, np.nextafter(wall, -np.inf))[()]


@dataclass(frozen=True)
class Carrier:
    """Sheared box {(u + s(y), y) : u in [u0, u0+du), y in [y0, y0+dy)}
    with s(y) = -(a + b*y)*(y - p) for shear = (a, b, p); unit Jacobian,
    area du*dy.  The one definition of every box: the pair slots
    (`AdmissiblePair.carrier`, `_pair_boxes`), the prototype boxes
    (`PrototypeScene.carrier`) and the unit images of a reduced pair
    (`ReductionResult.image`).  The shear is factored because the pair
    boxes are written that way: the small box (cy1, 0, cy1) and the long
    box (0, 1, cy1) evaluate it as one product, cy1*(y - cy1) and
    y*(y - cy1), where the expanded coefficients would round cy1^2 and
    cy1*y apart.  Fields may be broadcasting arrays, one box per element."""

    u0: float
    du: float
    y0: float
    dy: float
    shear: tuple = (0.0, 0.0, 0.0)

    @property
    def area(self) -> float:
        return self.du * self.dy

    @property
    def _coefficients(self) -> tuple:
        """(s0, s1, s2) of s(y) = s0 + s1*y + s2*y^2."""
        a, b, p = self.shear
        return a * p, b * p - a, -b

    def _left(self, y):
        """The left wall u0 + s(y) at heights y, as `member` and `contains`
        both evaluate it."""
        a, b, p = self.shear
        return self.u0 - (a + b * y) * (y - p)

    def member(self, u, v) -> tuple:
        """The point (x, y) at unit offsets (u, v), kept off the excluded walls; broadcasts."""
        y = _below(self.y0 + v * self.dy, self.y0 + self.dy)
        left = self._left(y)
        return _below(left + u * self.du, left + self.du), y

    def coords(self, x, y) -> tuple:
        """Box coordinates (x - u0 - s(y), y - y0) of points (x, y), the
        inverse of `member` up to the scale (du, dy); broadcasts."""
        a, b, p = self.shear
        return x - self.u0 + (a + b * y) * (y - p), y - self.y0

    def contains(self, x, y):
        """Half-open membership at the walls of the member map:
        left <= x < left + du for left = `_left(y)`, and 0 <= y - y0 < dy.
        `coords` rounds x - left differently and could put a member at
        offset 0 one ulp outside its own box; elementwise on arrays."""
        left = self._left(y)
        v = y - self.y0
        return (left <= x) & (x < left + self.du) & (0.0 <= v) & (v < self.dy)

    def subbox(self, u_range: tuple, y_range: tuple) -> "Carrier":
        """Sub-carrier from fractional offsets (each in [0, 1])."""
        a, b = u_range
        c, d = y_range
        if not (0.0 <= a < b <= 1.0 and 0.0 <= c < d <= 1.0):
            raise ValueError("fractional ranges must be nondegenerate within [0, 1]")
        return Carrier(self.u0 + a * self.du, (b - a) * self.du,
                       self.y0 + c * self.dy, (d - c) * self.dy, self.shear)


def _pair_boxes(cx1, cy1, ct2, cy2, rho, delta) -> tuple:
    """The small box, x = u - cy1*(y - cy1) with u in [cx1, cx1 + g) and y
    in [cy1, cy1 + h), and the long box, x = u - y*(y - cy1) with u in
    [ct2, ct2 + g) and y in [cy2, cy2 + rho), of canonical parameters
    (scalars or broadcasting columns) at scales (rho, delta)."""
    h, g = _steps(rho, delta)
    return Carrier(cx1, g, cy1, h, (cy1, 0.0, cy1)), Carrier(ct2, g, cy2, rho, (0.0, 1.0, cy1))


@dataclass(frozen=True)
class AdmissiblePair:
    """One admissible box pair of type 1 or 2 at scales (rho, delta).

    Internally both types share one canonical type-1 parameter tuple
    (cx1, cy1, ct2, cy2); a type-2 pair is the type-1 pair with the roles of
    the two slots interchanged, so its public params/base points are the
    canonical ones swapped.
    """

    pair_type: int
    rho: float
    delta: float
    C0: float
    cx1: float
    cy1: float
    ct2: float
    cy2: float

    @property
    def _cbase2(self) -> tuple:
        long = self.carrier(3 - self.pair_type)  # the long box's base, its corner at offset 0
        return long._left(long.y0), long.y0

    @property
    def base1(self) -> tuple:
        return (self.cx1, self.cy1) if self.pair_type == 1 else self._cbase2

    @property
    def base2(self) -> tuple:
        return self._cbase2 if self.pair_type == 1 else (self.cx1, self.cy1)

    @property
    def params(self) -> dict:
        if self.pair_type == 1:
            return {"x1_0": self.cx1, "y1_0": self.cy1, "t2_0": self.ct2, "y2_0": self.cy2}
        return {"t1_0": self.ct2, "y1_0": self.cy2, "x2_0": self.cx1, "y2_0": self.cy1}

    def swapped(self) -> "AdmissiblePair":
        """The same pair viewed from the other type (slots interchanged)."""
        return replace(self, pair_type=3 - self.pair_type)

    def member_at(self, offsets) -> tuple:
        """Concrete member (z1, z2) from unit offsets (u1, v1, u2, v2)."""
        u1, v1, u2, v2 = offsets
        return self.carrier(1).member(u1, v1), self.carrier(2).member(u2, v2)

    def carrier(self, slot: int) -> Carrier:
        """The box holding z1 (slot 1) or z2 (slot 2)."""
        if slot not in (1, 2):
            raise ValueError("slot must be 1 or 2")
        # the small box holds slot 1 of a type-1 pair and slot 2 of a type-2 pair
        boxes = _pair_boxes(self.cx1, self.cy1, self.ct2, self.cy2, self.rho, self.delta)
        return boxes[(slot == 1) != (self.pair_type == 1)]

    def to_json_dict(self) -> dict:
        return {
            "type": self.pair_type,
            "rho": self.rho,
            "delta": self.delta,
            "C0": self.C0,
            "params": self.params,
            "base1": list(self.base1),
            "base2": list(self.base2),
        }


def _separation_ok(s0, h, rho, C0):
    # Member separations range over (s0 - h, s0 + rho) when s0 > 0 and over
    # (-s0 - rho, -s0 + h) when s0 < 0; both ends must stay within
    # [C0*rho/2, C0*rho], which also fixes the sign.  Elementwise on arrays.
    lo, hi = C0 * rho / 2.0, C0 * rho
    return ((s0 - h >= lo) & (s0 + rho <= hi)) | ((-s0 - rho >= lo) & (-s0 + h <= hi))


def _in_window(v, lo, hi):
    """lo <= v < hi; elementwise on arrays."""
    return (lo <= v) & (v < hi)


@functools.lru_cache(maxsize=256)
def _windows(rho, delta, C0) -> tuple:
    """The half-open window [lo1, hi1) for |t2_0 - x1_0| and the lower bound
    lo2 of the second endpoint value |(t2_0 - x1_0) - (y2_0 - y1_0)^2|.
    Cached: a run sees few dyadic scales but checks many candidates at each.
    Scales that are not powers of two raise ValueError here, on every call,
    since the cache keeps no exceptions."""
    _require_dyadic(rho=rho, delta=delta, C0=C0)
    g = _steps(rho, delta)[1]
    # The second value has no upper bound of its own: the separation test
    # and window 1 already give |d - s^2| < 4*C0^2*g + C0^2*rho^2, which is
    # at most 5*C0^2*rho^2*(1 v delta).
    return C0 * C0 * g / 4.0, 4.0 * C0 * C0 * g, C0 * C0 * rho * rho * max(1.0, delta) / 512.0


def _conditions(cx1, cy1, ct2, cy2, rho, delta, C0) -> tuple:
    """Whether the canonical parameters meet the separation test, window 1
    and window 2 (its lower bound), in that order; elementwise on arrays."""
    lo1, hi1, lo2 = _windows(rho, delta, C0)
    d = ct2 - cx1
    return (_separation_ok(cy2 - cy1, _steps(rho, delta)[0], rho, C0),
            _in_window(abs(d), lo1, hi1),
            lo2 <= abs(d - (cy2 - cy1) ** 2))


def make_type1_pair(x1_0, y1_0, t2_0, y2_0, rho, delta, C0) -> Union[AdmissiblePair, Rejected]:
    """Validate and build a type-1 pair, or report why the candidate fails.

    y1_0 must lie on the fine grid of spacing rho*(1^delta), y2_0 on the
    strip grid of spacing rho, and x1_0, t2_0 on the grid of spacing
    rho^2*delta (off-grid input is an error, not a rejection).  A type-2
    pair is the swapped type-1 pair of its interchanged slots.
    """
    rho, delta, C0 = _require_dyadic(rho=rho, delta=delta, C0=C0)
    lo1, hi1, lo2 = _windows(rho, delta, C0)
    cx1, cy1, ct2, cy2 = _require_finite(x1_0=x1_0, y1_0=y1_0, t2_0=t2_0, y2_0=y2_0)
    h, g = _steps(rho, delta)
    if not _on_grid(cy1, h):
        raise ValueError(f"y-parameter {cy1} is not a multiple of {h}")
    if not _on_grid(cy2, rho):
        raise ValueError(f"y-parameter {cy2} is not a multiple of {rho}")
    for v in (cx1, ct2):
        if not _on_grid(v, g):
            raise ValueError(f"x-parameter {v} is not a multiple of {g}")

    separated, window1, window2 = _conditions(cx1, cy1, ct2, cy2, rho, delta, C0)
    d = ct2 - cx1
    if not separated:
        return Rejected("separation", f"member separation around |y2-y1|={abs(cy2 - cy1)} "
                                      f"leaves [{C0 * rho / 2.0}, {C0 * rho}]")
    if not window1:
        return Rejected("admissible1", f"|t2_0 - x1_0|={abs(d)} outside [{lo1}, {hi1})")
    if not window2:
        return Rejected("admissible2", f"second window value {abs(d - (cy2 - cy1) ** 2)} "
                                       f"below {lo2}")
    return AdmissiblePair(1, rho, delta, C0, cx1, cy1, ct2, cy2)


def sample_members(pair: AdmissiblePair, n: int, seed) -> tuple:
    """n member pairs, uniform in the parametrizing offsets.

    Returns (z1, z2) as float arrays of shape (n, 2).
    """
    rng = np.random.default_rng(seed)
    offs = rng.random((4, _require_count(n=n))) * OPEN_SCALE
    (x1, y1), (x2, y2) = pair.member_at(offs)
    return np.column_stack([x1, y1]), np.column_stack([x2, y2])


def audit_tau_bounds(pair: AdmissiblePair, n: int, seed) -> AuditReport:
    """Check the endpoint transversality sizes over sampled members.

    The value anchored at the small-box point must be within a factor 8 of
    C0^2*rho^2*delta, the one anchored at the long-box point within a factor
    1000 of C0^2*rho^2*(1 v delta).  For type 2 the roles are interchanged.
    """
    z1, z2 = sample_members(pair, n, seed)
    t1 = tau(z1.T, z1.T, z2.T)
    t2 = tau(z2.T, z1.T, z2.T)
    small_scale = pair.C0**2 * pair.rho**2 * pair.delta
    long_scale = pair.C0**2 * pair.rho**2 * max(1.0, pair.delta)
    t_small, t_long = (t1, t2) if pair.pair_type == 1 else (t2, t1)
    r_small, r_long = np.abs(t_small) / small_scale, np.abs(t_long) / long_scale
    # anchored at the small box's base, which is base1 for type 1 and base2 for type 2
    base_tau = abs(tau((pair.cx1, pair.cy1), pair.base1, pair.base2))
    base_ok = small_scale / 4.0 <= base_tau < 4.0 * small_scale

    bad = (r_small < 1.0 / 8.0) | (r_small > 8.0) | (r_long < 1.0 / 1000.0) | (r_long > 1000.0)
    failures = [{"z1": list(z1[k]), "z2": list(z2[k]),
                 "small_ratio": float(r_small[k]), "long_ratio": float(r_long[k])}
                for k in np.flatnonzero(bad)[:5]]
    return AuditReport(
        name="tau_bounds",
        passed=bool(base_ok and not bad.any()),
        samples=n,
        stats={
            "small_ratio_min": float(r_small.min()),
            "small_ratio_max": float(r_small.max()),
            "long_ratio_min": float(r_long.min()),
            "long_ratio_max": float(r_long.max()),
            "base_window_ok": bool(base_ok),
            "violations": int(bad.sum()),
        },
        failures=failures,
    )


@dataclass(frozen=True, eq=False)
class PairTable:
    """Admissible pairs of one type at scales (rho, delta), as columns.

    cx1, cy1, ct2, cy2 hold the canonical type-1 parameters of the stored
    pairs as float64 arrays.  The table stores every stride-th pair of a
    stream of total pairs; indexing and iteration give `AdmissiblePair` row
    views with Python floats.
    """

    pair_type: int
    rho: float
    delta: float
    C0: float
    total: int
    stride: int
    cx1: np.ndarray
    cy1: np.ndarray
    ct2: np.ndarray
    cy2: np.ndarray

    def __len__(self) -> int:
        return len(self.cx1)

    def __getitem__(self, k: int) -> AdmissiblePair:
        return AdmissiblePair(self.pair_type, self.rho, self.delta, self.C0,
                              float(self.cx1[k]), float(self.cy1[k]),
                              float(self.ct2[k]), float(self.cy2[k]))

    def __iter__(self) -> Iterator[AdmissiblePair]:
        for params in zip(self.cx1.tolist(), self.cy1.tolist(), self.ct2.tolist(), self.cy2.tolist()):
            yield AdmissiblePair(self.pair_type, self.rho, self.delta, self.C0, *params)


class _Rows(NamedTuple):
    """The `_type1_rows` index: one element per fine-grid row with pairs."""

    y1_0: np.ndarray
    runs: np.ndarray
    i_lo: np.ndarray
    i_hi: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    total: np.ndarray


def _type1_rows(V1: Strip, V2: Strip, delta: float, C0: float) -> _Rows:
    """The type-1 pair stream's index, not the stream: arrays over the
    fine-grid rows y1_0 with pairs, built with no loop over rows.  Column i
    of i_lo..i_hi admits the row's offsets d with t_lo <= i + d <= t_hi, the
    long box's snap range.  The offsets, window 1's +-[d_lo, d_hi) in window
    2, lo2 <= |d*g - s^2| with s = y2_0 - y1_0, come from integer floors and
    ceilings, exact at every scale (s = K*h for an int K; h^2, g and lo2 are
    int multiples of one power of two), as runs of shape (3, 2, rows): three
    slots (a, b) of consecutive ints, ascending, an empty one being (1, 0).
    total is F(i_hi - i_lo + 1) of `_pairs_before`; the stream runs over the
    rows, columns and offsets in turn.  ValueError where s^2 in units or a
    ramp of `_upto` could pass 2^62 in int64 (streams past it hold > 2^63 pairs)."""
    if V1.rho != V2.rho:
        raise ValueError("strips must share one scale")
    rho = V1.rho
    if _floor_log2(delta) > _coarsest_exponent(rho):
        raise ValueError("delta out of range: rho^2*delta must be <= 4")
    # no row below DELTA_MIN: built at DELTA_MIN, finer steps could underflow
    m = np.arange(round(1.0 / min(delta, 1.0)) if delta >= DELTA_MIN else 0)
    delta = max(delta, DELTA_MIN)
    h, g = _steps(rho, delta)
    m = m[_separation_ok(V2.j * rho - (V1.j * rho + m * h), h, rho, C0)]
    y1_0 = V1.j * rho + m * h
    lo1, hi1, lo2 = _windows(rho, delta, C0)
    d_lo, d_hi = math.ceil(lo1 / g), math.ceil(hi1 / g)
    unit = min(h * h, g, lo2)  # h^2, g and lo2 are powers of two
    hh, gu, lo2u = (round(x / unit) for x in (h * h, g, lo2))
    k = round((V2.j - V1.j) * rho / h) - m  # s = k*h
    i_lo = np.floor((-1.0 - g - np.abs(y1_0) * h) / g).astype(np.int64)
    i_hi = np.floor((1.0 + np.abs(y1_0) * h) / g).astype(np.int64)
    # the shear y*(y - y1_0) at the strip ends and at its vertex y1_0/2 if between them
    ylo, yhi, vertex = V2.j * rho, (V2.j + 1) * rho, y1_0 / 2.0
    shear = [y * (y - y1_0) for y in (ylo, yhi, np.where((ylo < vertex) & (vertex < yhi), vertex, ylo))]
    t_lo = np.floor((-1.0 + np.minimum.reduce(shear)) / g).astype(np.int64)
    t_hi = np.floor((1.0 + np.maximum.reduce(shear)) / g).astype(np.int64)
    # s^2 and the ramps of `_upto`, at most 2*(d_hi - d_lo)*(|x| + d_hi + 2) for its
    # arguments x in [t_lo - i_hi - 2, t_hi - i_lo], bounded before they are formed
    x_max = int(max(np.max(t_hi - i_lo, initial=0), -np.min(t_lo - i_hi - 2, initial=0)))
    if max(2 * (d_hi - d_lo) * (x_max + d_hi + 2), np.max(np.abs(k), initial=0) ** 2.0 * hh + lo2u) > 2.0**62:
        raise ValueError(f"delta={delta} at C0={C0}: the pair index would pass 2^62 in int64")
    s2 = k * k * hh
    below, above = (s2 - lo2u) // gu, -((-s2 - lo2u) // gu)
    # window 2's half-lines d <= below and d >= above > 0 (so never in window 1's lower
    # interval), or the whole line and the empty (1, 0) if no offset lies between them
    split = above > below + 1
    lower = (1 - d_hi, np.where(split, below, d_hi - 1))
    upper = (np.where(split, above, 1), np.where(split, d_hi - 1, 0))
    runs = np.array([np.broadcast_arrays(np.maximum(a1, a2), np.minimum(b1, b2)) for (a1, b1), (a2, b2)
                     in (((1 - d_hi, -d_lo), lower), ((d_lo, d_hi - 1), lower), ((d_lo, d_hi - 1), upper))])
    runs = np.where(runs[:, :1] > runs[:, 1:], np.array([[1], [0]]), runs)
    total = _pairs_before(runs, i_lo, t_lo, t_hi, i_hi - i_lo + 1)
    return _Rows(*(v[..., total > 0] for v in (y1_0, runs, i_lo, i_hi, t_lo, t_hi, total)))


def _upto(runs, x) -> tuple:
    """#{d <= x} and the sum over y <= x of #{d <= y} for the members d of the
    runs (a, b).  Arguments here and below are all ints (a sampled column) or
    all broadcasting int64 arrays (the index build and the decoder's
    queries): no numpy calls."""
    n = s = 0
    for a, b in runs:
        m = x - (x > b) * (x - b)
        m = m + (m < a - 1) * (a - 1 - m)  # min(max(x, a - 1), b)
        n, s = n + m - a + 1, s + (m - a + 1) * (2 * x + 2 - a - m) // 2
    return n, s


def _pairs_before(runs, i_lo, t_lo, t_hi, c):
    """F(c), the pairs in a row's first c columns: the sum over i in
    [i_lo, i_lo + c) of #{d : t_lo <= i + d <= t_hi}."""
    ramp = [_upto(runs, x - i_lo)[1] for x in (t_hi, t_hi - c, t_lo - 1, t_lo - 1 - c)]
    return ramp[0] - ramp[1] - ramp[2] + ramp[3]


def _run_member(runs, k):
    """The k-th run member, counted from 0 in ascending order."""
    d = 0
    for a, b in runs:
        d, k = d + (0 <= k) * (k <= b - a) * (a + k), k - (b - a + 1)
    return d


def _decode(rows: _Rows, q, y2_0: float, rho: float, delta: float, C0: float) -> tuple:
    """Canonical columns of the pairs at the int64 positions q of the
    `_type1_rows` stream (see `_checked_columns`).  A row's pair count in
    column i = i_lo + c is linear in c between breakpoints, where t_hi - i or
    t_lo - 1 - i crosses a run end.  A search puts each query in a piece
    [c0, c0 + span) between them, where F(c0 + j) = F(c0) + n0*j +
    beta*j*(j - 1)/2; its column c is c0 + j for the largest j < span with
    F(c0 + j) <= local, its position in its row (float root, then exact int64
    steps and a check), and its offset the (local - F(c))-th run member >=
    t_lo - i.  Only the rows holding a query are broken into pieces."""
    ends = np.cumsum(rows.total)
    u = np.unique(np.searchsorted(ends, q, side="right"))
    i_lo, i_hi, t_lo, t_hi, first = (v[u, None] for v in (*rows[2:6], ends - rows.total))
    runs = rows.runs[:, :, u, None]
    n_cols = i_hi - i_lo + 1
    crossings = [t - i_lo - e for t in (t_hi, t_lo - 1) for a, b in runs for e in (a - 1, b)]
    breaks = np.concatenate([np.zeros_like(n_cols), n_cols, *crossings], axis=1)
    breaks = np.sort(np.clip(breaks, 0, n_cols), axis=1)
    # the pieces' first positions in stream order; a piece without pairs
    # starts where the next one does, so the search never picks it
    starts = (first + _pairs_before(runs, i_lo, t_lo, t_hi, breaks[:, :-1])).ravel()
    piece = np.searchsorted(starts, q, side="right") - 1
    r, p = np.divmod(piece, breaks.shape[1] - 1)
    c0, span, rest = breaks[r, p], breaks[r, p + 1] - breaks[r, p], q - starts[piece]
    i_lo, t_lo, t_hi, runs = i_lo[r, 0], t_lo[r, 0], t_hi[r, 0], runs[:, :, r, 0]
    n0, n1 = (_upto(runs, t_hi - i_lo - c)[0] - _upto(runs, t_lo - 1 - i_lo - c)[0] for c in (c0, c0 + 1))
    beta, half = n1 - n0, (3 * n0 - n1) / 2.0  # half = n0 - beta/2

    def before(j):  # F(c0 + j) - F(c0)
        return n0 * j + beta * (j * (j - 1) // 2)

    root = np.where(beta == 0, rest / np.maximum(n0, 1),
                    (np.sqrt(np.maximum(half * half + 2.0 * beta * rest, 0.0)) - half)
                    / np.where(beta == 0, 1, beta))
    j = np.clip(np.floor(root), 0, span - 1).astype(np.int64)
    for _ in range(2):
        j = j - (before(j) > rest)
        j = j + ((j + 1 < span) & (before(j + 1) <= rest))
    if not np.all((before(j) <= rest) & ((j + 1 == span) | (before(j + 1) > rest))):
        raise RuntimeError("column search left an inexact column")
    c = c0 + j
    k = _upto(runs, t_lo - i_lo - c - 1)[0] + rest - before(j)
    return _checked_columns(i_lo + c, rows.y1_0[u[r]], _run_member(runs, k), y2_0, rho, delta, C0)


def _checked_columns(i, cy1, d, y2_0: float, rho: float, delta: float, C0: float) -> tuple:
    """Canonical columns (cx1, cy1, ct2, cy2) of the pairs at arrays (i, cy1, d), each
    checked once against the admissibility conditions; RuntimeError if one fails."""
    g = _steps(rho, delta)[1]
    cols = (i * g, cy1, (i + d) * g, np.full(i.size, y2_0))
    ok = np.logical_and.reduce(_conditions(*cols, rho, delta, C0))
    if not ok.all():
        first = (float(v[np.argmin(ok)]) for v in cols)
        raise RuntimeError(f"indexed candidate failed validation: {make_type1_pair(*first, rho, delta, C0)}")
    return cols


def _stream_rows(V1: Strip, V2: Strip, delta, C0, pair_type: int) -> tuple:
    """(V1, V2, delta, C0, rows) of the type-1 stream behind pair_type's:
    strips interchanged for type 2, scales checked, and its `_type1_rows`."""
    delta, C0 = _require_dyadic(delta=delta, C0=C0)
    if not (_positive(pair_type, numbers.Integral) and pair_type in (1, 2)):
        raise ValueError(f"pair_type must be the int 1 or 2, got {pair_type!r:.40}")
    if pair_type == 2:
        V1, V2 = V2, V1
    return V1, V2, delta, C0, _type1_rows(V1, V2, delta, C0)


def pair_sample(V1: Strip, V2: Strip, delta, C0, pair_type: int = 1,
                max_pairs: int = 4096) -> PairTable:
    """Every stride-th admissible pair of the given type on V1 x V2 at scale
    delta, as one table of at most max_pairs rows (a count: an int >= 1).

    The type-1 stream runs over the fine y-parameter ascending, then the
    small-box x-parameter ascending, then the window offset
    d = (t2_0 - x1_0)/g ascending; the type-2 stream is the type-1 stream of
    (V2, V1) with the slots interchanged.  total is the exact stream size and
    stride = max(1, ceil(total/max_pairs)).  Each stored position is decoded
    from the row index in closed form, so the cost grows with rows and
    max_pairs, not with total (1e8+ members are cheap).  Scales below 2^-20
    give an empty table; rho^2*delta > 4 is an error, and so are a scale past
    the index's int64 bound (`_type1_rows`) and a stream of more than
    2^63 - 1 pairs, as stream positions are int64 (`count_pairs` counts such
    streams)."""
    max_pairs = _require_count(max_pairs=max_pairs)
    V1, V2, delta, C0, rows = _stream_rows(V1, V2, delta, C0, pair_type)
    rho = V1.rho
    total = sum(rows.total.tolist())
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"the stream holds {total} pairs, more than int64 can count")
    stride = max(1, -(-total // max_pairs))
    cols = _decode(rows, np.arange(0, total, stride), V2.j * rho, rho, delta, C0)
    return PairTable(pair_type, rho, delta, C0, total, stride, *cols)


def count_pairs(V1: Strip, V2: Strip, delta, C0, pair_type: int = 1) -> int:
    """Exact size of the pair stream `pair_sample` draws from, as a Python int
    at any size, no pair decoded; past the index's int64 bound, ValueError."""
    return sum(_stream_rows(V1, V2, delta, C0, pair_type)[-1].total.tolist())


# Words one pass of a stream replay reads at most (`_sample_pairs` evaluates
# an attempt at each, `_tuple_draws` reads half as many raw outputs), so a
# pass's temporaries stay under 2 MB for any draw count.
_STREAM_BLOCK = 2**13
_WORD = 2**32


class _Stream:
    """A cursor over a numpy Generator's PCG64 stream that replays its scalar
    `integers` and `random` draws exactly.

    `integers(n)` for 1 < n < 2^32 takes a 32-bit word w and returns
    (w*n) >> 32 (Lemire's method), taking another word while (w*n) mod 2^32
    is below 2^32 mod n.  A word is the low half of a raw 64-bit output, and
    the high half is buffered as the next word (the bit generator's
    `has_uint32` and `uinteger`).  n = 1 takes no word and n = 2^32 one
    plain word.  n > 2^32 takes Lemire's method on fresh raw outputs, and a
    double of `random` is (raw >> 11)*2^-53 of one; neither reads the
    buffered half.  Raw outputs come in blocks from `random_raw`; `close`
    hands back the unread ones, so the bit generator ends where the scalar
    draws leave it."""

    def __init__(self, rng):
        self.bits = rng.bit_generator
        if not isinstance(self.bits, np.random.PCG64):
            raise TypeError(f"the stream replay needs a PCG64 generator, got {self.bits!r}")
        state = self.bits.state
        self.has, self.half = state["has_uint32"], state["uinteger"]
        self.raw, self.pos = np.empty(0, np.uint64), 0

    def peek(self, k: int) -> np.ndarray:
        """The next k raw outputs, not read."""
        if self.pos + k > self.raw.size:
            self.raw = np.concatenate([self.raw[self.pos:], self.bits.random_raw(self.pos + k - self.raw.size)])
            self.pos = 0
        return self.raw[self.pos:self.pos + k]

    def words(self, k: int) -> np.ndarray:
        """The next k words as uint64, not read, if only words are drawn."""
        raw = self.peek((k + 1) // 2)
        w = np.empty(2 * raw.size + self.has, np.uint64)
        w[:self.has], w[self.has::2], w[self.has + 1::2] = self.half, raw & (_WORD - 1), raw >> 32
        return w[:k]

    def skip(self, raws: int, has: int, half: int):
        """Read raws raw outputs; then has, half is the buffered state."""
        self.pos, self.has, self.half = self.pos + raws, has, half

    def skip_words(self, k: int):
        """Read the next k words."""
        if k and self.has:
            k, self.has = k - 1, 0
        if k:
            self.has, self.half = k % 2, int(self.raw[self.pos + (k - 1) // 2] >> 32)
        self.pos += (k + 1) // 2

    def raw64(self) -> int:
        r = int(self.peek(1)[0])
        self.pos += 1
        return r

    def word(self) -> int:
        if self.has:
            self.has = 0
            return self.half
        r = self.raw64()
        self.has, self.half = 1, r >> 32
        return r & (_WORD - 1)

    def integers(self, n: int) -> int:
        """Generator.integers(n) for an int n >= 1."""
        if n == 1:
            return 0
        if n == _WORD:
            return self.word()
        bits, draw = (32, self.word) if n < _WORD else (64, self.raw64)
        m = draw() * n
        while m % 2**bits < 2**bits % n:
            m = draw() * n
        return m >> bits

    @staticmethod
    def unit(raw) -> np.ndarray:
        """The doubles of `random` from raw outputs."""
        return (raw >> 11) * 2.0**-53

    def doubles(self, k: int) -> np.ndarray:
        """Generator.random(k)."""
        raw = self.peek(k)
        self.pos += k
        return self.unit(raw)

    def close(self):
        self.bits.advance(self.pos - self.raw.size)
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = self.has, self.half
        self.bits.state = state


def _lemire(w, q, n) -> tuple:
    """The draws `integers(n)` makes from the words w[q], as int64 arrays:
    (values, q past the words taken, scalar).  n <= 1 takes no word; scalar
    marks a draw the words alone do not settle: a rejected word, or n >= 2^32."""
    wide = n >= _WORD
    n = np.where(wide | (n < 1), 1, n).astype(np.uint64)
    m = w[q] * n
    return (m >> 32).astype(np.int64), q + (n > 1), wide | ((m & (_WORD - 1)) < _WORD % n)


def _sample_pairs(rng, V1: Strip, V2: Strip, C0: float, delta: float, count: int,
                  x_band: bool = False) -> PairTable:
    """count type-1 pairs drawn from the stream index, as a stride-1 table of
    total count; with x_band, the small-box column is restricted to
    i in [0, 1/delta] (the N=0 band).

    An attempt draws a row (`integers` over the rows), a column of it and
    one of that column's pairs, and ends early on an empty column range or
    column.  The draws replay rng's stream exactly (`_Stream`): a pass
    evaluates an attempt at every word offset of a block at once, a loop
    follows the chain of actual attempt starts, and an attempt that
    `_lemire` marks scalar is drawn with scalar draws."""
    rows = _type1_rows(V1, V2, delta, C0)
    n_rows = rows.total.size
    if not n_rows:
        raise ValueError("no admissible pairs at this scale")
    i_lo, i_hi, t_lo, t_hi = rows[2:6]
    c_lo, c_hi = np.zeros_like(i_lo), i_hi - i_lo
    if x_band:
        c_lo, c_hi = np.maximum(0, -i_lo), np.minimum(c_hi, math.floor(1.0 / delta) - i_lo)
    first, n_cols = i_lo + c_lo, c_hi - c_lo + 1

    def column(r, i):  # [lo, hi): the run members of column i of row r
        return tuple(_upto(rows.runs[..., r], t - i)[0] for t in (t_lo[r] - 1, t_hi[r]))

    def attempts(w):  # at each offset: (words taken, accepted, scalar, i, r, k)
        p = np.arange(w.size - 2)
        r, q, scalar_r = _lemire(w, p, n_rows)
        c, q, scalar_c = _lemire(w, q, n_cols[r])
        i = first[r] + c
        lo, hi = column(r, i)
        k, q, scalar_k = _lemire(w, q, np.where(n_cols[r] >= 1, hi - lo, 0))
        return q - p, (n_cols[r] >= 1) & (hi > lo), scalar_r | scalar_c | scalar_k, i, r, lo + k

    def attempt(draw):  # one attempt by scalar draws: (i, r, k), or None
        r = draw(n_rows)
        if n_cols[r] < 1:
            return None
        i = int(first[r]) + draw(int(n_cols[r]))
        lo, hi = map(int, column(r, i))
        return (i, r, lo + draw(hi - lo)) if hi > lo else None

    stream, picks, got, tried, size = _Stream(rng), [], 0, 0, _STREAM_BLOCK
    while got < count:
        w = stream.words(min(size, 3 * (count - got) + 8))
        taken, accepted, scalar, *pick = attempts(w)
        taken, accepted, scalar = taken.tolist(), accepted.tolist(), scalar.tolist()
        pos, end, chosen = 0, w.size - 2, []
        while pos < end and got < count:
            tried += 1
            if tried > 200 * count + 1000:
                raise ValueError("sampling stalled; configuration too sparse")
            if scalar[pos]:
                break
            if accepted[pos]:
                chosen.append(pos)
                got += 1
            pos += taken[pos]
        picks.append([v[chosen] for v in pick])
        stream.skip_words(pos)
        size = min(2 * size, _STREAM_BLOCK)
        if pos < end and got < count:  # the loop stopped at a scalar attempt
            one = attempt(stream.integers)
            if one:
                picks.append([np.array([v]) for v in one])
                got += 1
            # scalar attempts can be dense (64-bit column ranges): the next
            # pass covers twice the words this one used
            size = 2 * pos + 8
    stream.close()
    i, r, k = (np.concatenate(v) for v in zip(*picks))
    rho = V1.rho
    cols = _checked_columns(i, rows.y1_0[r], _run_member(rows.runs[..., r], k), V2.j * rho, rho, delta, C0)
    return PairTable(1, rho, delta, C0, count, 1, *cols)


def _check_strips(V1: Strip, V2: Strip, C0) -> tuple:
    """(rho, C0) as floats for a separated strip pair; ValueError otherwise."""
    if V1.rho != V2.rho:
        raise ValueError("strips must share one scale")
    separated_strip_pair(V1.j, V2.j, V1.rho, C0)
    return V1.rho, float(C0)
