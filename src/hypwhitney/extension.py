"""Numerical Fourier extension over box carriers, truncated Lp norms of
bilinear products, and the sumset / almost-orthogonality audits.

The test functions are the indicators of the boxes of a transversal pair,
so the kernels take the box itself: the extension over a carrier U is
int_U exp(-i(xi1*x + xi2*y + xi3*phi(z))) dz, and `bilinear_field` takes the
pair and multiplies the extensions of its two boxes.  Every carrier is a
sheared box (`geometry.Carrier`): in coordinates (u, y) with x = u + s(y)
for a quadratic shear s, the carrier is an axis rectangle and the Jacobian
is 1.  The quadrature reads s through its expanded coefficients
(`Carrier._coefficients`), and the sumset audits draw their members from
the pairs' boxes (`geometry._pair_boxes`).  The u-integral of an indicator
against a pure exponential has a closed form, so quadrature is only needed
along y: Gauss-Legendre panels sized so the phase varies by at most pi/2
per panel.

On the tensor frequency grid of `extend_grid`, xi2 enters the integrand only
through exp(-i xi2 y), so one complex matrix product with w(y) exp(-i xi2 y)
sums over y for every xi2.  The rest of the phase splits into an xi1 part and
an xi3 part, whose exponentials are two per-axis tables; only the sinc of the
u-integral is evaluated per (xi1, xi3, y).  A field thus takes n1*ny + n3*ny
complex exponentials and n1*n3*ny sines, where the dense form takes
n1*n2*n3*ny of each.  `extend_points`, the dense path for arbitrary
frequencies, uses the same nodes and weights, evaluates the phase unfactored,
and is the oracle the grid kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    _STREAM_BLOCK,
    _WORD,
    OPEN_SCALE,
    Carrier,
    Strip,
    _check_strips,
    _lemire,
    _pair_boxes,
    _require_count,
    _require_dyadic,
    _sample_pairs,
    _Stream,
)
from .reports import AuditReport
from .surface import BASE, PhaseFamily, _finite_real, _require_positive, phase_eval

__all__ = [
    "QuadratureSpec",
    "NormEstimate",
    "FrequencyField",
    "UnresolvedOscillation",
    "extend_points",
    "extend_grid",
    "lp_norm",
    "bilinear_field",
    "audit_sumset_x",
    "audit_sumset_cubes",
    "sumset_cube_stability",
]


class UnresolvedOscillation(RuntimeError):
    """The phase oscillates faster than the panel budget can resolve."""


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel controls, frequency truncation box, and evaluation grid."""

    nodes_per_panel: int = 8
    max_panel_phase: float = math.pi / 2.0
    truncation: tuple = (2.0**10, 2.0**10, 2.0**10)
    freq_grid: tuple = (64, 64, 64)
    node_budget: int = 2**20
    refinement: int = 1

    def __post_init__(self):
        _require_count(nodes_per_panel=self.nodes_per_panel, refinement=self.refinement,
                       node_budget=self.node_budget)
        _require_positive(max_panel_phase=self.max_panel_phase)
        for name, require in (("freq_grid", _require_count), ("truncation", _require_positive)):
            v = getattr(self, name)
            if not isinstance(v, (tuple, list)) or len(v) != 3:
                raise ValueError(f"{name} needs exactly 3 entries, got {v!r:.40}")
            require(**{f"{name}[{k}]": x for k, x in enumerate(v)})
            object.__setattr__(self, name, tuple(v))

    def refine(self) -> "QuadratureSpec":
        return replace(self, refinement=2 * self.refinement)


@dataclass
class NormEstimate:
    value: float
    refinement_delta: float


# Elements of one block of (frequency, y) values in `extend_points` and of
# (xi1, xi3, y) values in `extend_grid`: 1 MiB of complex values, so a block
# and its temporaries stay in cache through the product over y.
GRID_BLOCK = 2**16


def _y_panels(car: Carrier, family: PhaseFamily, xi_max, quad: QuadratureSpec) -> int:
    """Panels needed so the phase varies <= max_panel_phase per panel."""
    s0, s1, s2 = car._coefficients
    xi_max = [float(x) for x in xi_max]  # Python floats overflow to inf without a warning
    ys = (car.y0, car.y0 + car.dy)
    # d/dy of the y-only phase block: xi1*s'(y) + xi2 + xi3*(q(y) + u_mid),
    # q(y) = s0 + 2 s1 y + (3 s2 + c) y^2
    a2 = 3.0 * s2 + family.cubic
    cand = [abs(s0 + 2.0 * s1 * y + a2 * y * y) for y in ys]
    if a2 != 0.0 and ys[0] < -s1 / a2 < ys[1]:
        yv = -s1 / a2
        cand.append(abs(s0 + 2.0 * s1 * yv + a2 * yv * yv))
    u_mid = car.u0 + car.du / 2.0
    slope = (
        xi_max[0] * max(abs(s1 + 2.0 * s2 * y) for y in ys)
        + xi_max[1]
        + xi_max[2] * (max(cand) + abs(u_mid))
    )
    need = slope * car.dy / quad.max_panel_phase
    if not math.isfinite(need):
        raise UnresolvedOscillation(f"the phase slope {slope} needs unboundedly many panels")
    panels = max(1, math.ceil(need)) * quad.refinement
    if panels * quad.nodes_per_panel > quad.node_budget:
        raise UnresolvedOscillation(
            f"{panels * quad.nodes_per_panel} nodes needed, budget {quad.node_budget}"
        )
    return panels


def _y_nodes(car: Carrier, family: PhaseFamily, xi_max, quad: QuadratureSpec):
    """Gauss-Legendre y-nodes y and weights w on the panels `_y_panels` sets
    at the frequency bound xi_max, with the shear s(y), the y-only phase
    h(y) = s(y) y + c y^3/3 and the u-midpoint of the carrier."""
    panels = _y_panels(car, family, xi_max, quad)
    base, wts = np.polynomial.legendre.leggauss(quad.nodes_per_panel)
    width = car.dy / panels
    starts = car.y0 + width * np.arange(panels)
    y = (starts[:, None] + width / 2.0 * (base[None, :] + 1.0)).ravel()
    w = np.tile(wts * width / 2.0, panels)
    s0, s1, s2 = car._coefficients
    sy = s0 + s1 * y + s2 * y * y
    hy = sy * y + family.cubic * y ** 3 / 3.0
    return y, w, sy, hy, car.u0 + car.du / 2.0


def extend_points(car: Carrier, family: PhaseFamily, xis, quad: QuadratureSpec = QuadratureSpec()):
    """Extension of the indicator of car at each row of xis (n, 3); complex
    array of length n.

    The u-integral of the indicator against exp(-i u (xi1 + xi3 y)) is exact;
    Gauss-Legendre panels discretize y only, with the panel count set by the
    largest |xi| in the batch (uniform across the batch for determinism).
    Points run in blocks of at most GRID_BLOCK (point, y-node) elements, at
    least one point each.  This dense path serves arbitrary points and is
    the oracle for `extend_grid`.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if xis.shape[1] != 3:
        raise ValueError("frequencies must be 3-vectors")
    k1, k2, k3 = xis.T
    xi_max = (np.abs(k1).max(initial=0.0), np.abs(k2).max(initial=0.0),
              np.abs(k3).max(initial=0.0))
    y, w, sy, hy, u_mid = _y_nodes(car, family, xi_max, quad)

    out = np.empty(len(xis), dtype=complex)
    chunk = max(1, GRID_BLOCK // y.size)
    for lo in range(0, len(xis), chunk):
        a1 = k1[lo:lo + chunk, None]
        a2 = k2[lo:lo + chunk, None]
        a3 = k3[lo:lo + chunk, None]
        om = a1 + a3 * y[None, :]
        phase = a1 * sy[None, :] + a2 * y[None, :] + a3 * hy[None, :] + om * u_mid
        vals = np.exp(-1j * phase) * np.sinc(om * (car.du / (2.0 * math.pi)))
        out[lo:lo + chunk] = vals @ w
    return car.du * out


# ---------------------------------------------------------------------------
# Frequency fields and norms


@dataclass
class FrequencyField:
    """Values on the midpoint grid of the truncation box."""

    axes: tuple  # three 1d arrays of midpoints
    values: np.ndarray  # shape (n1, n2, n3), complex
    truncation: tuple

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for r, ax in zip(self.truncation, self.axes):
            vol *= 2.0 * r / len(ax)
        return vol


def _grid_axes(quad: QuadratureSpec) -> tuple:
    axes = []
    for r, n in zip(quad.truncation, quad.freq_grid):
        step = 2.0 * r / n
        axes.append(-r + step * (np.arange(n) + 0.5))
    return tuple(axes)


def extend_grid(car: Carrier, family: PhaseFamily, quad: QuadratureSpec = QuadratureSpec()) -> FrequencyField:
    """Extension of the indicator of car on the midpoint grid (k1, k2, k3)
    of quad, separably in xi2 (see the module docstring).  With
    om = k1 + k3 y the phase splits as k1 (s(y) + u_mid) + k3 (h(y) + y u_mid),
    so its exponential is the product of an (n1, ny) and an (n3, ny) table:
    n1*ny + n3*ny complex exponentials and n1*n3*ny sines per field.  Blocks
    of at most GRID_BLOCK (xi1, xi3, y) elements, or one (xi1, xi3) pair
    where ny is larger, multiply the tables and the sinc, and one complex
    matrix product per block sums over y for every xi2.  The panel count,
    nodes and weights are those `extend_points` uses on the same grid
    points.
    """
    k1, k2, k3 = axes = _grid_axes(quad)
    xi_max = (np.abs(k1).max(), np.abs(k2).max(), np.abs(k3).max())
    y, w, sy, hy, u_mid = _y_nodes(car, family, xi_max, quad)

    xi2_factor = w[:, None] * np.exp(-1j * (y[:, None] * k2[None, :]))
    e1 = np.exp(-1j * (k1[:, None] * (sy + u_mid)[None, :]))
    e3 = np.exp(-1j * (k3[:, None] * (hy + y * u_mid)[None, :]))
    half = car.du / 2.0
    n1, n2, n3 = len(k1), len(k2), len(k3)
    vals = np.empty((n1, n2, n3), dtype=complex)
    cols = max(1, min(n3, GRID_BLOCK // y.size))
    rows = max(1, min(n1, GRID_BLOCK // (cols * y.size)))
    for lo in range(0, n1, rows):
        for c0 in range(0, n3, cols):
            # sin per element: splitting sin(t) by the addition formula
            # would cancel catastrophically near om = 0
            t = (k1[lo:lo + rows, None, None] + k3[None, c0:c0 + cols, None] * y) * half
            with np.errstate(invalid="ignore"):
                sinc = np.sin(t) / t
            sinc[t == 0.0] = 1.0
            block = e1[lo:lo + rows, None, :] * e3[c0:c0 + cols]
            block *= sinc
            out = (block.reshape(-1, y.size) @ xi2_factor).reshape(-1, block.shape[1], n2)
            vals[lo:lo + rows, :, c0:c0 + cols] = out.transpose(0, 2, 1)
    return FrequencyField(axes, car.du * vals, quad.truncation)


def lp_norm(field: FrequencyField, p: float) -> NormEstimate:
    """Midpoint quadrature of |field|^p over the truncation box, p-th root.

    refinement_delta compares against the 2x-decimated subgrid (a shifted
    midpoint rule for the same integral), as a grid-convergence indicator;
    each coarse cell stands for n_i / len(axis_i[::2]) fine cells per axis,
    which is 2 on even axes.
    """
    if not (_finite_real(p) and p >= 1):
        raise ValueError(f"norm exponent must be a finite number >= 1, got {p!r:.40}")
    absv = np.abs(field.values)
    fine = float((absv ** p).sum() * field.cell_volume) ** (1.0 / p)
    coarse_vals = absv[::2, ::2, ::2]
    cells_per_coarse = absv.size / coarse_vals.size
    coarse = float((coarse_vals ** p).sum() * field.cell_volume * cells_per_coarse) ** (1.0 / p)
    delta = abs(fine - coarse) / fine if fine > 0 else 0.0
    return NormEstimate(value=fine, refinement_delta=delta)


def bilinear_field(pair, family: PhaseFamily, quad: QuadratureSpec = QuadratureSpec()) -> FrequencyField:
    """Pointwise product of the grid extensions of the indicators of the
    pair's two boxes, `pair.carrier(1)` and `pair.carrier(2)`; pair may be
    an admissible pair or a prototype scene."""
    ef = extend_grid(pair.carrier(1), family, quad)
    eg = extend_grid(pair.carrier(2), family, quad)
    return FrequencyField(ef.axes, ef.values * eg.values, ef.truncation)


# ---------------------------------------------------------------------------
# Sumset audits


# The coarsest scales the sumset audits apply at: the x-sumset window holds
# in the curved regime, and the cube audit's slabs need delta <= 1/2.
SUMSET_X_DELTA_MAX = 0.125
SUMSET_CUBES_DELTA_MAX = 0.5
# Members drawn per sampled pair (x-sumset) and per tuple (cubes), the
# sampled points the cube multiplicity is counted at, and the default cube
# side over delta.
SUMSET_X_MEMBERS = 8
SUMSET_CUBE_MEMBERS = 4
CUBE_MULTIPLICITY_POINTS = 4096
CUBE_SIDE_FACTOR = 4.0


def audit_sumset_x(V1: Strip, V2: Strip, C0, delta, n: int, seed,
                   window_shrink: float = 1.0) -> AuditReport:
    """Coordinate sums of admissible-pair members stay in the stated bands.

    For members z1 of the small box (column i, so x1 is within [N rho^2,
    (N+1) rho^2] for N = floor(i*delta)) and z2 of the long box:
    x1+x2 must lie in 2N rho^2 +- 10 C0^2 rho^2 and y1+y2 in [0, 2 C0 rho].
    window_shrink divides both window widths (negative-control knob).
    Each of the n // SUMSET_X_MEMBERS sampled pairs (at least one) gets
    min(SUMSET_X_MEMBERS, n) members, all checked at once as (pair, member)
    arrays.
    """
    n = _require_count(n=n)
    rho, C0 = _check_strips(V1, V2, C0)
    delta, window_shrink = _require_dyadic(delta=delta), _require_positive(window_shrink=window_shrink)
    if delta > SUMSET_X_DELTA_MAX:
        raise ValueError("the x-sumset window applies to the curved regime delta <= 1/8")
    rng = np.random.default_rng(seed)
    n_pairs = max(1, n // SUMSET_X_MEMBERS)
    pairs = _sample_pairs(rng, V1, V2, C0, delta, n_pairs)
    take = min(SUMSET_X_MEMBERS, n)
    # one draw in C order is the per-pair (4, take) draws back to back
    u1, v1, u2, v2 = (rng.random((n_pairs, 4, take)) * OPEN_SCALE).transpose(1, 0, 2)
    cx1, cy1, ct2, cy2 = (col[:, None] for col in (pairs.cx1, pairs.cy1, pairs.ct2, pairs.cy2))
    small, long = _pair_boxes(cx1, cy1, ct2, cy2, rho, delta)
    (x1, y1), (x2, y2) = small.member(u1, v1), long.member(u2, v2)
    N = np.floor(np.rint(cx1 / small.du) * delta)
    x_off = np.abs(x1 + x2 - 2.0 * N * rho * rho)
    y_sum = y1 + y2
    x_half = 10.0 * C0 * C0 * rho * rho / window_shrink
    y_hi = 2.0 * C0 * rho / window_shrink
    bad = (x_off > x_half) | (y_sum < 0.0) | (y_sum > y_hi)
    failures = [{
        "z1": [float(x1[p, t]), float(y1[p, t])],
        "z2": [float(x2[p, t]), float(y2[p, t])],
        "N": int(N[p, 0]),
        "x_offset": float(x_off[p, t]),
        "y_sum": float(y_sum[p, t]),
    } for p, t in zip(*(ix[:5] for ix in np.nonzero(bad)))]
    violations = int(bad.sum())
    return AuditReport(
        name="sumset_x_window",
        passed=violations == 0,
        samples=bad.size,
        stats={
            "delta": delta,
            "violations": violations,
            "x_window_halfwidth": x_half,
            "y_window": [0.0, y_hi],
            "max_x_offset": float(x_off.max()),
            "y_sum_range": [float(y_sum.min()), float(y_sum.max())],
        },
        failures=failures,
    )


# Most (point, center) candidates `_cube_multiplicity` tests at once: about
# 16 MB of temporaries, and about three times the default audit's 45,000.
CUBE_CANDIDATES = 2**17


def _cube_multiplicity(pts, centers, r) -> np.ndarray:
    """How many centers lie within r of each point in every coordinate; only
    the x-sorted centers within 2r in x, a margin for rounding, are tested,
    at most CUBE_CANDIDATES (point, center) candidates at a time."""
    ctr = centers[np.argsort(centers[:, 0], kind="stable")]
    hi = np.searchsorted(ctr[:, 0], pts[:, 0] + 2.0 * r, side="right")
    ends = np.cumsum(hi - np.searchsorted(ctr[:, 0], pts[:, 0] - 2.0 * r))
    total = int(ends[-1])
    mult = np.zeros(len(pts), dtype=np.int64)
    for first in range(0, total, CUBE_CANDIDATES):
        # candidate c is center hi[i] - (ends[i] - c) of point i
        c = np.arange(first, min(first + CUBE_CANDIDATES, total))
        i = np.searchsorted(ends, c, side="right")
        inside = (np.abs(pts[i] - ctr[hi[i] - ends[i] + c]) <= r).all(axis=1)
        mult += np.bincount(i[inside], minlength=len(pts))
    return mult


def _surface_sum(x1, y1, x2, y2) -> np.ndarray:
    """phi(z1) + phi(z2) for the base phase, elementwise."""
    return phase_eval(BASE, (x1, y1)) + phase_eval(BASE, (x2, y2))


def _tuple_draws(rng, count: int, slabs: int, take: int) -> tuple:
    """count slab indices below slabs >= 2 and count (4, take) unit offsets
    in [0, 1), as arrays, as each tuple's `integers(slabs)` and then
    `random((4, take))` draw them: an exact replay of rng's stream
    (`_Stream`).  Without a buffered word, two tuples share one raw output
    for their slab draws, so a pass reads periods of that output and both
    tuples' doubles; a buffered word or a rejected draw takes one tuple's
    scalar draws."""
    stream, per = _Stream(rng), 4 * take
    slab_draws, offsets = np.empty(count, np.int64), np.empty((count, per))
    periods = max(1, _STREAM_BLOCK // 2 // (2 * per + 1))
    j = 0
    while j < count:
        n = t = 0 if stream.has else min(count - j, 2 * periods)
        if n:
            raw = stream.peek((n + 1) // 2 * (2 * per + 1)).reshape(-1, 2 * per + 1)
            words = np.stack([raw[:, 0] & (_WORD - 1), raw[:, 0] >> 32], axis=1).ravel()[:n]
            slab, _, rejected = _lemire(words, np.arange(n), slabs)
            t = int(np.argmax(rejected)) if rejected.any() else n
            slab_draws[j:j + t] = slab[:t]
            offsets[j:j + t] = stream.unit(raw[:, 1:].reshape(-1, per)[:t])
            if t:
                stream.skip(t * per + (t + 1) // 2, t % 2, int(raw[(t - 1) // 2, 0] >> 32))
            j += t
        if j < count and (stream.has or t < n):
            slab_draws[j], offsets[j] = stream.integers(slabs), stream.doubles(per)
            j += 1
    stream.close()
    return slab_draws, offsets.reshape(count, 4, take) * OPEN_SCALE


def audit_sumset_cubes(V1: Strip, V2: Strip, C0, delta, n: int, seed,
                       side_factor: float = CUBE_SIDE_FACTOR) -> AuditReport:
    """Anisotropically rescaled 3d surface sums stay in small cubes.

    Tuples (i, i', j, k) index an admissible pair in the N=0 column band
    together with a y-slab of the long box of width rho*delta.  Each sampled
    surface sum (z1, phi(z1)) + (z2, phi(z2)), after the inverse dilation
    (x/rho^2, y/rho, z/rho^3), must land within the cube of side
    side_factor*delta centered at the image of the base sum of its tuple.
    The overlap multiplicity of these cubes at the first
    CUBE_MULTIPLICITY_POINTS sampled points is recorded along with the
    smallest enclosing side actually observed.  Each of the
    n // SUMSET_CUBE_MEMBERS tuples (at least one) gets
    min(SUMSET_CUBE_MEMBERS, n) members.
    """
    n = _require_count(n=n)
    rho, C0 = _check_strips(V1, V2, C0)
    delta, side_factor = _require_dyadic(delta=delta), _require_positive(side_factor=side_factor)
    if delta > SUMSET_CUBES_DELTA_MAX:
        raise ValueError("slab decomposition needs delta <= 1/2")
    rng = np.random.default_rng(seed)
    n_tuples = max(1, n // SUMSET_CUBE_MEMBERS)
    pairs = _sample_pairs(rng, V1, V2, C0, delta, n_tuples, x_band=True)
    slab = rho * delta
    slabs_per_box = int(round(1.0 / delta))
    half = side_factor * delta / 2.0
    slab_draws, offsets = _tuple_draws(rng, n_tuples, slabs_per_box, min(SUMSET_CUBE_MEMBERS, n))
    u1, v1, u2, v2 = offsets.transpose(1, 0, 2)

    k = np.rint(pairs.cy2 / slab) + slab_draws
    # each tuple's small box and slab of its long box, one per row
    small, long = _pair_boxes(*(c[:, None] for c in (pairs.cx1, pairs.cy1, pairs.ct2, k * slab)), rho, delta)
    long = replace(long, dy=slab)
    x2k, y2k = (c[:, 0] for c in long.member(0.0, 0.0))
    # The base sums take Python float arithmetic through object arrays:
    # numpy's vectorized pow can differ from libm pow in the last bit.
    base_z = _surface_sum(pairs.cx1, pairs.cy1.astype(object), x2k, y2k.astype(object))
    center = np.stack([(pairs.cx1 + x2k) / rho**2, (pairs.cy1 + y2k) / rho,
                       base_z.astype(float) / rho**3], axis=1)
    (x1, y1), (x2, y2) = small.member(u1, v1), long.member(u2, v2)
    w = np.stack([(x1 + x2) / rho**2, (y1 + y2) / rho, _surface_sum(x1, y1, x2, y2) / rho**3],
                 axis=2)
    off = np.abs(w - center[:, None, :]).max(axis=2)
    max_off = float(off.max())
    bad = off > half + 1e-12
    failures = [{
        "z1": [float(x1[p, t]), float(y1[p, t])],
        "z2": [float(x2[p, t]), float(y2[p, t])],
        "offset_over_delta": float(off[p, t] / delta),
    } for p, t in zip(*(ix[:5] for ix in np.nonzero(bad)))]
    violations = int(bad.sum())

    keys = np.stack([pairs.cx1, pairs.cy1, pairs.ct2, k], axis=1)
    first = np.unique(keys, axis=0, return_index=True)[1]
    pts = w.reshape(-1, 3)[:CUBE_MULTIPLICITY_POINTS]
    mult = _cube_multiplicity(pts, center[first], half + 1e-12)
    return AuditReport(
        name="sumset_cubes",
        passed=violations == 0,
        samples=bad.size,
        stats={
            "delta": delta,
            "cube_side": side_factor * delta,
            "violations": violations,
            "tuples": len(first),
            "max_offset_over_delta": max_off / delta,
            "min_enclosing_side_over_delta": 2.0 * max_off / delta,
            "max_multiplicity": int(mult.max()),
            "mean_multiplicity": float(mult.mean()),
        },
        failures=failures,
    )


def sumset_cube_stability(V1: Strip, V2: Strip, C0, deltas, n: int, seed) -> AuditReport:
    """Cube audit across a scale grid, at the cube side CUBE_SIDE_FACTOR*delta:
    containment everywhere and overlap multiplicity varying by at most a
    factor 2 across the grid."""
    reports = [audit_sumset_cubes(V1, V2, C0, d, n, np.random.default_rng([seed, k]).integers(2**31))
               for k, d in enumerate(deltas)]
    mults = [r.stats["max_multiplicity"] for r in reports]
    contained = all(r.passed for r in reports)
    stable = max(mults) <= 2 * max(1, min(mults))
    return AuditReport(
        name="sumset_cube_stability",
        passed=contained and stable,
        samples=sum(r.samples for r in reports),
        stats={
            "deltas": [float(d) for d in deltas],
            "max_multiplicities": mults,
            "containment_all": contained,
            "multiplicity_stable": stable,
            "per_delta": [r.to_json_dict() for r in reports],
        },
        failures=[f for r in reports for f in r.failures][:5],
    )
