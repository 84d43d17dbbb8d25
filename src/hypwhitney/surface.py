"""Phase family for the perturbed saddle and its transversality functionals.

The base phase is phi(x, y) = x*y + y**3/3.  Its rescaled variants share the
same mixed term and differ only in the coefficient c of the cubic term, so
the whole family is x*y + c*y**3/3, one field per member:

    BASE            c = 1
    rescaled(d)     c = 1/max(1, d)
    prototype(d)    c = 1/d

c = 0 is the saddle x*y.  All functionals below accept either scalar points
or numpy arrays of coordinates and broadcast componentwise.

Every module imports this one, so the package's input checks live here too.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseFamily",
    "BASE",
    "GradHess",
    "phase_eval",
    "grad_hess",
    "tau",
    "gamma2",
    "tv_values",
]

# Gradient differences below this size do not define a direction.
DEGENERATE_GRADIENT_TOL = 1e-14


def _finite_real(v) -> bool:
    """v is a real within the float range: no bool, nan, infinity or int too
    large for a float."""
    if isinstance(v, float):  # first, as the checks below cost a microsecond
        return math.isfinite(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    return abs(int(v)) <= sys.float_info.max if isinstance(v, numbers.Integral) else math.isfinite(v)


def _positive(v, kind=numbers.Real) -> bool:
    """v is a positive `_finite_real` of the given numbers ABC."""
    return _finite_real(v) and v > 0 and (kind is numbers.Real or isinstance(v, kind))


def _checked(test, message: str, cast, kwargs: dict):
    """The keyword values through cast (a single one bare); ValueError with
    message, formatted with the name and value, at the first to fail test."""
    for name, value in kwargs.items():
        if not test(value):
            raise ValueError(message.format(name, value))
    return cast(value) if len(kwargs) == 1 else tuple(map(cast, kwargs.values()))


def _require_positive(**kwargs):
    return _checked(_positive, "{} must be a positive finite number, got {!r:.40}", float, kwargs)


def _require_finite(**kwargs):
    return _checked(_finite_real, "{} must be a finite number, got {!r:.40}", float, kwargs)


def _finite_array(**kwargs):
    """The array-likes as float arrays; each entry must be a `_finite_real`."""
    return _checked(lambda v: all(map(_finite_real, np.asarray(v, dtype=object).flat)),
                    "{} must hold finite reals only, got {!r:.40}",
                    lambda v: np.array(v, dtype=float), kwargs)


@dataclass(frozen=True)
class PhaseFamily:
    """One member of the phase family x*y + cubic*y**3/3."""

    cubic: float = 1.0

    def __post_init__(self):
        _require_finite(cubic=self.cubic)

    @classmethod
    def rescaled(cls, delta: float) -> "PhaseFamily":
        return cls(1.0 / max(1.0, _require_positive(delta=delta)))

    @classmethod
    def prototype(cls, delta: float) -> "PhaseFamily":
        return cls(1.0 / _require_positive(delta=delta))


BASE = PhaseFamily()


@dataclass(frozen=True)
class GradHess:
    grad: np.ndarray
    hess: np.ndarray
    det: float


def _xy(z):
    x, y = z[0], z[1]
    return x, y


def phase_eval(family: PhaseFamily, z) -> float:
    """Evaluate the phase at z = (x, y)."""
    x, y = _xy(z)
    if not isinstance(x, np.ndarray):
        _require_finite(x=x, y=y)
    return x * y + family.cubic * y**3 / 3.0


def grad_hess(family: PhaseFamily, z) -> GradHess:
    """Gradient, Hessian and Hessian determinant at z.

    The determinant is identically -1 across the family.
    """
    x, y = _xy(z)
    _require_finite(x=x, y=y)
    c = family.cubic
    grad = np.array([y, x + y * y * c], dtype=float)
    hess = np.array([[0.0, 1.0], [1.0, 2.0 * y * c]], dtype=float)
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
    return GradHess(grad=grad, hess=hess, det=float(det))


def tau(z_base, z1, z2):
    """Directed transversality tau_z(z1, z2) for the base phase.

    Only the y-coordinate of the base point enters.  Antisymmetric in
    (z1, z2); specializing the base point to z1 or z2 gives the two
    endpoint functionals whose difference is (y2 - y1)**2.
    """
    _, yb = _xy(z_base)
    x1, y1 = _xy(z1)
    x2, y2 = _xy(z2)
    return (x2 - x1) + (y1 + y2 - yb) * (y2 - y1)


def gamma2(z_base, z1, z2, family: PhaseFamily = BASE):
    """Hessian-inverse quadratic form of the gradient difference.

    Equals <H^{-1}(z_base) (grad(z2) - grad(z1)), grad(z2) - grad(z1)>.
    For the base phase this collapses to 2*(y2 - y1)*tau(z_base, z1, z2);
    for cubic coefficient c the separation term picks up a factor c.
    """
    _, yb = _xy(z_base)
    x1, y1 = _xy(z1)
    x2, y2 = _xy(z2)
    return 2.0 * (y2 - y1) * ((x2 - x1) + (y1 + y2 - yb) * (y2 - y1) * family.cubic)


def _omega_from_gdiff(gx, gy):
    # Unit vector orthogonal to (gx, gy); sign fixed by a positive second
    # component, ties broken toward a positive first component.
    norm = np.hypot(gx, gy)
    ox, oy = -gy / norm, gx / norm
    flip = (oy < 0) | ((oy == 0) & (ox < 0))
    sign = np.where(flip, -1.0, 1.0)
    return ox * sign, oy * sign


def tv_values(family: PhaseFamily, x1, y1, x2, y2):
    """Vectorized (tv1, tv2) for point pairs; nan where the gradients coincide."""
    c = family.cubic
    g1x, g1y = np.asarray(y1, float), np.asarray(x1 + y1 * y1 * c, float)
    g2x, g2y = np.asarray(y2, float), np.asarray(x2 + y2 * y2 * c, float)
    dx, dy = g2x - g1x, g2y - g1y
    bad = np.hypot(dx, dy) < DEGENERATE_GRADIENT_TOL
    dxs = np.where(bad, 1.0, dx)
    ox, oy = _omega_from_gdiff(dxs, np.where(bad, 0.0, dy))
    denom12 = np.sqrt(1.0 + g1x**2 + g1y**2) * np.sqrt(1.0 + g2x**2 + g2y**2)

    out = []
    for yc in (y1, y2):
        # H(z_i) omega with H = [[0, 1], [1, 2cy]]
        wx = oy
        wy = ox + 2.0 * yc * c * oy
        wnorm = np.hypot(wx, wy)
        # (grad2 - grad1) . J . (H omega), J = [[0, 1], [-1, 0]]
        num = dx * wy - dy * wx
        out.append(num / (denom12 * wnorm))
    tv1, tv2 = out
    tv1 = np.where(bad, np.nan, tv1)
    tv2 = np.where(bad, np.nan, tv2)
    return tv1, tv2
