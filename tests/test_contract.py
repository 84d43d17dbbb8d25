"""The input contract of the public entries: a scale is a real power of two,
a count an int of at least 1, a positive number a positive finite real and
every other number a finite real; bools are none of these.  Each entry's
scale, count and number arguments get every value that breaks its kind and
must raise ValueError, never TypeError or OverflowError, and valid edge
values (numpy scalars, the smallest double scale) still work."""

import json
import math

import numpy as np
import pytest

from hypwhitney.extension import (
    QuadratureSpec,
    audit_sumset_cubes,
    audit_sumset_x,
    extend_grid,
    lp_norm,
    sumset_cube_stability,
)
from hypwhitney.geometry import (
    DyadicInterval,
    audit_tau_bounds,
    count_pairs,
    is_dyadic,
    make_type1_pair,
    pair_sample,
    sample_members,
    separated_strip_pair,
)
from hypwhitney.reports import fit_power_law
from hypwhitney.scaling import (
    AffineMap2,
    audit_hessian_entry,
    audit_prototype_tv,
    gamma_scaled_audit,
    prototype,
    prototype_tv_stability,
)
from hypwhitney.surface import BASE, PhaseFamily, grad_hess, phase_eval
from hypwhitney.whitney import (
    audit_chi,
    audit_disjoint,
    audit_locate,
    audit_overlap,
    containing_pairs,
    decompose,
    locate_pair,
)

C0, RHO, DELTA = 32.0, 2.0**-4, 2.0**-6
V1, V2 = separated_strip_pair(-12, 12, RHO, C0)
TABLE = pair_sample(V1, V2, DELTA, C0, max_pairs=16)
PAIR = TABLE[len(TABLE) // 2]
PARAMS = (PAIR.cx1, PAIR.cy1, PAIR.ct2, PAIR.cy2)
DECOMP = decompose(V1, V2, C0, DELTA, DELTA, cap=64)
SCENE = prototype(2.0**-3, 2.0**-5, 2.0**-3, 1.0)
FIELD = extend_grid(PAIR.carrier(1), BASE, QuadratureSpec(truncation=(4.0,) * 3, freq_grid=(4,) * 3))
Z1, Z2 = PAIR.member_at((0.5, 0.5, 0.5, 0.5))

# Values no number argument takes, then those no positive one takes.
NOT_NUMBERS = (None, True, "x", [], {}, math.nan, math.inf, -math.inf, 10**400)
NOT_POSITIVE = (0, -1, -0.0)
BAD = {
    "number": NOT_NUMBERS,
    "positive": NOT_NUMBERS + NOT_POSITIVE,
    "scale": NOT_NUMBERS + NOT_POSITIVE + (1.5,),
    "count": NOT_NUMBERS + NOT_POSITIVE + (2.5,),
}

# "entry.argument" -> (kind, a valid value, the entry called with v in that
# argument and valid values in the others).
ENTRIES = {
    # surface
    "PhaseFamily.cubic": ("number", 1.0, lambda v: PhaseFamily(v)),
    "PhaseFamily.rescaled.delta": ("positive", 2.0, lambda v: PhaseFamily.rescaled(v)),
    "PhaseFamily.prototype.delta": ("positive", 2.0, lambda v: PhaseFamily.prototype(v)),
    "phase_eval.x": ("number", 0.5, lambda v: phase_eval(BASE, (v, 0.5))),
    "phase_eval.y": ("number", 0.5, lambda v: phase_eval(BASE, (0.5, v))),
    "grad_hess.x": ("number", 0.5, lambda v: grad_hess(BASE, (v, 0.5))),
    "grad_hess.y": ("number", 0.5, lambda v: grad_hess(BASE, (0.5, v))),
    # geometry
    "DyadicInterval.rho": ("scale", RHO, lambda v: DyadicInterval(0, v)),
    "separated_strip_pair.rho": ("scale", RHO, lambda v: separated_strip_pair(-12, 12, v, C0)),
    "separated_strip_pair.C0": ("scale", C0, lambda v: separated_strip_pair(-12, 12, RHO, v)),
    **{f"make_type1_pair.{name}": ("number", PARAMS[k], lambda v, k=k: make_type1_pair(
        *PARAMS[:k], v, *PARAMS[k + 1:], RHO, DELTA, C0))
       for k, name in enumerate(("x1_0", "y1_0", "t2_0", "y2_0"))},
    "make_type1_pair.rho": ("scale", RHO, lambda v: make_type1_pair(*PARAMS, v, DELTA, C0)),
    "make_type1_pair.delta": ("scale", DELTA, lambda v: make_type1_pair(*PARAMS, RHO, v, C0)),
    "make_type1_pair.C0": ("scale", C0, lambda v: make_type1_pair(*PARAMS, RHO, DELTA, v)),
    "sample_members.n": ("count", 8, lambda v: sample_members(PAIR, v, 1)),
    "audit_tau_bounds.n": ("count", 8, lambda v: audit_tau_bounds(PAIR, v, 1)),
    "pair_sample.delta": ("scale", DELTA, lambda v: pair_sample(V1, V2, v, C0)),
    "pair_sample.C0": ("scale", C0, lambda v: pair_sample(V1, V2, DELTA, v)),
    "pair_sample.max_pairs": ("count", 8, lambda v: pair_sample(V1, V2, DELTA, C0, max_pairs=v)),
    "count_pairs.delta": ("scale", DELTA, lambda v: count_pairs(V1, V2, v, C0)),
    "count_pairs.C0": ("scale", C0, lambda v: count_pairs(V1, V2, DELTA, v)),
    # whitney
    "decompose.C0": ("scale", C0, lambda v: decompose(V1, V2, v, DELTA, DELTA)),
    "decompose.delta_min": ("positive", DELTA, lambda v: decompose(V1, V2, C0, v, DELTA)),
    "decompose.delta_max": ("positive", DELTA, lambda v: decompose(V1, V2, C0, DELTA, v)),
    "decompose.cap": ("count", 8, lambda v: decompose(V1, V2, C0, DELTA, DELTA, cap=v)),
    "locate_pair.C0": ("scale", C0, lambda v: locate_pair(Z1, Z2, V1, V2, v)),
    "locate_pair.z1": ("number", Z1[0], lambda v: locate_pair((v, Z1[1]), Z2, V1, V2, C0)),
    "locate_pair.z2": ("number", Z2[1], lambda v: locate_pair(Z1, (Z2[0], v), V1, V2, C0)),
    "containing_pairs.C0": ("scale", C0, lambda v: containing_pairs(Z1, Z2, V1, V2, v)),
    "containing_pairs.z1": ("number", Z1[1], lambda v: containing_pairs((Z1[0], v), Z2, V1, V2, C0)),
    "containing_pairs.z2": ("number", Z2[0], lambda v: containing_pairs(Z1, (v, Z2[1]), V1, V2, C0)),
    "audit_disjoint.n": ("count", 8, lambda v: audit_disjoint(DECOMP, v, 1)),
    "audit_overlap.n": ("count", 8, lambda v: audit_overlap(DECOMP, v, 1)),
    "audit_overlap.kappa": ("positive", 8.0, lambda v: audit_overlap(DECOMP, 8, 1, kappa=v)),
    "audit_locate.C0": ("scale", C0, lambda v: audit_locate(V1, V2, v, 8, 1)),
    "audit_locate.n": ("count", 8, lambda v: audit_locate(V1, V2, C0, v, 1)),
    "audit_chi.n": ("count", 8, lambda v: audit_chi(DECOMP, v, 1)),
    # extension
    **{f"QuadratureSpec.{name}": (kind, 8, lambda v, name=name: QuadratureSpec(**{name: v}))
       for name, kind in (("nodes_per_panel", "count"), ("refinement", "count"),
                          ("node_budget", "count"), ("max_panel_phase", "positive"))},
    "QuadratureSpec.freq_grid": ("count", 4, lambda v: QuadratureSpec(freq_grid=(4, v, 4))),
    "QuadratureSpec.truncation": ("positive", 1.0, lambda v: QuadratureSpec(truncation=(1.0, 1.0, v))),
    "lp_norm.p": ("positive", 2.0, lambda v: lp_norm(FIELD, v)),
    "audit_sumset_x.C0": ("scale", C0, lambda v: audit_sumset_x(V1, V2, v, DELTA, 8, 1)),
    "audit_sumset_x.delta": ("scale", DELTA, lambda v: audit_sumset_x(V1, V2, C0, v, 8, 1)),
    "audit_sumset_x.n": ("count", 8, lambda v: audit_sumset_x(V1, V2, C0, DELTA, v, 1)),
    "audit_sumset_x.window_shrink": ("positive", 2.0, lambda v: audit_sumset_x(
        V1, V2, C0, DELTA, 8, 1, window_shrink=v)),
    "audit_sumset_cubes.C0": ("scale", C0, lambda v: audit_sumset_cubes(V1, V2, v, DELTA, 8, 1)),
    "audit_sumset_cubes.delta": ("scale", DELTA, lambda v: audit_sumset_cubes(V1, V2, C0, v, 8, 1)),
    "audit_sumset_cubes.n": ("count", 8, lambda v: audit_sumset_cubes(V1, V2, C0, DELTA, v, 1)),
    "audit_sumset_cubes.side_factor": ("positive", 2.0, lambda v: audit_sumset_cubes(
        V1, V2, C0, DELTA, 8, 1, side_factor=v)),
    "sumset_cube_stability.C0": ("scale", C0, lambda v: sumset_cube_stability(V1, V2, v, [DELTA], 8, 1)),
    "sumset_cube_stability.deltas": ("scale", DELTA, lambda v: sumset_cube_stability(
        V1, V2, C0, [DELTA, v], 8, 1)),
    "sumset_cube_stability.n": ("count", 8, lambda v: sumset_cube_stability(V1, V2, C0, [DELTA], v, 1)),
    # scaling
    "AffineMap2.linear": ("number", 0.0, lambda v: AffineMap2([[1.0, 0.0], [v, 1.0]], [0.0, 0.0])),
    "AffineMap2.offset": ("number", 0.5, lambda v: AffineMap2([[1.0, 0.0], [0.0, 1.0]], [v, 0.0])),
    "prototype.delta": ("positive", 2.0**-3, lambda v: prototype(v, 2.0**-5, 2.0**-3, 1.0)),
    "prototype.c0": ("positive", 2.0**-5, lambda v: prototype(2.0**-3, v, 2.0**-3, 1.0)),
    "prototype.a": ("number", 2.0**-3, lambda v: prototype(2.0**-3, 2.0**-5, v, 1.0)),
    "prototype.b": ("number", 1.0, lambda v: prototype(2.0**-3, 2.0**-5, 2.0**-3, v)),
    "PrototypeScene.sample_scaled.n": ("count", 8, lambda v: SCENE.sample_scaled(v, 1)),
    "audit_prototype_tv.n": ("count", 8, lambda v: audit_prototype_tv(SCENE, v, 1)),
    "audit_hessian_entry.n": ("count", 8, lambda v: audit_hessian_entry(SCENE, v, 1)),
    "prototype_tv_stability.deltas": ("positive", 2.0**-5, lambda v: prototype_tv_stability(
        [2.0**-3, v], 2.0**-5, 8, 1)),
    "prototype_tv_stability.c0": ("positive", 2.0**-5, lambda v: prototype_tv_stability(
        [2.0**-3, 2.0**-4], v, 8, 1)),
    "prototype_tv_stability.n": ("count", 8, lambda v: prototype_tv_stability(
        [2.0**-3, 2.0**-4], 2.0**-5, v, 1)),
    "gamma_scaled_audit.n": ("count", 8, lambda v: gamma_scaled_audit(PAIR, v, 1)),
    # reports
    "fit_power_law.x": ("positive", 8.0, lambda v: fit_power_law([1.0, 2.0, v], [1.0, 2.0, 3.0])),
    "fit_power_law.y": ("positive", 4.0, lambda v: fit_power_law([1.0, 2.0, 4.0], [1.0, 2.0, v])),
}

CASES = [pytest.param(entry, value, id=f"{entry}-{value!r:.12}")
         for entry, (kind, _, _) in ENTRIES.items() for value in BAD[kind]]


@pytest.mark.parametrize("entry, value", CASES)
def test_bad_input_raises_value_error(entry, value):
    with pytest.raises(ValueError):
        ENTRIES[entry][2](value)


@pytest.mark.parametrize("entry", ENTRIES)
def test_entries_accept_their_valid_value(entry):
    _, valid, call = ENTRIES[entry]
    call(valid)


def test_pinned_cases():
    with pytest.raises(ValueError, match="need max_pairs >= 1"):
        pair_sample(V1, V2, DELTA, C0, max_pairs=2.5)
    with pytest.raises(ValueError, match="need cap >= 1"):
        decompose(V1, V2, C0, DELTA, DELTA, cap=2.5)
    for value in (True, 10**400, 2**100 + 1, np.bool_(True), 1.5, -2.0, "2"):
        assert not is_dyadic(value)
    for value in (1, 2**100, 2.0**-1074, np.int64(32), np.float64(0.25), np.float32(8.0)):
        assert is_dyadic(value)
    # the pair type is a choice, not a number: True and 1.0 are not type 1
    for pair_type in (True, np.bool_(True), 1.0, 2.0, 0, 3, "1", None):
        for entry in (pair_sample, count_pairs):
            with pytest.raises(ValueError, match="pair_type must be the int 1 or 2"):
                entry(V1, V2, DELTA, C0, pair_type)
    assert pair_sample(V1, V2, DELTA, C0, np.int64(2), max_pairs=4).pair_type == 2


def test_numpy_scalars_and_the_smallest_scale():
    want = pair_sample(V1, V2, DELTA, C0, max_pairs=32)
    got = pair_sample(V1, V2, np.float64(DELTA), np.int64(32), max_pairs=np.int64(32))
    assert type(got.stride) is int and got.C0 == C0 and type(got.C0) is float
    assert np.array_equal(got.cx1, want.cx1) and got.total == want.total
    decomp = decompose(V1, V2, np.int64(32), np.float64(DELTA), np.float64(DELTA), cap=np.int64(64))
    assert json.dumps(decomp.to_json_dict()) == json.dumps(DECOMP.to_json_dict())
    strips = separated_strip_pair(np.int64(-12), np.int64(12), np.float64(RHO), np.int64(32))
    assert json.dumps([strips[0].j, strips[1].rho]) == "[-12, 0.0625]"
    for pair_type in (1, 2):
        table = pair_sample(V1, V2, 2.0**-1074, C0, pair_type)
        assert table.total == len(table) == 0
        assert count_pairs(V1, V2, 2.0**-1074, C0, pair_type) == 0


@pytest.mark.parametrize("j", [None, True, 1.0, 1.5, "1", math.nan, 10**400])
def test_strip_index_is_an_int(j):
    with pytest.raises(ValueError, match="j must be an int"):
        DyadicInterval(j, RHO)
