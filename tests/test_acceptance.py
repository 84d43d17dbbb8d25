"""Acceptance suite: one test per shipped guarantee, at the stated sample
counts and tolerances.  Each test prints a single pass/fail line; a FAIL here
is a real measurement, not a broken harness (see the assertion message for
the measured numbers)."""

import dataclasses
import time

import numpy as np
import pytest

from hypwhitney.cli import ExperimentConfig, run_scaling_law
from hypwhitney.extension import (
    QuadratureSpec,
    audit_sumset_x,
    extend_points,
    sumset_cube_stability,
)
from hypwhitney.geometry import (
    Carrier,
    DyadicInterval,
    Strip,
    _steps,
    audit_tau_bounds,
    pair_sample,
    sample_members,
)
from hypwhitney.scaling import prototype, prototype_tv_stability, reduce
from hypwhitney.surface import BASE, PhaseFamily, gamma2, grad_hess, tau
from hypwhitney.whitney import (
    audit_chi,
    audit_disjoint,
    audit_locate,
    audit_overlap,
    decompose,
)

C0 = 32.0
RHO_GRID = (2.0**-4, 2.0**-5, 2.0**-6)
DELTA_GRID = tuple(2.0**k for k in range(-6, 3))


def strips(rho):
    return Strip(DyadicInterval(-12, rho)), Strip(DyadicInterval(12, rho))


def spanning_pairs(limit, per_cell, seed_cols=True):
    """Deterministic pair selection spanning every (rho, delta, type) cell."""
    pairs = []
    for rho in RHO_GRID:
        V1, V2 = strips(rho)
        for delta in DELTA_GRID:
            for ptype in (1, 2):
                pairs.extend(pair_sample(V1, V2, delta, C0,
                                         pair_type=ptype, max_pairs=per_cell))
    return pairs[:limit]


@pytest.fixture(scope="module")
def whitney_decomp():
    V1, V2 = strips(2.0**-4)
    return decompose(V1, V2, C0, 2.0**-8, 4.0, cap=4096)


def report_line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_algebraic_identities():
    n = 10**5
    t0 = time.time()
    rng = np.random.default_rng(1)
    zb, z1, z2 = (rng.uniform(-1, 1, size=(2, n)) for _ in range(3))
    e_diff = float(np.abs(
        (tau(z1, z1, z2) - tau(z2, z1, z2)) - (z2[1] - z1[1]) ** 2).max())
    e_anti = float(np.abs(tau(zb, z1, z2) + tau(zb, z2, z1)).max())
    e_gamma = float(np.abs(
        gamma2(zb, z1, z2) - 2.0 * (z2[1] - z1[1]) * tau(zb, z1, z2)).max())
    fams = (BASE, PhaseFamily.rescaled(2.0**-3), PhaseFamily.rescaled(4.0),
            PhaseFamily.prototype(2.0**-4))
    pts = rng.uniform(-1, 1, (2, n))
    e_det = 0.0
    for i, fam in enumerate(fams):
        for k in range(n // len(fams)):
            gh = grad_hess(fam, (float(pts[0, i * (n // 4) + k]),
                                 float(pts[1, i * (n // 4) + k])))
            e_det = max(e_det, abs(gh.det + 1.0))
    elapsed = time.time() - t0
    worst = max(e_diff, e_anti, e_gamma, e_det)
    ok = worst <= 1e-12 and elapsed < 5.0
    report_line(1, ok, f"max abs error {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"identity error {worst:.2e} (tolerance 1e-12) in {elapsed:.1f}s"


def test_criterion_02_pair_size_windows():
    t0 = time.time()
    pairs = spanning_pairs(200, per_cell=4)
    assert len(pairs) == 200
    failing = []
    for idx, pair in enumerate(pairs):
        rep = audit_tau_bounds(pair, 1000, [2026, idx])
        if not rep.passed:
            failing.append((pair.rho, pair.delta, pair.pair_type,
                            rep.stats["long_ratio_min"]))
    elapsed = time.time() - t0
    ok = not failing and elapsed < 30.0
    report_line(2, ok, f"{len(failing)}/200 pairs violate, {elapsed:.1f}s")
    assert ok, (
        f"{len(failing)} of 200 pairs have member ratios outside the stated "
        f"windows, all via the long-box lower bound 1/1000 (worst "
        f"{min(f[3] for f in failing):.1e}).  The long-box functional sweeps "
        f"through zero inside the box whenever the pair's anchor value lands "
        f"within the member sweep (about 2*s0*rho, i.e. up to ~0.05 "
        f"normalized at C0=32) of the zero crossing; the fixed 1/1000 floor "
        f"presumes a much larger separation constant.  Failing cells: "
        + ", ".join(f"rho={r:g},delta={d:g},type={t}" for r, d, t, _ in failing))


def test_criterion_03_whitney_covering(whitney_decomp):
    t0 = time.time()
    V1, V2 = strips(2.0**-4)
    nlists = sum(1 for d in whitney_decomp.scales
                 for lst in whitney_decomp.scales[d] if lst)
    rep_dis = audit_disjoint(whitney_decomp, -(-10**5 // nlists), 31)
    rep_ovl = audit_overlap(whitney_decomp, 10**5, 32)
    rep_loc = audit_locate(V1, V2, C0, 10**5, 33)
    elapsed = time.time() - t0
    viol = rep_ovl.stats["violations"]
    ok_i = rep_dis.passed and rep_dis.samples >= 10**5
    ok_ii = (viol["multiplicity"] == 0 and viol["scale_ratio"] == 0
             and rep_ovl.stats["max_multiplicity_type1"] <= 64
             and rep_ovl.stats["max_scale_ratio_type1"] <= 2.0**7)
    ok_iii = viol["mixed_small_scale"] == 0 and viol["mixed_scale_ratio"] == 0
    ok_iv = rep_loc.passed
    ok = ok_i and ok_ii and ok_iii and ok_iv and elapsed < 120.0
    report_line(3, ok, f"disjoint {ok_i}, multiplicity {ok_ii}, "
                       f"mixed-type gate {ok_iii}, locate {ok_iv}, {elapsed:.0f}s")
    assert ok, (
        f"disjointness {ok_i} ({rep_dis.samples} samples), within-type "
        f"multiplicity/scale-ratio {ok_ii} (type-1 scale ratios up to "
        f"{rep_ovl.stats['max_scale_ratio_type1']:g}), locate {ok_iv}; "
        f"mixed-type containment gate {ok_iii}: of 10^5 interior samples, "
        f"{viol['mixed_small_scale']} ({viol['mixed_small_scale'] / 1e3:.2f}%) "
        f"lie in products of both types at a scale below 1/800 and "
        f"{viol['mixed_scale_ratio']} ({viol['mixed_scale_ratio'] / 1e3:.2f}%) "
        f"in products of both types whose scales differ by more than 2^10; "
        f"at C0=32 the degenerate neighborhood where both pair types "
        f"coexist extends to much smaller scales than the fixed 1/800 cut "
        f"presumes.  Elapsed {elapsed:.0f}s")


def test_criterion_04_partition_of_unity(whitney_decomp):
    rep = audit_chi(whitney_decomp, 10**5, 4)
    ok = rep.passed
    report_line(4, ok, f"interior {rep.stats['interior']}, "
                       f"outside {rep.stats['outside']}")
    assert ok, rep.stats


def test_criterion_05_reduction_to_unit_scale():
    pairs = spanning_pairs(100, per_cell=2)
    assert len(pairs) == 100
    worst_resid = 0.0
    windows_ok = True
    corners_ok = True
    images_ok = True
    for idx, pair in enumerate(pairs):
        canon = pair if pair.pair_type == 1 else pair.swapped()
        red = reduce(canon)
        z1, z2 = sample_members(canon, 10**4, [5, idx])
        worst_resid = max(worst_resid,
                          float(np.abs(red.residual(z1.T)).max()),
                          float(np.abs(red.residual(z2.T)).max()))
        wedge = min(1.0, canon.delta)
        lo_a, hi_a = C0 * C0 * wedge / 4.0, 4.0 * C0 * C0 * wedge
        windows_ok &= lo_a <= abs(red.scaled_a) < hi_a
        windows_ok &= C0 / 2.0 <= abs(red.scaled_b) <= C0
        h, g = _steps(canon.rho, canon.delta)
        for du in (0.0, g):
            for dy in (0.0, h):
                y = canon.cy1 + dy
                z = (canon.cx1 - canon.cy1 * (y - canon.cy1) + du, y)
                img = red.map.apply(z)
                target = (wedge if du else 0.0, wedge if dy else 0.0)
                corners_ok &= (abs(float(img[0]) - target[0]) <= 1e-12
                               and abs(float(img[1]) - target[1]) <= 1e-12)
        images_ok &= bool(red.image(1).contains(*red.map.apply(z1.T)).all())
    ok = worst_resid <= 1e-12 and windows_ok and corners_ok and images_ok
    report_line(5, ok, f"max residual {worst_resid:.2e}, windows {windows_ok}, "
                       f"image corners {corners_ok}")
    assert ok, (worst_resid, windows_ok, corners_ok, images_ok)


def test_criterion_06_prototype_transversality():
    deltas = tuple(2.0**-k for k in range(2, 9))
    rep = prototype_tv_stability(deltas, 2.0**-5, 10**4, 6)
    s = rep.stats
    ok = (rep.passed and s["tv1_scaled_spread"] <= 4.0
          and s["tv2_scaled_spread"] <= 4.0
          and abs(s["unscaled_exponent"] - 1.0) <= 0.15)
    report_line(6, ok, f"median spreads {s['tv1_scaled_spread']:.2f}/"
                       f"{s['tv2_scaled_spread']:.2f}, unscaled exponent "
                       f"{s['unscaled_exponent']:.3f}")
    assert ok, s


def test_criterion_07_quadrature_correctness():
    quad = QuadratureSpec()
    rng = np.random.default_rng(7)
    pairs = spanning_pairs(2, per_cell=1)
    carriers = [
        Carrier(-1.0, 2.0, -1.0, 2.0),
        pairs[0].carrier(1),
        pairs[0].carrier(2),
        prototype(2.0**-3, 2.0**-5, 2.0**-3, 1.0).carrier(2),
    ]
    e_zero = max(abs(extend_points(c, BASE, (0.0, 0.0, 0.0), quad)[0] - c.area) for c in carriers)
    e_refine = 0.0
    f = carriers[0]
    for _ in range(10):
        xi = rng.standard_normal(3)
        xi = tuple(xi / np.linalg.norm(xi) * rng.uniform(1.0, 2.0**6))
        e_refine = max(e_refine, abs(extend_points(f, BASE, xi, quad)[0]
                                     - extend_points(f, BASE, xi, quad.refine())[0]))
    c = carriers[1]
    parts = [c.subbox((a, a + 0.5), (b, b + 0.5))
             for a in (0.0, 0.5) for b in (0.0, 0.5)]
    e_linear = 0.0
    for _ in range(10):
        xi = tuple(rng.uniform(-64, 64, 3))
        whole = extend_points(c, BASE, xi, quad)[0]
        total = sum(extend_points(p, BASE, xi, quad)[0] for p in parts)
        e_linear = max(e_linear, abs(whole - total))
    ok = e_zero <= 1e-10 and e_refine <= 1e-8 and e_linear <= 1e-12
    report_line(7, ok, f"zero-frequency {e_zero:.1e}, refinement "
                       f"{e_refine:.1e}, partition {e_linear:.1e}")
    assert ok, (e_zero, e_refine, e_linear)


def test_criterion_08_sumset_containment_and_stability():
    t0 = time.time()
    rho = 2.0**-4
    V1, V2 = strips(rho)
    cube_grid = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
    x_viol = 0
    for k, delta in enumerate(cube_grid):
        rep = audit_sumset_x(V1, V2, C0, delta, 25000, [8, k])
        x_viol += rep.stats["violations"]
    rep_cube = sumset_cube_stability(V1, V2, C0, cube_grid, 2500, 88)
    elapsed = time.time() - t0
    containment = rep_cube.stats["containment_all"]
    stable = rep_cube.stats["multiplicity_stable"]
    ok = x_viol == 0 and containment and stable and elapsed < 60.0
    report_line(8, ok, f"x-window violations {x_viol}/100000, cube containment "
                       f"{containment}, multiplicity stable {stable}, {elapsed:.0f}s")
    per = [d["stats"] for d in rep_cube.stats["per_delta"]]
    assert ok, (
        f"x/y-window containment clean ({x_viol} violations in 10^5 sums) and "
        f"overlap multiplicity delta-stable ({stable}), but cube containment "
        f"at side 4*delta fails at every scale: the measured enclosing side "
        f"is about {max(d['min_enclosing_side_over_delta'] for d in per):.0f}"
        f"*delta (~1.2*C0^2*delta).  After the anisotropic normalization the "
        f"sum of two members drifts from the base-sum center by an amount "
        f"with a C0^2 factor that the side-4*delta box ignores; a side of "
        f"2048*delta contains every sum at these constants.  Elapsed "
        f"{elapsed:.0f}s")


def test_criterion_09_scaling_law_exponents():
    t0 = time.time()
    cfg = ExperimentConfig()
    proto = run_scaling_law(cfg, "prototype")
    straight = run_scaling_law(cfg, "straight")
    elapsed = time.time() - t0
    pe, pr2 = proto["fit"]["exponent"], proto["fit"]["r_squared"]
    se = straight["fit"]["exponent"]
    ok_p = pe >= 0.5 - 0.15 and pr2 >= 0.9
    ok_s = -0.15 <= se <= 0.3
    ok = ok_p and ok_s and elapsed <= 600.0
    report_line(9, ok, f"curved exponent {pe:.3f} (r2 {pr2:.3f}), straight "
                       f"exponent {se:.3f}, {elapsed:.0f}s")
    assert ok, (pe, pr2, se, elapsed)


def test_criterion_10_negative_controls():
    rho, delta = 2.0**-4, 2.0**-4
    V1, V2 = strips(rho)
    pair = pair_sample(V1, V2, delta, C0, max_pairs=1)[0]
    corrupted = dataclasses.replace(pair, ct2=pair.cx1 + 64.0 * (pair.ct2 - pair.cx1))
    rep_pair = audit_tau_bounds(corrupted, 1000, 101)
    rep_window = audit_sumset_x(V1, V2, C0, delta, 20000, 102,
                                window_shrink=64.0)
    decomp = decompose(V1, V2, C0, delta, delta, cap=512)
    rep_kappa = audit_overlap(decomp, 2000, 103, kappa=1e-3)
    ok = not rep_pair.passed and not rep_window.passed and not rep_kappa.passed
    report_line(10, ok, f"corrupted pair fails {not rep_pair.passed}, shrunken "
                        f"window fails {not rep_window.passed}, tightened "
                        f"overlap bound fails {not rep_kappa.passed}")
    assert ok, (rep_pair.passed, rep_window.passed, rep_kappa.passed)
