"""Experiment driver: validated configuration, audit batches over scale
grids, scaling-law sweeps with power-law fits, and deterministic reports.

Outputs are plain JSON and CSV; identical config and seed give byte-identical
files regardless of the thread count (grid points may run concurrently, but
reports are assembled single-threaded in grid order).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import sys
import threading
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .extension import (
    SUMSET_CUBES_DELTA_MAX,
    SUMSET_X_DELTA_MAX,
    QuadratureSpec,
    audit_sumset_x,
    bilinear_field,
    lp_norm,
    sumset_cube_stability,
)
from .geometry import (
    AdmissiblePair,
    _dyadic_label,
    _floor_log2,
    _require_count,
    _require_dyadic,
    _steps,
    audit_tau_bounds,
    make_type1_pair,
    pair_sample,
    sample_members,
    separated_strip_pair,
)
from .reports import AuditReport, fit_power_law
from .scaling import (
    DEFAULT_PROTOTYPE_C0,
    audit_hessian_entry,
    gamma_scaled_audit,
    prototype,
    prototype_tv_stability,
    reduce,
)
from .surface import BASE, PhaseFamily, _require_finite, gamma2, grad_hess, tau
from .whitney import (
    audit_chi,
    audit_disjoint,
    audit_locate,
    audit_overlap,
    decompose,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run_audits",
    "run_scaling_law",
    "main",
]

SCHEMA = "hypwhitney/1"
SWEEP_HEADER = "delta,rho,p,q,ratio,truncation,refinement_delta"
# The scale grids of ExperimentConfig, each a tuple of powers of two.
GRID_FIELDS = ("rho_grid", "delta_grid", "scaling_delta_grid",
               "straight_delta_grid", "tv_delta_grid")


@dataclass
class ExperimentConfig:
    """Validated experiment parameters; every scale entry a power of two."""

    C0: float = 32.0
    c0: float = DEFAULT_PROTOTYPE_C0
    rho_grid: tuple = (2.0**-4,)
    delta_grid: tuple = (2.0**-6, 2.0**-5, 2.0**-4, 2.0**-3)
    scaling_delta_grid: tuple = (2.0**-1, 2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)
    straight_delta_grid: tuple = (2.0, 4.0, 8.0)
    straight_rho: float = 2.0**-6
    straight_truncation: float = 2.0**13
    tv_delta_grid: tuple = tuple(2.0**-k for k in range(2, 9))
    p: float = 2.0
    q: float = 2.0
    quad: QuadratureSpec = field(
        default_factory=lambda: QuadratureSpec(
            truncation=(2.0**10, 2.0**10, 2.0**10), freq_grid=(48, 48, 48)
        )
    )
    samples: int = 20000
    seed: int = 0
    output_dir: str = "."
    threads: int = 1
    negative_controls: bool = False
    exponent_tolerance: float = 0.15
    straight_band: tuple = (-0.15, 0.3)
    whitney_cap: int = 4096

    def __post_init__(self):
        _require_finite(p=self.p, q=self.q, exponent_tolerance=self.exponent_tolerance)
        if not self.p > 5.0 / 3.0:
            raise ValueError(f"p={self.p} must exceed 5/3")
        if not self.q >= 2.0:
            raise ValueError(f"q={self.q} must be at least 2")
        _require_dyadic(C0=self.C0, c0=self.c0, straight_rho=self.straight_rho,
                        straight_truncation=self.straight_truncation)
        for name in GRID_FIELDS:
            grid = getattr(self, name)
            if not isinstance(grid, (tuple, list)):
                raise ValueError(f"{name} must be a sequence of powers of two, got {grid!r:.40}")
            setattr(self, name, tuple(_require_dyadic(**{f"{name}[{k}]": v}) for k, v in enumerate(grid)))
        _require_count(samples=self.samples, threads=self.threads, whitney_cap=self.whitney_cap)
        seed = self.seed
        if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError(f"seed={self.seed!r} must be a non-negative integer")
        if not isinstance(self.quad, QuadratureSpec):
            raise ValueError("quad must be a mapping or a QuadratureSpec")
        if not isinstance(self.negative_controls, bool):
            raise ValueError(f"negative_controls={self.negative_controls!r} must be a bool")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir={self.output_dir!r} must be a string")
        if not self.exponent_tolerance >= 0.0:
            raise ValueError(f"exponent_tolerance={self.exponent_tolerance} must be >= 0")
        band = self.straight_band
        if not (isinstance(band, (tuple, list)) and len(band) == 2):
            raise ValueError(f"straight_band={band!r:.40} must be two finite numbers lo <= hi")
        lo, hi = _require_finite(**{"straight_band[0]": band[0], "straight_band[1]": band[1]})
        if lo > hi:
            raise ValueError(f"straight_band={band!r} must be two finite numbers lo <= hi")
        self.straight_band = tuple(band)
        for rho in (*self.rho_grid, self.straight_rho):
            _strips(rho, self.C0)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["quad"] = {k: list(v) if isinstance(v, tuple) else v for k, v in d["quad"].items()}
        for key, val in list(d.items()):
            if isinstance(val, tuple):
                d[key] = list(val)
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("quad"), Mapping):
            qd = dict(kwargs["quad"])
            unknown = set(qd) - {f.name for f in dataclasses.fields(QuadratureSpec)}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted('quad.' + k for k in unknown)}")
            kwargs["quad"] = QuadratureSpec(**qd)
        return cls(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_json_dict(json.load(fh))


def _strips(rho: float, C0: float) -> tuple:
    """The separated strip pair of the audits and sweeps at scale rho, at j =
    -+3*C0/8 rounded; ValueError, naming C0 and rho, unless it is one in Q."""
    j = int(round(3.0 * C0 / 8.0))
    try:
        if (j + 1) * rho > 1.0:
            raise ValueError(f"the strips j = -+{j} leave Q = [-1, 1]^2")
        return separated_strip_pair(-j, j, rho, C0)
    except ValueError as exc:
        raise ValueError(f"C0={C0} and rho={rho}: {exc}") from None


# ---------------------------------------------------------------------------
# Bundled audits


def _audit_identities(n: int, seed) -> AuditReport:
    """Algebraic identities of the phase family at random points."""
    rng = np.random.default_rng(seed)
    zb, z1, z2 = (rng.uniform(-1, 1, size=(2, n)) for _ in range(3))
    worst = {}
    t12 = tau(zb, z1, z2)
    worst["tau_difference"] = float(
        np.abs((tau(z1, z1, z2) - tau(z2, z1, z2)) - (z2[1] - z1[1]) ** 2).max()
    )
    worst["tau_antisymmetry"] = float(np.abs(t12 + tau(zb, z2, z1)).max())
    worst["gamma_factorization"] = float(
        np.abs(gamma2(zb, z1, z2) - 2.0 * (z2[1] - z1[1]) * t12).max()
    )
    det_err = 0.0
    for family in (BASE, PhaseFamily.rescaled(2.0**-3), PhaseFamily.rescaled(4.0),
                   PhaseFamily.prototype(2.0**-4)):
        for k in range(min(n, 64)):
            gh = grad_hess(family, (float(z1[0][k]), float(z1[1][k])))
            det_err = max(det_err, abs(gh.det + 1.0))
    worst["hessian_determinant"] = det_err
    bad = {k: v for k, v in worst.items() if v > 1e-12}
    return AuditReport(
        name="surface_identities",
        passed=not bad,
        samples=n,
        stats=worst,
        failures=[{"identity": k, "abs_error": v} for k, v in bad.items()],
    )


def _cell_pairs(rho: float, delta: float, C0: float, limit: int = 3) -> list:
    V1, V2 = _strips(rho, C0)
    type1 = pair_sample(V1, V2, delta, C0, pair_type=1, max_pairs=limit)
    if type1.total == 0:
        return []
    return [*type1, *pair_sample(V1, V2, delta, C0, pair_type=2, max_pairs=1)]


def _audit_tau_cell(rho: float, delta: float, C0: float, n: int, seed) -> AuditReport:
    pairs = _cell_pairs(rho, delta, C0)
    reports = [audit_tau_bounds(p, n, [seed, k]) for k, p in enumerate(pairs)]
    return AuditReport(
        name=f"tau_bounds:rho={_dyadic_label(rho)},delta={_dyadic_label(delta)}",
        passed=all(r.passed for r in reports),
        samples=sum(r.samples for r in reports),
        stats={"pairs": len(pairs),
               "per_pair": [r.stats for r in reports]},
        failures=[f for r in reports for f in r.failures][:5],
    )


def _audit_reduction_cell(rho: float, delta: float, C0: float, n: int, seed) -> AuditReport:
    pairs = _cell_pairs(rho, delta, C0)
    worst = 0.0
    image_ok = True
    for k, pair in enumerate(pairs):
        canon = pair if pair.pair_type == 1 else pair.swapped()
        red = reduce(canon)
        z1, z2 = sample_members(canon, n, [seed, k])
        worst = max(worst, float(np.abs(red.residual(z1.T)).max()),
                    float(np.abs(red.residual(z2.T)).max()))
        image_ok = image_ok and all(bool(red.image(slot).contains(*red.map.apply(z.T)).all())
                                    for slot, z in ((1, z1), (2, z2)))
        origin = red.map.apply(canon.base1)
        worst = max(worst, abs(float(origin[0])), abs(float(origin[1])))
    passed = worst <= 1e-12 and image_ok and bool(pairs)
    return AuditReport(
        name=f"reduction_residual:rho={_dyadic_label(rho)},delta={_dyadic_label(delta)}",
        passed=passed,
        samples=n * len(pairs),
        stats={"pairs": len(pairs), "max_abs_residual": worst, "images_contained": image_ok},
    )


def _corrupted_pair(rho: float, delta: float, C0: float) -> AdmissiblePair:
    pairs = _cell_pairs(rho, delta, C0, limit=1)
    pair = pairs[0]
    # push the anchor discrepancy far outside the admissible window
    return dataclasses.replace(pair, ct2=pair.cx1 + 64.0 * (pair.ct2 - pair.cx1))


def _decompositions(config: ExperimentConfig):
    """rho -> the decomposition of the strip pair at rho over the delta grid.

    Each is built on first request and at most once per rho, whichever
    thread asks first.
    """
    built = {}
    lock = threading.Lock()

    def decomposition(rho):
        with lock:
            if rho not in built:
                V1, V2 = _strips(rho, config.C0)
                built[rho] = decompose(V1, V2, config.C0, min(config.delta_grid),
                                       max(config.delta_grid), cap=config.whitney_cap)
            return built[rho]

    return decomposition


def _audit_tasks(config: ExperimentConfig) -> list:
    """The audit bundle as (name, negative_control, callable(seed) ->
    AuditReport) in run order; a task's position fixes its seed."""
    C0 = config.C0
    n = config.samples
    tv_grid = [d for d in config.tv_delta_grid if d <= 0.25]
    decomposition = _decompositions(config)
    tasks = []

    # all grids empty -> empty bundle (vacuously passing)
    if config.rho_grid or config.delta_grid or tv_grid:
        tasks.append(("surface_identities", False,
                      lambda s: _audit_identities(n, s)))

    for rho in config.rho_grid:
        for delta in config.delta_grid:
            tasks.append((
                f"tau_bounds:rho={_dyadic_label(rho)},delta={_dyadic_label(delta)}",
                False,
                lambda s, r=rho, d=delta: _audit_tau_cell(r, d, C0, min(n, 1000), s),
            ))
            tasks.append((
                f"reduction_residual:rho={_dyadic_label(rho)},delta={_dyadic_label(delta)}",
                False,
                lambda s, r=rho, d=delta: _audit_reduction_cell(r, d, C0, min(n, 2000), s),
            ))

    if len(tv_grid) >= 2:
        tasks.append(("prototype_tv_stability", False,
                      lambda s: prototype_tv_stability(tv_grid, config.c0, n, s)))
        scene = prototype(min(tv_grid), config.c0, min(tv_grid), 1.0)
        tasks.append(("hessian_entry:delta=" + _dyadic_label(min(tv_grid)), False,
                      lambda s, sc=scene: audit_hessian_entry(sc, n, s)))

    for rho in config.rho_grid:
        if not config.delta_grid:
            break
        V1, V2 = _strips(rho, C0)
        pairs = _cell_pairs(rho, min(config.delta_grid), C0, limit=1)
        if pairs:
            tasks.append((f"gamma_scaled:rho={_dyadic_label(rho)}", False,
                          lambda s, p=pairs[0]: gamma_scaled_audit(p, min(n, 2000), s)))
        tag = f":rho={_dyadic_label(rho)}"
        tasks.append(("whitney_disjoint" + tag, False,
                      lambda s, r=rho: audit_disjoint(decomposition(r), n, s)))
        tasks.append(("whitney_overlap" + tag, False,
                      lambda s, r=rho: audit_overlap(decomposition(r), min(n, 4000), s)))
        tasks.append(("whitney_locate" + tag, False,
                      lambda s, v1=V1, v2=V2: audit_locate(v1, v2, C0, n, s)))
        tasks.append(("whitney_chi" + tag, False,
                      lambda s, r=rho: audit_chi(decomposition(r), min(n, 2000), s)))
        for delta in config.delta_grid:
            if delta <= SUMSET_X_DELTA_MAX:
                tasks.append((
                    f"sumset_x:rho={_dyadic_label(rho)},delta={_dyadic_label(delta)}",
                    False,
                    lambda s, v1=V1, v2=V2, d=delta: audit_sumset_x(v1, v2, C0, d, n, s),
                ))
        cube_grid = [d for d in config.delta_grid if d <= SUMSET_CUBES_DELTA_MAX]
        if cube_grid:
            tasks.append((f"sumset_cubes_stability:rho={_dyadic_label(rho)}", False,
                          lambda s, v1=V1, v2=V2, cg=tuple(cube_grid):
                              sumset_cube_stability(v1, v2, C0, cg, n, s)))

    if config.negative_controls and config.rho_grid and config.delta_grid:
        rho0, d0 = config.rho_grid[0], min(config.delta_grid)
        V1, V2 = _strips(rho0, C0)
        tasks.append(("nc:tau_bounds_corrupted", True,
                      lambda s: audit_tau_bounds(_corrupted_pair(rho0, d0, C0),
                                                 min(n, 1000), s)))
        if d0 <= SUMSET_X_DELTA_MAX:
            tasks.append(("nc:sumset_x_shrunken", True,
                          lambda s: audit_sumset_x(V1, V2, C0, d0, n, s,
                                                   window_shrink=64.0)))
        tasks.append(("nc:overlap_kappa_tiny", True,
                      lambda s: audit_overlap(decomposition(rho0), min(n, 2000), s,
                                              kappa=1e-3)))
    return tasks


def _map(threads: int, fn, items) -> list:
    """[fn(x) for x in items], on a pool of `threads` threads when more than
    one; the results keep the order of items."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _run_tasks(config: ExperimentConfig, kind: str, selected: list) -> dict:
    """Run the (index, task) pairs of `selected`, seeding each task with
    [config.seed, index], and assemble the JSON-ready report.

    The aggregate `passed` ignores entries marked as negative controls
    (those are expected to fail).
    """
    def run_task(item):
        idx, (_, _, fn) = item
        return fn([config.seed, idx])

    reports = _map(config.threads, run_task, selected)

    audits = []
    passed = True
    for (_, (name, nc, _)), rep in zip(selected, reports):
        entry = rep.to_json_dict()
        entry["name"] = name
        entry["negative_control"] = nc
        entry["expected_pass"] = not nc
        audits.append(entry)
        if not nc:
            passed = passed and rep.passed
    return {
        "schema": SCHEMA,
        "kind": kind,
        "config": config.to_json_dict(),
        "audits": audits,
        "passed": passed,
    }


def run_audits(config: ExperimentConfig) -> dict:
    """Execute the module audits over the configured grids.

    Returns the JSON-ready bundle; the aggregate `passed` ignores entries
    marked as negative controls (those are expected to fail).
    """
    return _run_tasks(config, "audit", list(enumerate(_audit_tasks(config))))


# ---------------------------------------------------------------------------
# Scaling law


def _matched_straight_pair(config: ExperimentConfig, delta: float) -> AdmissiblePair:
    """Admissible pair inside the square with scale-independent normalized
    windows: x1^0 = -1 and anchor discrepancy C0^2 * rho^2 * delta."""
    rho, C0 = config.straight_rho, config.C0
    g = _steps(rho, delta)[1]
    i = int(round(-1.0 / g))
    d = int(round(C0 * C0))
    V1, V2 = _strips(rho, C0)
    pair = make_type1_pair(i * g, V1.interval.left, (i + d) * g, V2.interval.left,
                           rho, delta, C0)
    if not isinstance(pair, AdmissiblePair):
        raise ValueError(f"no matched straight pair at delta={delta}: {pair}")
    return pair


def run_scaling_law(config: ExperimentConfig, regime: str = "prototype") -> dict:
    """Sweep the bilinear ratio over a dyadic scale grid and fit the power law.

    prototype: unit-normalized curved scenes, theoretical exponent
    7/2 - 6/p at q = 2 (else 5 - 3/q - 6/p), one-sided band
    (measured ratios are lower bounds of the suprema the theory describes).
    straight: admissible pairs with delta >= 1 on the original surface,
    theoretical exponent 2(1 - 1/p - 1/q), two-sided band.
    """
    p, q = config.p, config.q
    if regime == "prototype":
        grid = config.scaling_delta_grid
        if len(grid) < 4:
            raise ValueError("prototype sweep needs at least 4 scale points")
        theory = 3.5 - 6.0 / p if q == 2.0 else 5.0 - 3.0 / q - 6.0 / p
        quad = config.quad
        work = []
        for delta in grid:
            scene = prototype(delta, config.c0, delta, 1.0)
            work.append((delta, 1.0, scene, scene.family, quad))
    elif regime == "straight":
        grid = config.straight_delta_grid
        if len(grid) < 2:
            raise ValueError("straight sweep needs at least 2 scale points")
        if any(d < 1.0 for d in grid):
            raise ValueError("straight sweep needs delta >= 1")
        theory = 2.0 * (1.0 - 1.0 / p - 1.0 / q)
        R = config.straight_truncation
        quad = dataclasses.replace(config.quad, truncation=(R, R, R))
        work = [(delta, config.straight_rho, _matched_straight_pair(config, delta), BASE, quad)
                for delta in grid]
    else:
        raise ValueError(f"unknown regime {regime!r}")

    def one(job):
        delta, rho, owner, family, quad_ = job
        est = lp_norm(bilinear_field(owner, family, quad_), p)
        area1, area2 = owner.carrier(1).area, owner.carrier(2).area
        ratio = est.value / (area1 ** (1.0 / q) * area2 ** (1.0 / q))  # the indicators' q-norms
        return {
            "delta": delta,
            "rho": rho,
            "p": p,
            "q": q,
            "ratio": ratio,
            "truncation": float(quad_.truncation[0]),
            "refinement_delta": est.refinement_delta,
        }

    rows = _map(config.threads, one, work)
    fit = fit_power_law([r["delta"] for r in rows], [r["ratio"] for r in rows])
    if regime == "prototype":
        band = [theory - config.exponent_tolerance, None]
        within = fit.exponent >= band[0]
    else:
        band = list(config.straight_band)
        within = band[0] <= fit.exponent <= band[1]
    return {
        "schema": SCHEMA,
        "kind": "scaling-law",
        "regime": regime,
        "p": p,
        "q": q,
        "rows": rows,
        "fit": {
            "exponent": fit.exponent,
            "log_prefactor": fit.log_prefactor,
            "r_squared": fit.r_squared,
            "n": fit.n,
        },
        "theory_exponent": theory,
        "difference": fit.exponent - theory,
        "band": band,
        "within_band": within,
    }


def _write_sweep_csv(path: Path, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(",".join(repr(float(r[k])) for k in
                              ("delta", "rho", "p", "q", "ratio",
                               "truncation", "refinement_delta")) + "\n")


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Entry point


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="path to a JSON experiment config")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--out", help="override the config output directory")
    sp.add_argument("--threads", type=int, help="concurrent grid points")
    sp.add_argument("--negative-controls", action="store_true",
                    help="include expected-fail control audits")


def _config_from_args(args) -> ExperimentConfig:
    """The config file's (or the default) config with the flags applied,
    validated again as a whole."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {"seed": args.seed, "output_dir": args.out,
                 "threads": None if args.threads is None else max(1, args.threads),
                 "negative_controls": args.negative_controls or None}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


# Audit subcommands: the output file, and the task-name prefixes each one
# selects from the bundle (None: the whole bundle).
_AUDIT_COMMANDS = {
    "audit": ("report.json", None),
    "sumsets": ("sumsets.json",
                ("sumset_x:", "sumset_cubes_stability:", "nc:sumset_x_shrunken")),
    "transversality": ("transversality.json",
                       ("prototype_tv_stability", "hessian_entry:")),
}


def _print_entries(entries) -> None:
    for e in entries:
        tag = "PASS" if e["pass"] else "FAIL"
        nc = " [negative control]" if e.get("negative_control") else ""
        print(f"{tag} {e['name']} (samples={e.get('samples', 0)}){nc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypwhitney",
        description="Audits and experiments for the perturbed-saddle extension geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("audit", "run the full audit bundle and write report.json"),
        ("decompose", "materialize the pair decomposition and write JSON"),
        ("transversality", "prototype transversality stability audits"),
        ("scaling-law", "bilinear ratio sweeps and power-law fits"),
        ("sumsets", "coordinate-sum window and cube audits"),
    ):
        _add_common(sub.add_parser(name, help=helptext))
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.command in _AUDIT_COMMANDS:
        filename, prefixes = _AUDIT_COMMANDS[args.command]
        if prefixes is None:
            bundle = run_audits(config)
        else:
            selected = [(k, task) for k, task in enumerate(_audit_tasks(config))
                        if task[0].startswith(prefixes)]
            bundle = _run_tasks(config, args.command, selected)
        _write_json(out / filename, bundle)
        _print_entries(bundle["audits"])
        print(("PASS" if bundle["passed"] else "FAIL") + " aggregate")
        return 0 if bundle["passed"] else 1

    if args.command == "decompose":
        payload = {"schema": SCHEMA, "kind": "decompose",
                   "config": config.to_json_dict(), "decompositions": []}
        decomposition = _decompositions(config)
        for rho in config.rho_grid if config.delta_grid else ():
            decomp = decomposition(rho)
            payload["decompositions"].append(decomp.to_json_dict())
            with open(out / f"pairs_rho_{-_floor_log2(rho)}.jsonl",
                      "w", encoding="utf-8", newline="\n") as fh:
                decomp.dump_pairs(fh)
        _write_json(out / "decomposition.json", payload)
        print(f"wrote {len(payload['decompositions'])} decompositions to {out}")
        return 0

    if args.command == "scaling-law":
        proto = run_scaling_law(config, "prototype")
        straight = run_scaling_law(config, "straight")
        _write_sweep_csv(out / "sweep.csv", proto["rows"] + straight["rows"])
        payload = {"schema": SCHEMA, "kind": "scaling-law",
                   "config": config.to_json_dict(),
                   "prototype": proto, "straight": straight,
                   "passed": proto["within_band"] and straight["within_band"]}
        _write_json(out / "scaling.json", payload)
        for res in (proto, straight):
            print(f"{res['regime']}: exponent {res['fit']['exponent']:.4f} "
                  f"theory {res['theory_exponent']:.4f} "
                  f"within_band {res['within_band']}")
        return 0 if payload["passed"] else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
