"""Command-line scenario runner.

Binds drift construction, simulation, and diagnostics into reproducible
scenarios driven by flat key = value config files.  Exit codes: 0 success,
1 diagnostic check failed, 2 config/argument parse failure, 3 numerical
precondition (CFL, total-speed bound) violated.
"""

import argparse
import math
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .drifts import DriftAssembly, assemble_borderline, assemble_selfsimilar, hodge_decompose
from .fields import Grid, SpaceTimeField, _sq_distance, curl, read_field, write_field
from .norms import (
    SLICED_RT,
    SLICED_TR,
    SPACE_OUTER,
    TIME_OUTER,
    Annulus,
    MixedNormSpec,
    criticality_index,
    mixed_norm,
)
from .solver import FieldDrift, SolverConfig, fundamental_solution, gaussian_blob, solve

FMT = "%.17g"


class ConfigError(Exception):
    pass


class PreconditionError(Exception):
    pass


# solve refuses input with ValueError and stops on a NaN with RuntimeError
SOLVE_ERRORS = (ValueError, RuntimeError)


# ---------------------------------------------------------------------------
# config files: flat `key = value` lines, `#` comments, dotted sections


def parse_config(path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    cfg = {}
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"{path}:{i}: expected 'key = value'")
        if key in cfg:
            raise ConfigError(f"{path}:{i}: duplicate key {key!r}")
        cfg[key] = val
    return cfg


# ---------------------------------------------------------------------------
# settings: a scenario's table maps each key it reads to (parser, check, default)


def _floats(text):
    return tuple(float(x) for x in text.split(","))


_NOUNS = {str: "text", float: "a number", int: "an integer", _floats: "a comma list of numbers"}
FINITE = (math.isfinite, "finite")  # a check is (predicate, what it asks for)
POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and positive")
WHOLE = (lambda v: all(x.is_integer() for x in v), "whole numbers")
REQUIRED = object()  # the default of a key the config must set


def at_least(k):
    return (lambda v: v >= k, f"a whole number of at least {k}")


def one_of(*names):
    return (lambda v: v in names, "one of " + ", ".join(names))


COMMON = {
    "scenario.kind": (str, None, REQUIRED),
    "scenario.name": (str, None, None),
    "solver.dt": (float, None, None),  # SolverConfig checks the solver keys
    "solver.safety": (float, None, 0.4),
    "drift.nt": (int, at_least(1), 17),  # stored drift slices
    "output.dir": (str, None, REQUIRED),
}
GRID = {  # Grid checks grid.n, the bounds and grid.bc
    "grid.n": (int, None, 2),
    "grid.lo": (_floats, None, REQUIRED),
    "grid.hi": (_floats, None, REQUIRED),
    "grid.shape": (_floats, WHOLE, REQUIRED),
    "grid.t0": (float, None, 0.0),
    "grid.t1": (float, None, REQUIRED),
    "grid.nt": (int, at_least(2), 2),  # a run stores its start and end
    "grid.bc": (str, None, "periodic"),
    **COMMON,
}
DIFFUSION = {
    "drift.kind": (str, one_of("none", "manifest", "random_stream"), "none"),
    "drift.manifest": (str, None, None),  # relative to the config file
    "drift.seed": (int, at_least(0), 0),
    "drift.amplitude": (float, FINITE, 1.0),
    "init.kind": (str, one_of("blob", "fundamental"), "blob"),
    "init.center": (_floats, None, None),  # default: the origin
    "init.width": (float, POSITIVE, None),  # default: four cells
    **GRID,
}
NASH = {
    "scenario.seed": (int, at_least(0), 0),
    "ensemble.count": (int, at_least(3), 10),
    "ensemble.amplitude": (float, FINITE, None),  # 1.0; refused where no member uses it
    **GRID,
}
BLOWUP = {
    "assembly.K": (int, at_least(2), 6),  # the trend needs two blocks
    "assembly.scale0": (float, POSITIVE, 0.3),
    "assembly.ratio": (float, POSITIVE, 0.8),
    "assembly.amp_ratio": (float, FINITE, 0.9),
    "assembly.travel": (float, FINITE, 1.2),
    "assembly.end_time": (float, FINITE, 0.98),
    "run.resolution": (int, at_least(2), 256),
    "run.extent": (float, FINITE, 2.0),
    "run.tau0": (float, POSITIVE, 0.2),
    "run.tau1": (float, FINITE, 0.5),
    "probe.radius": (float, POSITIVE, 0.5),
    **COMMON,
}


def read_settings(cfg, table):
    """Every key of table, parsed and checked, or its default. Refuses a
    missing required key and a key not in table, naming the nearest one."""
    unknown = [key for key in cfg if key not in table]  # in file order
    if unknown:
        import difflib  # only a refused config pays for the import
        near = difflib.get_close_matches(unknown[0], table, n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        raise ConfigError(f"unknown config key {unknown[0]!r}{hint}")
    settings = {}
    for key, (parse, check, default) in table.items():
        text = cfg.get(key)
        if text is None and default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        try:
            settings[key] = default if text is None else parse(text)
        except ValueError:
            raise ConfigError(f"config key {key!r}: not {_NOUNS[parse]}: {text!r}")
        if text is not None and check is not None and not check[0](settings[key]):
            raise ConfigError(f"config key {key!r}: must be {check[1]}, got {text!r}")
    return settings


def build_grid(s):
    n, lo, hi, shape = s["grid.n"], s["grid.lo"], s["grid.hi"], s["grid.shape"]
    if len(lo) != n or len(hi) != n or len(shape) != n:
        raise ConfigError("grid.lo/hi/shape must all have grid.n entries")
    room = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8  # float64s that fit
    for key, per_cell in (("grid.nt", s["grid.nt"]), ("drift.nt", s["drift.nt"] * n)):
        if per_cell * math.prod(int(x) for x in shape) > room:  # refused before any sampling
            raise ConfigError(f"{key} = {s[key]} times grid.shape cells exceeds physical memory")
    try:
        return Grid(n, lo, hi, tuple(int(x) for x in shape),
                    s["grid.t0"], s["grid.t1"], s["grid.nt"], s["grid.bc"])
    except ValueError as e:
        raise ConfigError(f"bad grid: {e}")


def build_solver_config(s):
    try:
        return SolverConfig(dt=s["solver.dt"], safety=s["solver.safety"])
    except ValueError as e:
        raise ConfigError(f"bad solver config: {e}")


# ---------------------------------------------------------------------------
# drift construction from config


def trig_stream_field(grid, seed, amplitude):
    """Sampled random trigonometric stream drift of four modes (discretely
    div-free)."""
    rng = np.random.default_rng(seed)
    X = grid.meshgrid()
    psi = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(1, 4, size=grid.n)
        phase = rng.uniform(0, 2 * np.pi, size=grid.n)
        term = amplitude * rng.standard_normal()
        wave = np.ones(grid.shape)
        for i in range(grid.n):
            L = grid.hi[i] - grid.lo[i]
            wave = wave * np.sin(2 * np.pi * k[i] * (X[i] - grid.lo[i]) / L + phase[i])
        psi += term * wave
    # in 3D the stream function drives the x-y plane: potential (0, 0, -psi)
    zero = np.zeros(grid.shape)
    b = curl(psi if grid.n == 2 else (zero, zero, -psi), grid)
    return SpaceTimeField(grid, np.broadcast_to(b, (grid.nt,) + b.shape).copy(), grid.n)


def build_drift(s, grid, config_path):
    kind = s["drift.kind"]
    if kind == "none":
        return None
    dgrid = grid.with_times(grid.t0, grid.t1, s["drift.nt"])
    if kind == "manifest":
        if s["drift.manifest"] is None:
            raise ConfigError("drift.kind = manifest needs drift.manifest")
        p = Path(config_path).parent / s["drift.manifest"]
        if not p.is_file():
            raise ConfigError(f"drift manifest not found: {p}")
        try:
            asm = DriftAssembly.from_manifest(p.read_text())
        except ValueError as e:
            raise ConfigError(f"{p}: {e}")
        if asm.n != grid.n:
            raise ConfigError(f"{p}: a {asm.n}D drift manifest for a {grid.n}D grid")
        return FieldDrift.from_function(dgrid, asm.drift_function(dgrid))
    steady = grid.with_times(grid.t0, grid.t1, 1)  # one slice: the same drift as many
    return FieldDrift(trig_stream_field(steady, s["drift.seed"], s["drift.amplitude"]))


# ---------------------------------------------------------------------------
# scenario: plain diffusion run with ledger checks


def scenario_diffusion(s, out, config_path, jobs):
    grid = build_grid(s)
    sol = build_solver_config(s)
    center = s["init.center"] or (0.0,) * grid.n
    width = 4.0 * min(grid.h) if s["init.width"] is None else s["init.width"]
    inside = all(lo <= c <= hi for lo, c, hi in zip(grid.lo, center, grid.hi))
    if len(center) != grid.n or not inside:
        raise ConfigError(f"init.center must have {grid.n} entries inside the grid box")
    try:  # the blob before the drift, so a blob the grid cannot hold costs no sampling
        theta0 = None if s["init.kind"] == "fundamental" else gaussian_blob(grid, center, width)
    except ValueError as e:
        raise ConfigError(f"init.width: {e}")
    drift = build_drift(s, grid, config_path)

    if theta0 is None:
        run = fundamental_solution(center, grid.t0, drift, grid, sol, width)
    else:
        run = solve(theta0, drift, grid, sol)

    out.mkdir(parents=True, exist_ok=True)
    run.write_csv(out / "ledger.csv")
    write_field(out / "final.dlf1", SpaceTimeField(
        grid.with_times(grid.times[-1], grid.times[-1], 1),
        run.trajectory.samples[-1:]))
    rows = []
    if grid.bc == "periodic":
        drift_rel = np.abs(run.mass - run.mass[0]).max() / abs(run.mass[0])
        rows.append(("mass_conservation", drift_rel, 1e-10, drift_rel < 1e-10))
    # the rise of the max and the fall of the min, each against its initial value
    excess = max(run.maximum.max() - run.maximum[0], run.minimum[0] - run.minimum.min(), 0.0)
    excess /= max(abs(run.maximum[0]), 1e-300)
    rows.append(("max_principle", excess, 1e-10, excess <= 1e-10))
    return rows


# ---------------------------------------------------------------------------
# scenario: Nash drift-independence ensemble


def _map_members(fn, payloads, jobs):
    """[fn(p) for p in payloads] on min(jobs, len(payloads)) processes, or in-process."""
    workers = min(jobs, len(payloads))  # the pool forks all its workers at once
    if workers <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads))


def _nash_member(payload):
    s, idx = payload[0], payload[-1]
    if len(payload) == 3:  # perfbench/record_reference.py passes (raw config, path, idx)
        s = read_settings(s, NASH)
    grid = build_grid(s)
    sol = build_solver_config(s)
    count, seed, amp = s["ensemble.count"], s["scenario.seed"], s["ensemble.amplitude"]
    dgrid = grid.with_times(grid.t0, grid.t1, s["drift.nt"])
    span = grid.t1 - grid.t0

    if idx == 0:
        label, drift = "drift_free", None
    elif idx == count - 2:
        label = "borderline_assembly"
        asm = assemble_borderline(3, n=grid.n, scale0=0.2, travel=0.6,
                                  end_time=grid.t0 + span, gap_frac=0.02,
                                  x_start=(-0.3,) + (0.0,) * (grid.n - 1))
        drift = FieldDrift.from_function(dgrid, asm.drift_function(dgrid))
    elif idx == count - 1:
        label = "selfsimilar_assembly"
        t_seq = grid.t0 + span * np.array([0.05, 0.4, 1.0])
        asm = assemble_selfsimilar(t_seq, n=grid.n, travel=0.6,
                                   x_start=(-0.3,) + (0.0,) * (grid.n - 1))
        drift = FieldDrift.from_function(dgrid, asm.drift_function(dgrid))
    else:
        label = f"random_stream_{idx}"
        steady = grid.with_times(grid.t0, grid.t1, 1)  # one slice: the same drift as many
        drift = FieldDrift(trig_stream_field(steady, seed + idx, 1.0 if amp is None else amp))

    run = fundamental_solution((0.0,) * grid.n, grid.t0, drift, grid, sol)
    ts = grid.times - grid.t0
    sup = run.trajectory.samples.reshape(grid.nt, -1).max(axis=1)
    q = float((ts[1:] ** (grid.n / 2.0) * sup[1:]).max())
    return label, q


def scenario_nash_ensemble(s, out, config_path, jobs):
    count = s["ensemble.count"]
    if count == 3 and s["ensemble.amplitude"] is not None:  # only members 1..count-3 use it
        raise ConfigError("ensemble.amplitude is unused at ensemble.count = 3")
    grid = build_grid(s)  # grid and solver settings: checked before any member runs
    build_solver_config(s)
    results = _map_members(_nash_member, [(s, i) for i in range(count)], jobs)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "members.csv", "w") as f:
        f.write("member,label,nash_quotient\n")
        for i, (label, q) in enumerate(results):
            f.write(f"{i},{label},{FMT % q}\n")
    qs = np.array([q for _, q in results])
    spread = float(qs.max() / qs.min())
    ref = (4.0 * np.pi) ** (-grid.n / 2.0)
    free_err = abs(results[0][1] - ref) / ref
    return [("nash_spread", spread, 2.0, spread < 2.0),
            ("drift_free_vs_gaussian", free_err, 0.1, free_err < 0.1)]


# ---------------------------------------------------------------------------
# scenario: borderline blow-up trend


def _blowup_block(payload):
    """Probe sup of one block: everything it allocates dies when it returns."""
    manifest, k, (resolution, extent, tau0, tau1, probe_radius, drift_nt), config = payload
    assembly = DriftAssembly.from_manifest(manifest)  # a bit-exact round trip
    blk, n = assembly.blocks[k], assembly.n
    t_start, t_end = blk.t0 + tau0 * blk.width, blk.t0 + tau1 * blk.width
    grid = Grid(n, (-extent,) * n, (extent,) * n, (resolution,) * n, t_start, t_end, 2, "periodic")
    dgrid = grid.with_times(t_start, t_end, drift_nt)
    drift = FieldDrift.from_function(dgrid, assembly.drift_function(dgrid))
    X = grid.meshgrid()
    theta0 = assembly.subsolution_at(t_start, np.stack(X, axis=-1))
    run = solve(theta0, drift, grid, config)
    r = np.sqrt(_sq_distance(X, (0.0,) * n))
    return float(run.trajectory.samples[-1][r <= probe_radius].max())


def blowup_probe_series(assembly, resolution, extent, tau0=0.2, tau1=0.5,
                        probe_radius=0.5, drift_nt=17, config=None, jobs=1):
    """Per-block solver runs; probe sup over a fixed ball at activation peaks.

    Each block is run in physical coordinates on its own window
    (t0 + tau0 R^2, t0 + tau1 R^2) starting from the assembly subsolution,
    advected by the sampled assembly drift, on up to `jobs` processes.
    Returns (sups, regressors) with regressor A_k (t'_k)^{-n/2}.
    """
    settings = (resolution, extent, tau0, tau1, probe_radius, drift_nt)
    payloads = [(assembly.manifest(), k, settings, config) for k in range(len(assembly.blocks))]
    sups = _map_members(_blowup_block, payloads, jobs)
    regs = [blk.A * blk.width ** (-assembly.n / 2.0) for blk in assembly.blocks]
    return np.array(sups), np.array(regs)


def scenario_borderline_blowup(s, out, config_path, jobs):
    K, scale0, travel = s["assembly.K"], s["assembly.scale0"], s["assembly.travel"]
    extent, tau0, tau1 = s["run.extent"], s["run.tau0"], s["run.tau1"]
    sol = build_solver_config(s)
    if tau0 >= tau1:
        raise ConfigError("run.tau0 must be less than run.tau1")
    if travel / 2.0 + 4.2 * scale0 > extent:
        raise ConfigError("run.extent too small for the cap support")
    amplitudes = s["assembly.amp_ratio"] ** np.arange(K)
    try:
        asm = assemble_borderline(K, amplitudes=amplitudes, scale0=scale0,
                                  ratio=s["assembly.ratio"], travel=travel,
                                  end_time=s["assembly.end_time"],
                                  x_start=(-travel / 2.0, 0.0))
    except ValueError as e:
        raise ConfigError(str(e))
    sups, regs = blowup_probe_series(asm, s["run.resolution"], extent, tau0, tau1,
                                     s["probe.radius"], s["drift.nt"], sol, jobs)

    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(asm.manifest())
    with open(out / "blocks.csv", "w") as f:
        f.write("block,regressor,probe_sup\n")
        for k in range(K):
            f.write(f"{k + 1},{FMT % regs[k]},{FMT % sups[k]}\n")
    slope = float(np.polyfit(np.log(regs), np.log(sups), 1)[0])
    running = np.maximum.accumulate(sups)
    tail = running[-min(5, K):]
    increasing = bool(np.all(np.diff(tail) > 0))
    return [("loglog_slope_vs_regressor", slope, 0.0, slope > 0.0),
            ("running_sup_increasing_tail", float(increasing), 1.0, increasing)]


# kind: (scenario, settings table); a scenario returns its summary rows
# (check, value, threshold, passed)
SCENARIOS = {
    "diffusion": (scenario_diffusion, DIFFUSION),
    "nash_ensemble": (scenario_nash_ensemble, NASH),
    "borderline_blowup": (scenario_borderline_blowup, BLOWUP),
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args):
    cfg = parse_config(args.config)
    kind = cfg.get("scenario.kind")
    if kind not in SCENARIOS:
        raise ConfigError(f"scenario.kind must be one of {', '.join(SCENARIOS)}, got {kind!r}")
    scenario, table = SCENARIOS[kind]
    settings = read_settings(cfg, table)
    # refused before any work: an output directory that could not be created
    out = Path(os.environ.get("DRIFTLAB_OUT", ".")) / settings["output.dir"]
    base = next((p for p in (out, *out.parents) if p.exists()), out)
    if not base.is_dir():
        raise ConfigError(f"cannot create output directory {out}: {base} is not a directory")
    try:
        rows = scenario(settings, out, args.config, args.jobs)
    except BrokenExecutor:
        raise  # a lost worker is no precondition
    except SOLVE_ERRORS as e:
        raise PreconditionError(str(e))
    with open(out / "summary.csv", "w") as f:
        f.write("check,value,threshold,pass\n")
        for check, value, threshold, passed in rows:
            f.write(f"{check},{FMT % value},{FMT % threshold},{int(bool(passed))}\n")
    return 0 if all(passed for *_, passed in rows) else 1


_ORDERS = {"tq": TIME_OUTER, "xt": SPACE_OUTER,
           "sliced-tr": SLICED_TR, "sliced-rt": SLICED_RT}

_CLASS_LABELS = {
    "subcritical_or_critical": "Region A",
    "supercritical_bounded": "Region B",
    "bounded_total_speed": "bounded total speed",
    "unbounded_line": "unbounded line",
    "dimension_reduced_ok": "dimension_reduced_ok",
    "dimension_reduced_fail": "dimension_reduced_fail",
    "unknown": "unknown (open segment)",
}


def cmd_classify(args):
    try:
        spec = MixedNormSpec(_ORDERS[args.order], args.n,
                             p=float(args.p), q=float(args.q))
        rep = criticality_index(spec)
    except (KeyError, ValueError) as e:
        raise ConfigError(str(e))
    label = _CLASS_LABELS[rep.cls]
    if rep.cls == "dimension_reduced_fail" and "(n-1)/2 endpoint" in rep.governing:
        label += " ((n−1)/2 endpoint)"
    print(f"ζ₀ = {rep.zeta0:.3f}, {label}")
    return 0


def cmd_norm(args):
    try:
        field = read_field(args.dump)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e))
    g = field.grid
    try:
        spec = MixedNormSpec(
            _ORDERS[args.order], g.n, p=float(args.p), q=float(args.q),
            beta=float(args.beta), gamma=float(args.gamma), kappa=float(args.kappa))
        center = tuple(float(x) for x in args.center.split(","))
        if len(center) != g.n:
            raise ValueError(f"--center must have {g.n} entries for a {g.n}D dump")
        region = Annulus(center, args.rinner, args.radius,
                         g.t0 if args.t0 is None else args.t0,
                         g.t1 if args.t1 is None else args.t1)
        val = mixed_norm(field, spec, region)
    except (KeyError, ValueError) as e:
        raise ConfigError(str(e))
    print(FMT % val)
    return 0


def cmd_decompose(args):
    try:
        field = read_field(args.dump)
        dec = hodge_decompose(field)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e))
    recon = dec.reconstruct()
    scale = np.abs(field.samples).max()
    err = np.abs(recon.samples - field.samples).max() / max(scale, 1e-300)
    print(f"residual = {FMT % dec.residual}")
    print(f"potential_l2 = {FMT % dec.a_l2()}")
    print(f"reconstruction_error = {FMT % err}")
    return 0 if err < 1e-6 else 1


def cmd_report(args):
    root = Path(args.dir)
    if not root.is_dir():
        raise ConfigError(f"not a directory: {root}")
    failures = 0
    found = 0
    for summary in sorted(root.rglob("summary.csv")):
        found += 1
        try:
            rows = [line.split(",") for line in summary.read_text().strip().splitlines()[1:]]
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read {summary}: {e}")
        if any(len(row) != 4 for row in rows):
            raise ConfigError(f"{summary}: rows must read 'check,value,threshold,pass'")
        print(f"[{summary.parent.relative_to(root)}]")
        for check, value, threshold, passed in rows:
            status = "pass" if passed == "1" else "FAIL"
            if passed != "1":
                failures += 1
            print(f"  {check}: {value} (threshold {threshold}) {status}")
    if found == 0:
        raise ConfigError("no summary.csv files found")
    return 1 if failures else 0


def _positive_int(s):
    try:
        if int(s) >= 1:
            return int(s)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {s!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="driftlab",
        description="advection-diffusion scenario runner and diagnostics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario config")
    p.add_argument("config")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="workers for nash members or blowup blocks, at most one per unit")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("classify", help="classify a mixed-norm drift space")
    p.add_argument("--order", choices=sorted(_ORDERS), required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("norm", help="mixed norm of a field dump")
    p.add_argument("dump")
    p.add_argument("--order", choices=sorted(_ORDERS), required=True)
    p.add_argument("--p", default="inf")
    p.add_argument("--q", default="inf")
    p.add_argument("--beta", default="inf")
    p.add_argument("--gamma", default="inf")
    p.add_argument("--kappa", default="inf")
    p.add_argument("--center", default="0,0")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--rinner", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("decompose", help="Hodge-decompose a drift dump")
    p.add_argument("dump")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("report", help="summarize scenario outputs under a directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
