"""The three benchmark workloads: seeded inputs, the timed operations, and the
correctness gate against ``reference.json``.

Every input is a function of the benchmark seed alone.  The program under
test sees only the generated config files, DLF1 dumps and fields.  Modules are
called through their attributes (``cli.main``, ``norms.fbc_test``) so that the
traced pass sees every call.
"""
import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

from driftlab import analysis, cli, drifts, fields, norms

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# relative tolerance sized to floating-point round-off: a reordered FFT or
# reduction moves results by ~1e-13, a changed timestep rule by far more
RTOL = 1e-9
ATOL = 1e-12


def close(x, ref):
    return abs(x - ref) <= RTOL * abs(ref) + ATOL


def _same(x, ref):
    if isinstance(ref, float):
        return isinstance(x, float) and close(x, ref)
    return x == ref


def load_reference():
    return json.loads(REFERENCE.read_text())


def _write_cfg(path, cfg):
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def summary_failures(out):
    return [r["check"] for r in read_csv(out / "summary.csv") if r["pass"] != "1"]


# ---------------------------------------------------------------------------
# blowup: configs/borderline-blowup.cfg, one 256^2 run per block

BLOWUP_CFG = {
    "scenario.kind": "borderline_blowup",
    "scenario.name": "borderline-blowup",
    "assembly.K": 6,
    "assembly.scale0": 0.3,
    "assembly.ratio": 0.8,
    "assembly.amp_ratio": 0.9,
    "assembly.travel": 1.2,
    "assembly.end_time": 0.98,
    "run.resolution": 256,
    "run.extent": 2.0,
    "run.tau0": 0.2,
    "run.tau1": 0.5,
    "probe.radius": 0.5,
    "drift.nt": 17,
    "output.dir": "out/borderline-blowup",
}


class Blowup:
    """The seed sets assembly.amp_ratio in [0.8, 1.0].

    The amplitude scales only the initial subsolution, never the drift, so the
    solver takes the same steps for every seed, and by linearity each probe sup
    is the reference sup times (amp_ratio / 0.9)^k.
    """

    # one solver slice, and the biggest array: the sampled drift of a block
    largest = {"slice": (256, 256), "array": (17, 256, 256, 2)}

    def __init__(self, work, amp_ratio):
        self.work = work
        self.amp_ratio = amp_ratio
        cfg = dict(BLOWUP_CFG, **{"assembly.amp_ratio": repr(self.amp_ratio)})
        self.cfg = work / "blowup.cfg"
        _write_cfg(self.cfg, cfg)

    def run(self, jobs):
        return {"rc": cli.main(["run", str(self.cfg)])}

    def check(self, out, ref):
        ref = ref["blowup"]
        res = self.work / BLOWUP_CFG["output.dir"]
        if out["rc"] != 0:
            return [("run", False, f"exit code {out['rc']}")]
        bad = summary_failures(res)
        if bad:
            return [("run", False, f"summary checks failed: {bad}")]
        rows = read_csv(res / "blocks.csv")
        if len(rows) != len(ref["probe_sup"]):
            return [("run", False, f"{len(rows)} blocks, expected {len(ref['probe_sup'])}")]
        scale = self.amp_ratio / ref["amp_ratio"]
        for k, row in enumerate(rows):
            for col in ("regressor", "probe_sup"):
                want = ref[col][k] * scale**k
                if not close(float(row[col]), want):
                    return [("run", False, f"block {k + 1} {col} {row[col]} != {want!r}")]
        return [("run", True, "")]


# ---------------------------------------------------------------------------
# nash: configs/nash-ensemble.cfg through `driftlab run --jobs 2`

NASH_CFG = {
    "scenario.kind": "nash_ensemble",
    "scenario.name": "nash-ensemble",
    "scenario.seed": 7,
    "ensemble.count": 10,
    "ensemble.amplitude": 1.0,
    "grid.n": 2,
    "grid.lo": "-2,-2",
    "grid.hi": "2,2",
    "grid.shape": "128,128",
    "grid.t0": 0,
    "grid.t1": 0.1,
    "grid.nt": 6,
    "grid.bc": "periodic",
    "drift.nt": 65,
    "output.dir": "out/nash-ensemble",
}
NASH_COUNT = 10
NASH_FIXED = (0, NASH_COUNT - 2, NASH_COUNT - 1)  # drift-free and the assemblies


class Nash:
    """The seed picks scenario.seed from the reference pool.

    Members 1..7 use random stream drifts seeded scenario.seed + member, and
    their step count follows the drift's speed.  The pool holds the scenario
    seeds whose ensemble takes the same total number of solver steps, and the
    same steps on the busier of two workers, each within 1.5%: a seed changes
    the drifts but not the amount of work.
    """

    # one solver slice, and the biggest array: a member's sampled drift
    largest = {"slice": (128, 128), "array": (65, 128, 128, 2)}

    def __init__(self, work, scenario_seed):
        self.work = work
        self.scenario_seed = scenario_seed
        self.cfg = work / "nash.cfg"
        _write_cfg(self.cfg, dict(NASH_CFG, **{"scenario.seed": self.scenario_seed}))

    def run(self, jobs):
        return {"rc": cli.main(["run", str(self.cfg), "--jobs", str(jobs)])}

    def expected(self, ref):
        ref = ref["nash"]
        want = {}
        for i in range(NASH_COUNT):
            if i in NASH_FIXED:
                want[i] = ref["fixed"][str(i)]["q"]
            else:
                want[i] = ref["stream"][str(self.scenario_seed + i)]["q"]
        return want

    def check(self, out, ref):
        res = self.work / NASH_CFG["output.dir"]
        if out["rc"] != 0:
            return [("run", False, f"exit code {out['rc']}")]
        bad = summary_failures(res)
        if bad:
            return [("run", False, f"summary checks failed: {bad}")]
        want = self.expected(ref)
        rows = read_csv(res / "members.csv")
        if len(rows) != NASH_COUNT:
            return [("run", False, f"{len(rows)} members, expected {NASH_COUNT}")]
        for row in rows:
            i = int(row["member"])
            if not close(float(row["nash_quotient"]), want[i]):
                return [("run", False,
                         f"member {i} quotient {row['nash_quotient']} != {want[i]!r}")]
        return [("run", True, "")]


# ---------------------------------------------------------------------------
# diagnose: norms, decompositions, FBC ensembles and heat-kernel diagnostics

NORM_ARGS = {
    "tq": ["--order", "tq", "--p", "3", "--q", "inf", "--radius", "0.9"],
    "xt": ["--order", "xt", "--p", "2", "--q", "4", "--radius", "0.9"],
    "sliced-tr": ["--order", "sliced-tr", "--q", "4", "--beta", "2", "--gamma", "3",
                  "--rinner", "0.3", "--radius", "0.9"],
    "sliced-rt": ["--order", "sliced-rt", "--q", "4", "--p", "2", "--kappa", "2",
                  "--rinner", "0.3", "--radius", "0.9"],
}
CLASSIFY_ARGS = [
    ["--order", "tq", "--p", "3", "--q", "inf", "--n", "2"],
    ["--order", "tq", "--p", "3", "--q", "inf", "--n", "3"],
    ["--order", "xt", "--p", "2", "--q", "4", "--n", "2"],
    ["--order", "xt", "--p", "2", "--q", "4", "--n", "3"],
]
SPEC_R = norms.MixedNormSpec("sliced_rt", 2, p=2, q=3, kappa=2)
SPEC_T = norms.MixedNormSpec("time_outer", 2, p=3.0, q=3.0)
T0, T1 = 0.0, 0.15


def _grid(n, res, nt, t0=T0, t1=T1):
    return fields.Grid(n, (-2.0,) * n, (2.0,) * n, (res,) * n, t0, t1, nt, "periodic")


def _smooth_positive_scalar(grid, rng, modes=3):
    X, Y = grid.meshgrid()
    out = np.full(grid.shape, 0.2)
    for _ in range(modes):
        cx, cy = rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(0.1, 0.4)
        out += rng.uniform(0.2, 1.5) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / w**2)
    samples = np.broadcast_to(out, (grid.nt,) + tuple(grid.shape)).copy()
    return fields.SpaceTimeField(grid, samples)


def _heat_kernel_trajectory(grid, source):
    """Analytic Gamma(x - source, t) at the grid's times (no solver)."""
    pts = np.stack(grid.meshgrid(), axis=-1) - source
    samples = np.stack([drifts.heat_kernel(pts, t, grid.n) for t in grid.times])
    return fields.SpaceTimeField(grid, samples)


class Diagnose:
    """The seed picks a variant; the variant seeds every drift and scalar.

    Variants are finite so that each has recorded reference outputs.
    """

    # a 3D time slice, and the biggest array: the 3D assembly dump
    largest = {"slice": (32, 32, 32), "array": (5, 32, 32, 32, 3)}

    def __init__(self, work, variant):
        self.work = work
        self.variant = variant
        rng = np.random.default_rng([variant, 11])
        travel = rng.uniform(0.4, 0.6)
        offset = rng.uniform(-0.2, 0.2, 2)
        t_seq = [0.01, 0.08, T1]
        asm2 = drifts.assemble_selfsimilar(t_seq, n=2, travel=travel,
                                           x_start=(-travel / 2, offset[0]))
        asm3 = drifts.assemble_selfsimilar(t_seq, n=3, travel=travel,
                                           x_start=(-travel / 2, offset[0], offset[1]))
        stream_seed = int(rng.integers(1 << 30))
        b64 = asm2.sample_drift(_grid(2, 64, 9))
        dumps = {
            "assembly64": b64,
            "assembly128": asm2.sample_drift(_grid(2, 128, 9)),
            "stream128": cli.trig_stream_field(_grid(2, 128, 5), stream_seed, 1.0),
            "assembly3d32": asm3.sample_drift(_grid(3, 32, 5)),
        }
        self.dumps = {}
        for name, f in dumps.items():
            path = work / f"{name}.dlf1"
            fields.write_field(path, f)
            self.dumps[name] = (path, f.grid.n)
        g64 = _grid(2, 64, 9)
        X, Y = g64.meshgrid()
        rotation = np.broadcast_to(np.stack([-Y, X], axis=-1), (9, 64, 64, 2))
        self.fbc_drifts = {
            "assembly64": b64,
            "stream64a": cli.trig_stream_field(g64, stream_seed + 1, 0.5),
            "stream64b": cli.trig_stream_field(g64, stream_seed + 2, 1.0),
            "rotation64": fields.SpaceTimeField(g64, 0.5 * rotation, 2),
        }
        self.scalars = [_smooth_positive_scalar(g64, rng) for _ in range(5)]
        self.source = rng.uniform(-0.1, 0.1, 2)
        self.kernel = _heat_kernel_trajectory(_grid(2, 128, 8, 0.01, T1), self.source)
        angle = rng.uniform(0, 2 * np.pi)
        self.x0s = [1.1 * np.array([np.cos(a), np.sin(a)]) for a in (angle, angle + 2.0)]

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def run(self, jobs):
        out = {}
        for args in CLASSIFY_ARGS:
            rc, text = self._cli(["classify"] + args)
            out["classify " + " ".join(args)] = {"rc": rc, "text": text.strip()}
        for name, (path, n) in self.dumps.items():
            center = ",".join(["0"] * n)
            for order, args in NORM_ARGS.items():
                rc, text = self._cli(["norm", str(path), "--center", center] + args)
                out[f"norm {name} {order}"] = {"rc": rc, "value": float(text) if rc == 0 else None}
            if n == 3:
                continue  # see README: 3D decompose fails its own 1e-6 check
            rc, text = self._cli(["decompose", str(path)])
            vals = dict(line.split(" = ") for line in text.strip().splitlines())
            out[f"decompose {name}"] = {"rc": rc, **{k: float(v) for k, v in vals.items()}}

        region = norms.Annulus((0, 0), 0.45, 0.9, T0, T1)
        for name, b in self.fbc_drifts.items():
            g = b.grid
            params = norms.fbc_params_radial(SPEC_R, norms.mixed_norm(b, SPEC_R, region), R0=0.9)
            box = norms.Box(g.lo, g.hi, T0, T1)
            tpars = analysis.fundsol_params(SPEC_T, norms.mixed_norm(b, SPEC_T, box))
            for i, u in enumerate(self.scalars):
                rep = norms.fbc_test(b, u, params, (0, 0), 0.45, 0.9, T0, T1,
                                     slice_q=SPEC_R.q, slice_p=SPEC_R.p, kappa=SPEC_R.kappa)
                out[f"fbc {name} u{i}"] = {"satisfied": rep.satisfied,
                                           "lhs": rep.lhs, "rhs": rep.rhs}
                trep = analysis.fbc_tilde_test(b, u, tpars, (0, 0), 0.9, T0, T1)
                out[f"fbc_tilde {name} u{i}"] = {"satisfied": trep.satisfied, "lhs": trep.lhs,
                                                 "rhs": min(trep.rhs.values())}

        free = analysis.drift_free_params()
        tail = analysis.tail_check(self.kernel, free, self.source, 0.0)
        out["tail_check"] = {"satisfied": bool((tail.margins >= 1.0 - 1e-9).all()),
                             "C": tail.C, "c": tail.c}
        fbc0 = norms.fbc_params_radial(SPEC_R, 0.0, R0=0.8)
        mt = analysis.moser_trace(self.kernel, self.source, 0.4, 0.8, 0.01, 0.05, T1, fbc0)
        out["moser_trace"] = {
            "satisfied": bool(np.all(np.diff(mt.Ms) >= -1e-9 * mt.Ms[0])
                              and mt.sup_inner <= mt.predicted_sup),
            "M_last": float(mt.Ms[-1]), "sup_inner": mt.sup_inner}
        for i, x0 in enumerate(self.x0s):
            for gamma in (0.5, 1.0, 2.0):
                probe = analysis.davies_probe(None, x0, gamma)
                rep = analysis.davies_energy(self.kernel, probe, free)
                out[f"davies x{i} gamma{gamma}"] = {"satisfied": rep.bound_ok,
                                                    "C_fit": rep.C_fit}
        return out

    def check(self, out, ref):
        table = ref["diagnose"]["outputs"]
        results = []
        for op in sorted(set(table) | set(out)):
            if op not in out or op not in table:
                results.append((op, False, "not run" if op not in out else "no reference"))
                continue
            bad = [k for k, vals in table[op].items()
                   if not _same(out[op].get(k), vals[self.variant])]
            results.append((op, not bad, f"mismatch in {bad}" if bad else ""))
        return results


def make(name, seed, work, ref):
    """The workload's inputs for a benchmark seed."""
    if name == "blowup":
        return Blowup(work, random.Random(seed).uniform(0.8, 1.0))
    if name == "nash":
        pool = ref["nash"]["pool"]
        return Nash(work, pool[seed % len(pool)])
    if name == "diagnose":
        return Diagnose(work, seed % ref["diagnose"]["variants"])
    raise ValueError(f"unknown workload {name!r}")
