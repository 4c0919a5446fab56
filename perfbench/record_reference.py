"""Record the correctness gate's reference values into perfbench/reference.json.

    python3 perfbench/record_reference.py

Run it from the repository root.  It takes a few minutes on two cores.  It
only needs re-running when a change to driftlab is meant to alter outputs
(a new timestep rule, say); the change then has to say which values moved.
"""
import json
import os
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from driftlab import cli  # noqa: E402

STREAM_SEEDS = 400   # random-stream drift seeds recorded for the nash pool
VARIANTS = 64        # diagnose input variants
POOL_BAND = 0.015    # equal-work band around the median ensemble step count


def _require(ok, what):
    if not ok:
        raise SystemExit(f"refusing to record: {what}")


def record_blowup(work):
    wl = workloads.Blowup(work, workloads.BLOWUP_CFG["assembly.amp_ratio"])
    _require(wl.run(1)["rc"] == 0, "blowup run failed")
    res = work / workloads.BLOWUP_CFG["output.dir"]
    _require(not workloads.summary_failures(res), "blowup summary checks failed")
    rows = workloads.read_csv(res / "blocks.csv")
    ref = {"amp_ratio": wl.amp_ratio,
           "regressor": [float(r["regressor"]) for r in rows],
           "probe_sup": [float(r["probe_sup"]) for r in rows]}
    # the scenario's own checks must pass over the whole seeded amp_ratio range
    for r in (0.8, 1.0):
        scale = (r / ref["amp_ratio"]) ** np.arange(len(rows))
        sups = np.array(ref["probe_sup"]) * scale
        regs = np.array(ref["regressor"]) * scale
        _require(np.polyfit(np.log(regs), np.log(sups), 1)[0] > 0,
                 f"blowup slope not positive at amp_ratio {r}")
        _require(np.all(np.diff(np.maximum.accumulate(sups)[-5:]) > 0),
                 f"blowup running sup not increasing at amp_ratio {r}")
    return ref


def _member(tracer, scenario_seed, idx):
    cfg = {k: str(v) for k, v in workloads.NASH_CFG.items()}
    cfg["scenario.seed"] = str(scenario_seed)
    tracer.spans.clear()
    _, q = cli._nash_member((cfg, "", idx))
    steps = sum(s[4]["steps"] for s in tracer.spans if s[0] == "solver.solve")
    return {"q": q, "steps": steps}


def _makespan(steps, workers=2):
    load = [0] * workers
    for st in steps:
        load[load.index(min(load))] += st
    return max(load)


def record_nash():
    tracer = tracing.Tracer()
    tracer.install()
    fixed = {str(i): _member(tracer, 0, i) for i in workloads.NASH_FIXED}
    stream = {str(k): _member(tracer, k - 1, 1) for k in range(1, STREAM_SEEDS + 1)}
    tracer.uninstall()
    members = [i for i in range(workloads.NASH_COUNT) if i not in workloads.NASH_FIXED]
    totals = {s: sum(stream[str(s + i)]["steps"] for i in members)
              for s in range(0, STREAM_SEEDS - max(members) + 1)}
    target = statistics.median(totals.values())
    pool = [s for s, t in totals.items() if abs(t - target) <= POOL_BAND * target]
    # the --jobs 2 critical path too: members go in order to the first free worker
    spans = {s: _makespan([fixed[str(i)]["steps"] if str(i) in fixed
                           else stream[str(s + i)]["steps"]
                           for i in range(workloads.NASH_COUNT)]) for s in pool}
    mid = statistics.median(spans.values())
    pool = [s for s in pool if abs(spans[s] - mid) <= POOL_BAND * mid]
    used = sorted({s + i for s in pool for i in members})
    return {"fixed": fixed, "stream": {str(k): stream[str(k)] for k in used},
            "pool": pool, "pool_stream_steps": target}


def record_diagnose(work):
    """{op: {output: [value for each variant]}}."""
    table = {}
    for v in range(VARIANTS):
        out = workloads.Diagnose(work, v).run(1)
        bad = [op for op, o in out.items()
               if o.get("rc", 0) != 0 or o.get("satisfied") is False]
        _require(not bad, f"diagnose variant {v} failed {bad}")
        for op, values in out.items():
            for key, val in values.items():
                table.setdefault(op, {}).setdefault(key, []).append(val)
    return {"variants": VARIANTS, "outputs": table}


def _dumps(ref):
    """Indented JSON with each list of scalars on one line."""
    text = json.dumps(ref, indent=1)
    return re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group(0).split()), text) + "\n"


def main():
    work = ROOT / ".perfbench" / "record"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["DRIFTLAB_OUT"] = str(work)
    ref = {"src_sha256": envinfo.src_digest(ROOT)}
    ref["diagnose"] = record_diagnose(work)
    ref["nash"] = record_nash()
    ref["blowup"] = record_blowup(work)
    workloads.REFERENCE.write_text(_dumps(ref))
    print(f"pool of {len(ref['nash']['pool'])} nash scenario seeds, "
          f"{VARIANTS} diagnose variants")


if __name__ == "__main__":
    main()
