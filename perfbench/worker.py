"""One workload execution in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --work DIR --mode M --jobs J

Modes: ``setup`` stops at the first workload operation; ``run`` executes the
workload; ``traced`` executes it with spans recorded.  Speed probes run from
a timer signal (see speed.py), except during a traced run, which is probed
after it ends.  A serial execution is pinned to
the CPU it started on, so that the probes sample the core the workload runs
on.  The process writes ``result.json`` into DIR: the monotonic times of the
first operation and of the end, the probe summaries of set-up and run, the
operations with their verdicts, its own peak RSS, and for ``traced`` the
per-layer metrics (the spans go to ``spans.json``).
"""
import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--jobs", type=int, required=True)
    args = ap.parse_args()
    if args.jobs == 1:
        os.sched_setaffinity(0, [speed.current_cpu()])
    sampler = speed.Sampler()
    sampler.start()
    work = Path(args.work)
    os.environ["DRIFTLAB_OUT"] = str(work)
    sys.path.insert(0, str(ROOT / "src"))

    import driftlab  # noqa: F401  (import cost belongs to set-up)
    import tracing
    import workloads

    ref = workloads.load_reference()
    wl = workloads.make(args.workload, args.seed, work, ref)
    sampler.sample()
    tracer = tracing.Tracer()
    if args.mode == "traced":
        tracer.install()
        sampler.stop()  # a probe would land inside the spans; probe after the run

    sampler.phase = "run"
    t_first = time.perf_counter()
    result = {"t_first": t_first}
    if args.mode != "setup":
        out = wl.run(args.jobs)
        t_end = time.perf_counter()
        sampler.phase = "post"
        for _ in range(1 if args.mode == "run" else 10):
            sampler.sample()
        tracer.uninstall()
        checks = wl.check(out, ref)
        result.update(
            t_end=t_end,
            run_probes=sampler.summary("run", "post"),
            ops=[{"op": op, "ok": ok, "why": why} for op, ok, why in checks],
            largest_bytes={k: 8 * math.prod(v) for k, v in wl.largest.items()})
        if args.mode == "traced":
            spans = tracer.dump()
            result["layers"] = tracing.layer_metrics(spans, t_end - t_first)
            (work / "spans.json").write_text(json.dumps(spans))
    sampler.stop()
    result["setup_probes"] = sampler.summary("setup")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
