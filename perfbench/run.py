"""driftlab benchmark: seeded workloads, correctness gate, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload {blowup,nash,diagnose} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  Each workload execution is a fresh process
(perfbench/worker.py), so set-up, memory and CPU are those a CLI user pays.
Executions repeat until the next one would overrun ``--seconds`` (at least
one), and the metrics are medians over them.  Times are scaled to a fixed CPU
speed by the probes of speed.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
rounds of untraced and traced executions and reports its per-layer metrics.
Every execution is printed as one JSON line and appended to
.perfbench/runs.jsonl; the last line of stdout is the result.  See
perfbench/README.md for the workloads and the metric definitions.
"""
import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
from speed import PROBE_REF_S  # noqa: E402

JOBS = {"blowup": 1, "nash": 2, "diagnose": 1}
MIN_SETUPS = 5          # set-up samples per run, topped up with set-up-only processes
RUN_LIMIT_S = 170.0     # every run must end within 180 s
POLL_S = 0.05           # process-tree memory sampling interval


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# process tree: discovery, peak memory, termination


def _children_map():
    kids = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                data = f.read()
        except OSError:
            continue
        ppid = int(data[data.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _descendants(pid):
    kids = _children_map()
    out, stack = [], list(kids.get(pid, []))
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(kids.get(p, []))
    return out


def _vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory(threading.Thread):
    """Polls the peak RSS (VmHWM) of every process in a tree.

    The tree's peak is reported as the sum of its processes' peaks: an upper
    bound on the simultaneous peak that, unlike a sampled sum of current RSS,
    does not depend on when the samples fall.
    """

    def __init__(self, root):
        super().__init__(daemon=True)
        self.root = root
        self.peaks = {}
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            for pid in [self.root] + _descendants(self.root):
                self.peaks[pid] = max(self.peaks.get(pid, 0), _vm_hwm_kb(pid))
            self._halt.wait(POLL_S)

    def stop(self):
        self._halt.set()
        self.join()


def _kill_tree(proc):
    for pid in _descendants(proc.pid) + [proc.pid]:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    proc.wait()


# ---------------------------------------------------------------------------
# one execution


class Runner:
    """Starts worker processes for one benchmark run and collects their records."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.count = 0

    def execute(self, mode, jobs):
        args = self.args
        self.count += 1
        work = self.workdir / f"{self.count:03d}-{mode}"
        work.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(work), "--mode", mode,
               "--jobs", str(jobs)]
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        mem = TreeMemory(proc.pid)
        mem.start()
        try:
            rc = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} execution overran the run's time limit")
        finally:
            mem.stop()
            if proc.poll() is None:
                _kill_tree(proc)
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        rec = {"mode": mode, "jobs": jobs, "rc": rc}
        result_path = work / "result.json"
        if rc != 0 or not result_path.is_file():
            rec["ops"] = [{"op": "execution", "ok": False, "why": f"worker exit code {rc}"}]
            shutil.rmtree(work)
            return rec
        res = json.loads(result_path.read_text())
        mem.peaks[proc.pid] = max(mem.peaks.get(proc.pid, 0), res["maxrss_kb"])
        sp = res["setup_probes"]
        rec["setup_raw_s"] = res["t_first"] - t_spawn - sp["probe_wall_s"]
        rec["setup_s"] = rec["setup_raw_s"] * PROBE_REF_S / sp["probe_s"]
        rec["setup_probe_s"] = sp["probe_s"]
        if mode != "setup":
            rp = res["run_probes"]
            rec["wall_raw_s"] = res["t_end"] - res["t_first"] - rp["probe_wall_s"]
            rec["wall_s"] = rec["wall_raw_s"] * PROBE_REF_S / rp["probe_s"]
            rec["probe_s"] = rp["probe_s"]
            rec["probes"] = rp["probes"]
            rec["probe_samples"] = rp["samples"]
            rec["cpu_s"] = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
            rec["peak_rss_mb"] = sum(mem.peaks.values()) / 1024.0
            rec["processes"] = len(mem.peaks)
            rec["largest_bytes"] = res["largest_bytes"]
            rec["ops"] = res["ops"]
        if mode == "traced":
            rec["layers"] = res["layers"]
            shutil.copy(work / "spans.json",
                        self.workdir.parent / f"spans-{args.workload}-{args.seed}.json")
        shutil.rmtree(work)
        return rec


def _fits(t_start, done, seconds):
    """Whether one more unit like the `done` ones so far fits in the run."""
    elapsed = time.perf_counter() - t_start
    return elapsed + elapsed / done <= seconds


def measure(runner):
    args = runner.args
    jobs = JOBS[args.workload]
    t_start = time.perf_counter()
    records = []
    if not args.trace:
        while True:
            records.append(runner.execute("run", jobs))
            if not _fits(t_start, len(records), args.seconds):
                break
        setups = [r["setup_s"] for r in records if "setup_s" in r]
        while len(setups) < MIN_SETUPS:
            rec = runner.execute("setup", jobs)
            records.append(rec)
            if "setup_s" not in rec:
                raise BenchError("set-up failed")
            setups.append(rec["setup_s"])
        return records, None

    rounds = []
    started = 0
    while True:
        started += 1
        base = runner.execute("run", jobs)
        serial = base if jobs == 1 else runner.execute("run", 1)
        traced = runner.execute("traced", 1)
        records += [base, traced] if serial is base else [base, serial, traced]
        if all("wall_s" in r for r in (base, serial, traced)):
            layers = dict(traced["layers"])
            member_s = layers.pop("nash_member_s")
            layers["cli.cpu_s"] = base["cpu_s"]
            member_s *= PROBE_REF_S / traced["probe_s"]  # scaled like wall_s
            layers["cli.parallel_efficiency"] = (
                member_s / (jobs * base["wall_s"]) if jobs > 1 else 1.0)
            layers["trace_overhead_s"] = traced["wall_s"] - serial["wall_s"]
            layers["wall_raw_s"] = base["wall_raw_s"]
            layers["speed_probe_s"] = base["probe_s"]
            rounds.append(layers)
        if not _fits(t_start, started, args.seconds):
            break
    return records, rounds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(JOBS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "driftlab" / "__init__.py").is_file():
        print(f"error: no driftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("error: perfbench/reference.json is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    state = ROOT / ".perfbench"
    workdir = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        records, rounds = measure(Runner(args, workdir))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in records for op in r.get("ops", [])]
    failed = sum(not op["ok"] for op in ops)
    if not ops:
        print("error: no operation was attempted", file=sys.stderr)
        return 1
    if args.trace:
        if not rounds:
            print("error: no traced round completed", file=sys.stderr)
            return 1
        values = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    else:
        runs = [r for r in records if r["mode"] == "run" and "wall_s" in r]
        if not runs:
            print("error: no execution completed", file=sys.stderr)
            return 1
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in records if "setup_s" in r),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "pass_ratio": (len(ops) - failed) / len(ops),
        }
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = envinfo.environment(ROOT)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "env": env, "executions": records,
               "rounds": rounds, "failed_ops": [op for op in ops if not op["ok"]]}
    with open(state / "runs.jsonl", "a") as f:
        f.write(json.dumps(summary) + "\n")
    for r in records:
        print(json.dumps({k: v for k, v in r.items()
                          if k not in ("ops", "layers", "probe_samples")}))
    for op in summary["failed_ops"]:
        print(json.dumps({"failed_op": op}))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
