"""Alternating parent/change pairs of the driftlab benchmark, written to one file.

    python3 tools/bench_pairs.py --base REV --label NAME \
        [--workload blowup nash diagnose] [--seeds 4001-4010 | --pairs N] \
        [--seconds 25]
    python3 tools/bench_pairs.py --base REV --label NAME --pairs N \
        --command 'PYTHONPATH=src python3 -m driftlab.cli run configs/heat-2d.cfg' \
        [--command ...]

Run it from the repository root.  The tree of REV is exported with ``git archive``
into a temporary directory (under $TMPDIR), and ``perfbench/run.py --trace 0`` runs
once per seed on each side: the base checkout and the working tree as it is.
With ``--command``, each shell command runs instead, once per pair on each
side, with the side's checkout as its working directory; its metrics are the
wall time, the peak RSS of the largest process in its tree, and ``pass_ratio``
(1 when it exits 0).  The side that runs first alternates from one pair to the
next.  The result goes to ``BENCH_<label>.json`` (or ``--out``): both
revisions, nproc, the versions, the seeds, every pair's end-to-end metrics
(with each side's failed perfbench operations as ``<side>_failed_ops`` and,
when there are any, the last ``STDERR_TAIL`` characters of that run's stderr as
``<side>_stderr_tail``, and the medians of its timed executions' unscaled
``wall_raw_s`` and speed probe ``probe_s`` as ``<side>_raw``), and per metric
each side's median and quartiles, the wins of the change, and whether the
change stays within the bound that ``BENCHMARK.json`` sets; the unscaled
metrics are summarised and printed the same way, with no bound.  A
metric counts as a claimable gain when the change wins at least nine pairs in
ten (ties count for neither side) and the medians differ by more than the
base's interquartile range, over at least ten pairs.  Uses the standard
library only.
"""
import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from envinfo import src_digest  # noqa: E402  (the digest perfbench records)

ROOT = Path.cwd()
STDERR_TAIL = 2000  # characters of a failing run's stderr that are kept
# unscaled run metrics kept beside wall_s, which perfbench scales by its speed
# probe: a probe that runs slower beside one side moves wall_s and not these
RAW = [{"name": "wall_raw_s", "unit": "s", "better": "lower"},
       {"name": "probe_s", "unit": "s", "better": "lower"}]


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(root, workload, seed, seconds):
    """One perfbench run in the checkout at root: (result line, env record,
    failed operations, the tail of its stderr, and the medians of its timed
    executions' unscaled wall time ``wall_raw_s`` and speed probe ``probe_s``)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-STDERR_TAIL:]}")
    failed = [json.loads(line)["failed_op"] for line in lines
              if line.startswith('{"failed_op"')]
    runs = [r for r in map(json.loads, lines[:-2])
            if r.get("mode") == "run" and "wall_raw_s" in r]
    raw = {m["name"]: statistics.median(r[m["name"]] for r in runs) for m in RAW} if runs else {}
    return json.loads(lines[-1]), json.loads(lines[-2])["env"], failed, \
        proc.stderr[-STDERR_TAIL:], raw


def run_command(root, command):
    """One run of a shell command in the checkout at root: its metrics and exit code.

    The peak RSS is at least the runner's own, which the forked child starts with.
    """
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, shell=True, cwd=root, stdout=subprocess.DEVNULL,
                                stderr=err)
        # wait4 gives the rusage of this child and its reaped descendants
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            print(f"{command!r} in {root} exited {code}:\n"
                  f"{err.read()[-STDERR_TAIL:].decode(errors='replace')}", file=sys.stderr)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "pass_ratio": float(code == 0)}, code


def _local_env():
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "machine": platform.machine()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, metrics, suffix=""):
    """Per metric, over the pairs whose sides both have it in ``<side><suffix>``:
    each side's median and quartiles, the wins of the change and, for a metric
    with a bound, whether the change stays within it."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        rows = [(p["base" + suffix][name], p["change" + suffix][name]) for p in pairs
                if name in p["base" + suffix] and name in p["change" + suffix]]
        if not rows:
            continue
        sides = {}
        for side, vals in zip(("base", "change"), zip(*rows)):
            q1, q3 = _quartiles(vals)
            sides[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                           "iqr": q3 - q1}
        sign = 1 if lower else -1
        diffs = [sign * (b - c) for b, c in rows]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        base, change = sides["base"]["median"], sides["change"]["median"]
        gain = sign * (base - change)
        worse_rel = -gain / abs(base) if base else 0.0
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m.get("bound"), **sides,
            "change_rel": (change - base) / abs(base) if base else 0.0,
            "wins": wins, "losses": losses, "ties": len(rows) - wins - losses,
            "within_bound": worse_rel <= m["bound"] if "bound" in m else None,
            "claimable_gain": (len(rows) >= 10 and wins >= 0.9 * len(rows)
                               and gain > sides["base"]["iqr"]),
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--label", default="pairs", help="output name: BENCH_<label>.json")
    ap.add_argument("--out", default=None, help="output path (default BENCH_<label>.json)")
    ap.add_argument("--workload", nargs="+", default=["blowup", "nash", "diagnose"])
    ap.add_argument("--seeds", default=None, help="seeds, e.g. 4001-4010 or 3,5,8")
    ap.add_argument("--pairs", type=int, default=None,
                    help="number of pairs (default: one per seed, or 10 from seed 1)")
    ap.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds")
    ap.add_argument("--command", action="append", default=None,
                    help="time this shell command instead of perfbench (repeatable)")
    args = ap.parse_args()

    if args.command and args.seeds:
        ap.error("--command runs take --pairs, not --seeds")
    seeds = _seeds(args.seeds) if args.seeds else list(range(1, (args.pairs or 10) + 1))
    if args.pairs is not None:
        if not 0 < args.pairs <= len(seeds):
            ap.error(f"--pairs must lie in 1..{len(seeds)}")
        seeds = seeds[:args.pairs]
    if not (ROOT / "perfbench" / "run.py").is_file():
        ap.error("run from the repository root")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_path = Path(args.out or f"BENCH_{args.label}.json")

    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    record = {
        "label": args.label,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "base": {"rev": args.base, "git_sha": base_sha},
        "change": {"git_sha": _git("rev-parse", "HEAD"),
                   "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))},
        "seconds": args.seconds, "seeds": seeds, "workloads": {},
    }
    if args.command:
        record.update(_local_env(), seconds=None, seeds=None)
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        tree = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                              capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tree, check=True)
        roots = {"base": Path(tmp), "change": ROOT}
        for side, root in roots.items():
            record[side]["src_sha256"] = src_digest(root)
        for workload in args.command or args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"pair": i} if args.command else {"seed": seed}
                pair["first"] = order[0]
                for side in order:
                    if args.command:
                        metrics, code = run_command(roots[side], workload)
                        correct = code == 0
                    else:
                        res, env, failed, stderr, raw = run_bench(roots[side], workload,
                                                                  seed, args.seconds)
                        pair[side + "_raw"] = raw
                        metrics = {k: v["value"] for k, v in res["metrics"].items()}
                        correct = res["correct"]
                        pair[side + "_failed_ops"] = failed
                        if failed:
                            pair[side + "_stderr_tail"] = stderr
                        for key in ("nproc", "affinity", "python", "numpy", "scipy",
                                    "machine"):
                            record.setdefault(key, env[key])
                    pair[side], pair[side + "_correct"] = metrics, correct
                pairs.append(pair)
                print(json.dumps({"workload": workload, **pair}), flush=True)
            record["workloads"][workload] = {
                "pairs": pairs, "metrics": summarize(pairs, spec["end_to_end"]),
                "raw": {} if args.command else summarize(pairs, RAW, "_raw")}
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, w in record["workloads"].items():
        for name, m in {**w["metrics"], **w["raw"]}.items():
            n = m["wins"] + m["losses"] + m["ties"]
            print(f"{workload:9s} {name:12s} {m['base']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} ({100 * m['change_rel']:+.1f}%, "
                  f"wins {m['wins']}/{n}, base IQR {m['base']['iqr']:.3g}, "
                  f"within bound {m['within_bound']}, claimable gain {m['claimable_gain']})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
