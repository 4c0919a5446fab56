"""Alternating parent/change pairs of the driftlab benchmark, written to one file.

    python3 tools/bench_pairs.py --base REV --label NAME \
        [--workload blowup nash diagnose] [--seeds 4001-4010 | --pairs N] \
        [--seconds 25]

Run it from the repository root.  REV is checked out with ``git worktree`` into
a temporary directory (under $TMPDIR), and ``perfbench/run.py --trace 0`` runs
once per seed on each side: the base checkout and the working tree as it is.
The side that runs first alternates from one pair to the next.  The result
goes to ``BENCH_<label>.json`` (or ``--out``): both revisions, nproc, the
versions, the seeds, every pair's end-to-end metrics, and per metric each
side's median and quartiles, the wins of the change, and whether the change
stays within the bound that ``BENCHMARK.json`` sets.  A metric counts as a
claimable gain when the change wins at least nine pairs in ten (ties count for
neither side) and the medians differ by more than the base's interquartile
range, over at least ten pairs.  Uses the standard library only.
"""
import argparse
import datetime
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


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
    """One perfbench run in the checkout at root: (result line, env record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, spec):
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        sides = {}
        for side in ("base", "change"):
            vals = [p[side][name] for p in pairs]
            q1, q3 = _quartiles(vals)
            sides[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                           "iqr": q3 - q1}
        sign = 1 if lower else -1
        diffs = [sign * (p["base"][name] - p["change"][name]) for p in pairs]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        base, change = sides["base"]["median"], sides["change"]["median"]
        gain = sign * (base - change)
        worse_rel = -gain / abs(base) if base else 0.0
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], **sides,
            "change_rel": (change - base) / abs(base) if base else 0.0,
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "within_bound": worse_rel <= m["bound"],
            "claimable_gain": (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
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
    args = ap.parse_args()

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
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_root = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base_root), base_sha)
        try:
            for workload in args.workload:
                pairs = []
                for i, seed in enumerate(seeds):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        res, env = run_bench(base_root if side == "base" else ROOT,
                                             workload, seed, args.seconds)
                        pair[side] = {k: v["value"] for k, v in res["metrics"].items()}
                        pair[side + "_correct"] = res["correct"]
                        record[side].setdefault("src_sha256", env["src_sha256"])
                        for key in ("nproc", "affinity", "python", "numpy", "scipy",
                                    "machine"):
                            record.setdefault(key, env[key])
                    pairs.append(pair)
                    print(json.dumps({"workload": workload, **pair}), flush=True)
                record["workloads"][workload] = {"pairs": pairs,
                                                 "metrics": summarize(pairs, spec)}
        finally:
            _git("worktree", "remove", "--force", str(base_root))
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:9s} {name:12s} {m['base']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} ({100 * m['change_rel']:+.1f}%, "
                  f"wins {m['wins']}/{len(w['pairs'])}, base IQR {m['base']['iqr']:.3g}, "
                  f"within bound {m['within_bound']}, claimable gain {m['claimable_gain']})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
