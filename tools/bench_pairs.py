"""Alternating parent/change benchmark pairs from two checkouts.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload train-desk --workload train-guided --seeds 3101-3110 \
        --seconds 30 --claim train-guided:update_ms.p50 --out BENCH_new.json

For each workload and each seed it runs `perfbench/run.py --workload W
--seed S --seconds T --trace 0` once in each checkout, one after the other
(the parent first on even pairs, the change first on odd ones), and reads
the final JSON line of each run.  It prints every run as it finishes, then
per workload and end-to-end metric of BENCHMARK.json: the parent's and the
change's medians, the parent's interquartile range, the relative change,
and how many pairs the change won.  A claim names one workload and one
metric, `--claim WORKLOAD:METRIC`; it is flagged as shown when the change
won at least 9 of every 10 pairs of that workload and the medians differ,
in the metric's better direction, by more than the parent's IQR; any
other metric of any workload is flagged when its median got worse by more
than its bound.
It also prints each side's failed operations per seed, and in how many
pairs the two sides read the same eval_reward (a change meant to move no
number keeps every pair identical; the exit status does not depend on
it).  Failures are compared seed by seed, not as shares of the attempted
operations: a seed's set-up failures are a fixed count, while the number
of operations a run attempts depends on how fast it ran.  With --out it
writes, per workload, the change's last result line in the
BENCH_<pr>.json shape, plus the medians, win counts, failures per seed,
identical-eval_reward pair count and every run's end-to-end values by seed
and side (`runs`, so a record can be re-analysed without re-running), and
`src_lines`, the line count of src/unigrpo/*.py in each checkout, and
`config_keys`, the number of `TrainConfig` fields in each checkout's
src/unigrpo/config.py, next to them.

It refuses to run (exit 2) when perfbench/ (its __pycache__ aside) or
BENCHMARK.json differ between the two checkouts, naming the first file that
differs: both sides must be measured by the same benchmark code.

Run nothing else on the machine meanwhile: the pairs share its CPUs.
Exit status: 0 when every claim is shown, no bound is crossed, and on no
seed did the change's run fail more operations than the parent's, or fail
a check where the parent's passed every check; else 1.  So a seed that
fails the same way on both sides does not fail the comparison.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    """'3101-3110' or '3101,3105' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def src_lines(checkout: Path) -> int:
    """Line count of the package source, src/unigrpo/*.py."""
    return sum(len(p.read_text().splitlines())
               for p in sorted((checkout / "src/unigrpo").glob("*.py")))


def config_keys(checkout: Path) -> int:
    """Number of `TrainConfig` fields in src/unigrpo/config.py, read from its
    syntax tree rather than by importing the checkout's package."""
    tree = ast.parse((checkout / "src/unigrpo/config.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TrainConfig")
    return sum(isinstance(n, ast.AnnAssign) for n in cls.body)


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """BENCHMARK.json and every file under perfbench/ except __pycache__,
    by path relative to the checkout."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for path in (checkout / "perfbench").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            files[path.relative_to(checkout).as_posix()] = path.read_bytes()
    return files


def first_difference(a: dict[str, bytes], b: dict[str, bytes]) -> str | None:
    """The first path, in sorted order, present on one side only or with
    different bytes; None when the two file sets are equal."""
    return next((name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)),
                None)


def claim(text: str) -> tuple[str, str]:
    """'WORKLOAD:METRIC' as a (workload, metric) pair."""
    workload, sep, metric = text.partition(":")
    if not (sep and workload and metric):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got {text!r}")
    return workload, metric


def failed_per_seed(seeds: list[int], runs: list[tuple[dict, dict]]) -> dict:
    """Each side's failed operations by seed (seeds without failures left
    out), and the seeds on which the change failed more operations than the
    parent, or was incorrect where the parent was correct."""
    failed = {side: {str(seed): pair[i]["failed"] for seed, pair in zip(seeds, runs)
                     if pair[i]["failed"]}
              for i, side in enumerate(("parent", "change"))}
    failed["more_failed"] = [seed for seed, (p, c) in zip(seeds, runs)
                             if c["failed"] > p["failed"] or (p["correct"] and not c["correct"])]
    return failed


def run_values(spec: dict, seeds: list[int], runs: list[tuple[dict, dict]]) -> list[dict]:
    """Each pair's end-to-end metric values, by seed and side."""
    names = [m["name"] for m in spec["end_to_end"]]
    return [{"seed": seed, **{side: {n: run["metrics"][n]["value"] for n in names}
                              for side, run in zip(("parent", "change"), pair)}}
            for seed, pair in zip(seeds, runs)]


def summarize(spec: dict, runs: list[tuple[dict, dict]], claims: set[str]) -> tuple[dict, bool]:
    """Per end-to-end metric: medians, parent IQR, wins; and whether every
    claim is shown and no bound crossed."""
    summary, ok = {}, True
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_med, c_med, spread = statistics.median(parent), statistics.median(change), iqr(parent)
        gain = (p_med - c_med) if lower else (c_med - p_med)
        rel = (c_med - p_med) / abs(p_med) if p_med else 0.0
        worse = rel if lower else -rel
        entry = {"parent_median": p_med, "change_median": c_med, "parent_iqr": spread,
                 "relative_change": rel, "wins": wins, "pairs": len(runs)}
        if name in claims:
            entry["claim_shown"] = wins >= 0.9 * len(runs) and gain > spread
            ok &= entry["claim_shown"]
        else:
            entry["within_bound"] = worse <= metric["bound"]
            ok &= entry["within_bound"]
        summary[name] = entry
    return summary, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 3101-3110")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--claim", action="append", default=[], type=claim,
                    metavar="WORKLOAD:METRIC",
                    help="end-to-end metric the change claims to improve on that workload")
    ap.add_argument("--out", type=Path, help="write the BENCH_<pr>.json record here")
    args = ap.parse_args(argv)
    differs = first_difference(benchmark_files(args.parent), benchmark_files(args.change))
    if differs is not None:
        ap.error(f"benchmark code differs between --parent and --change: {differs}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    known = {m["name"] for m in spec["end_to_end"]}
    for workload, metric in args.claim:
        if workload not in args.workload:
            ap.error(f"claim on a workload not run: {workload}:{metric}")
        if metric not in known:
            ap.error(f"not an end-to-end metric: {workload}:{metric}")

    record = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "note": f"last change-side run of {len(args.seeds)} alternating parent/change pairs "
                f"per workload, seeds {args.seeds[0]}-{args.seeds[-1]}",
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "config_keys": {"parent": config_keys(args.parent), "change": config_keys(args.change)},
    }
    for key, label in (("src_lines", "src/unigrpo lines"), ("config_keys", "TrainConfig keys")):
        print(f"{label}: parent {record[key]['parent']}  change {record[key]['change']}")
    all_ok = True
    for workload in args.workload:
        runs = []
        for i, seed in enumerate(args.seeds):
            sides = [("parent", args.parent), ("change", args.change)]
            result = {}
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                result[side] = run_once(checkout, workload, seed, args.seconds)
                values = " ".join(f"{k}={v['value']:.6g}"
                                  for k, v in result[side]["metrics"].items())
                print(f"run {workload} seed={seed} {side} correct={result[side]['correct']} "
                      f"failed={result[side]['failed']} {values}", flush=True)
            runs.append((result["parent"], result["change"]))
        summary, ok = summarize(spec, runs, {m for w, m in args.claim if w == workload})
        failed = failed_per_seed(args.seeds, runs)
        all_ok &= ok and not failed["more_failed"]
        same = sum(p["metrics"]["eval_reward"]["value"] == c["metrics"]["eval_reward"]["value"]
                   for p, c in runs)
        print(f"== {workload}: {len(runs)} pairs")
        print(f"eval_reward      identical in {same}/{len(runs)} pairs")
        print("failed per seed  " + "  ".join(
            f"{side} {failed[side] or 'none'}" for side in ("parent", "change"))
            + (f"  MORE FAILED on seeds {failed['more_failed']}" if failed["more_failed"] else ""))
        for name, e in summary.items():
            verdict = ("claim shown" if e["claim_shown"] else "claim NOT shown") \
                if "claim_shown" in e else ("ok" if e["within_bound"] else "BOUND CROSSED")
            print(f"{name:16s} parent {e['parent_median']:.6g} (IQR {e['parent_iqr']:.3g})  "
                  f"change {e['change_median']:.6g}  {e['relative_change']:+.1%}  "
                  f"wins {e['wins']}/{e['pairs']}  {verdict}")
        record[workload] = {"seed": args.seeds[-1], "result": runs[-1][1], "pairs": summary,
                            "failed_per_seed": failed, "eval_reward_identical": same,
                            "runs": run_values(spec, args.seeds, runs)}
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
