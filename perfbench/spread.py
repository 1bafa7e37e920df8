#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads requests oracle_ladder --seeds 1-10

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median, next to the metric's bound in BENCHMARK.json, plus the share of
failed operations.  The runs and the summary are written to
perfbench-out/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(bench: dict, runs: list) -> dict:
    out = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
           "correct": all(r["correct"] for r in runs),
           "wall_s_max": max(r["wall_s"] for r in runs), "metrics": {}}
    for spec in bench["end_to_end"]:
        vals = [r["metrics"][spec["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out["metrics"][spec["name"]] = {
            "median": med, "spread": (q3 - q1) / med, "bound": spec["bound"]}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {}
    for wl in workloads:
        runs = [run_once(bench, wl, s) for s in seed_list(args.seeds)]
        summary = summarize(bench, runs)
        report[wl] = {"runs": runs, "summary": summary}
        print(f"{wl}: correct={summary['correct']} failed share "
              f"{summary['failed_share']} longest run {summary['wall_s_max']:.1f} s")
        for name, m in summary["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:15s} median {m['median']:.4f}  spread "
                  f"{m['spread']:.4f}  bound {m['bound']}{flag}")
    out_dir = os.path.join(ROOT, "perfbench-out", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
