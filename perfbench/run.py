#!/usr/bin/env python3
"""gweyl benchmark: seeded CLI request mixes, checked and timed end to end.

    python3 perfbench/run.py --workload requests --seed 1 --seconds 10 --trace 0

Run from the repository root; gweyl is imported from ./src.  One process and
one closed-loop client: every request goes through ``gweyl.cli.main`` in
process, with a config file written at set-up, and the next request is sent
when the previous one returns.  The run repeats whole rounds of the
workload's requests, as many as take --seconds on the reference machine
(workloads.ROUND_SECONDS), however fast the program is.  Module-level caches are
emptied before each round, as each ``gweyl`` command starts with empty
caches, so every round does the same work.  See README.md for the workloads,
the checks and the metrics.

--trace 0 prints the end-to-end metrics; --trace 1 wraps gweyl's layers (see
tracing.py) and prints per-layer counts and self times per round.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import os

# One BLAS thread: the figures then do not depend on what else the machine
# runs, and a later change cannot gain by taking a second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, "perfbench-out")
SETUP_PROBES = 4          # fresh processes timed for setup_s, besides this one
PROBE_TIMEOUT = 60

sys.path[:0] = [SRC, HERE]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="only import gweyl.cli and write the inputs under DIR, "
                        "then print the time taken")
    return p.parse_args(argv)


def set_up(workload: str, seed: int, run_dir: str):
    """Import the CLI and write the workload's config files; the timed set-up."""
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "gweyl", "cli.py")):
        raise SystemExit(f"no gweyl sources under {SRC}")
    import gweyl.cli
    if not os.path.abspath(gweyl.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gweyl imported from {gweyl.cli.__file__}, not {SRC}")
    from workloads import generate

    requests = generate(workload, seed)
    os.makedirs(os.path.join(run_dir, "cfg"), exist_ok=True)
    argvs = []
    for i, req in enumerate(requests):
        path = os.path.join(run_dir, "cfg", f"{i:03d}.json")
        cfg = dict(req.config, out=os.path.join(run_dir, "out", f"{i:03d}"))
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argvs.append([req.command, "--config", path])
    return requests, argvs, time.perf_counter() - t0


def probe_setup(workload: str, seed: int, run_dir: str) -> float:
    """Set-up time of a fresh process doing what this one did before round 1."""
    probe_dir = os.path.join(run_dir, "probe")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe", probe_dir],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


def reset_caches():
    """Empty gweyl's module-level caches, as a fresh ``gweyl`` process has them."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gweyl" or name.startswith("gweyl.")):
            continue
        for key, val in list(vars(mod).items()):
            if isinstance(val, dict) and "CACHE" in key.upper():
                val.clear()
            elif callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def run_request(main, argv, tracer, index):
    """One request through the CLI; returns (exit code, seconds)."""
    if tracer is not None:
        tracer.request = index
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        code = -1
        traceback.print_exc(file=sys.stderr)
    return code, time.perf_counter() - t0


def output_digest(out: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        digest.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def check_round(requests, results, out_root: str, first):
    """Check one round's outputs; returns (problems, output digests).

    The first round's outputs are checked against closed forms and method
    properties.  Later rounds must reproduce them byte for byte, which gweyl
    promises for a rerun config, so they are compared by digest.  Only the
    requests marked ``fixed`` may fail; any other failure is a problem.
    """
    import checks

    problems, digests = [], []
    for i, (req, (code, _)) in enumerate(zip(requests, results)):
        out = os.path.join(out_root, f"{i:03d}")
        digests.append(output_digest(out) if code == 0 else None)
        if code != 0:
            found = [] if req.fixed else [f"exited with code {code}"]
        elif first is None:
            found = checks.check(req, out)
        elif digests[i] != first[i]:
            found = ["output differs from the first round's"]
        else:
            found = []
        problems += [f"request {i} ({req.label}): {msg}" for msg in found]
    return problems, first or digests


def percentile(values, q: float) -> float:
    """The observed value with more than a share q of the sample at or below it."""
    ranked = sorted(values)
    return ranked[min(int(q * len(ranked)), len(ranked) - 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, _, dt = set_up(args.workload, args.seed, args.setup_probe)
        print(repr(dt))
        return 0
    run_dir = os.path.join(OUT_ROOT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: str) -> int:
    from workloads import rounds_for

    requests, argvs, setup_own = set_up(args.workload, args.seed, run_dir)
    setup_times = [setup_own]
    n_rounds = rounds_for(args.workload, args.seconds)

    from gweyl.cli import main as cli_main

    tracer = None
    if args.trace:
        from tracing import Tracer, calibrate
        tracer = Tracer()
        tracer.install()

    latencies, problems, digests = [], [], None
    failed = 0
    out_root = os.path.join(run_dir, "out")
    try:
        for _ in range(n_rounds):
            reset_caches()
            results = [run_request(cli_main, argv, tracer, i)
                       for i, argv in enumerate(argvs)]
            latencies.append([t for _, t in results])
            if len(latencies) == 1:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                codes = [code for code, _ in results]
            failed += sum(code != 0 for code, _ in results)
            if tracer is not None:
                tracer.active = False
            found, digests = check_round(requests, results, out_root, digests)
            problems += found
            shutil.rmtree(out_root, ignore_errors=True)
            # the set-up probes run between rounds, so that their median
            # samples the machine over the whole run
            if tracer is None and len(setup_times) <= SETUP_PROBES:
                setup_times.append(probe_setup(args.workload, args.seed, run_dir))
            if tracer is not None:
                tracer.active = True
    finally:
        if tracer is not None:
            tracer.uninstall()
    while tracer is None and len(setup_times) <= SETUP_PROBES:
        setup_times.append(probe_setup(args.workload, args.seed, run_dir))

    # A request's latency is its median over the rounds and run_s the median
    # round: this machine runs at speeds up to 1.7x apart for stretches of
    # seconds to minutes, and the median of a fixed number of rounds follows
    # the speed over the whole run, where the best round depends on whether
    # the run happened to catch a fast stretch.
    latency = [statistics.median(lat[i] for lat in latencies)
               for i in range(len(argvs))]
    run_s = statistics.median(sum(lat) for lat in latencies)
    ok = [t for t, code in zip(latency, codes) if code == 0]
    for msg in problems[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "request_p50_s": (percentile(ok, 0.5), "s"),
            "request_p90_s": (percentile(ok, 0.9), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, n_rounds, run_s, calibrate())
        write_spans(tracer, args)
    result = {
        "correct": not problems,
        "attempted": n_rounds * len(argvs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, n_rounds, run_s, span_cost) -> dict:
    """Per-round counts and self times of every traced layer."""
    from tracing import COUNTERS, MAXIMA, span_names

    out = {}
    for name in span_names():
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / n_rounds, "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / n_rounds, "s")
    for name in COUNTERS:
        unit = "bytes" if name.endswith(".bytes") else "count"
        out[name] = (tracer.counts[name] / n_rounds, unit)
    for name in MAXIMA:
        out[name] = (tracer.maxima[name], "count")
    spans = len(tracer.spans) / n_rounds
    out["trace.spans"] = (spans, "count")
    out["trace.overhead_s"] = (spans * span_cost, "s")
    out["trace.run_s"] = (run_s, "s")
    return out


def write_spans(tracer, args):
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["request", "name", "parent", "start", "end"],
                   "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
