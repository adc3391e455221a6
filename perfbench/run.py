"""Benchmark entry point.

    python3 perfbench/run.py --workload analyze|reduce|queries --seed N \
        --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this directory.  Each
process runs one whole pass over the workload's operations in a fresh
interpreter (``child.py``), so that no cache outlives a pass and every
process pays its own set-up.

``--trace 0`` starts processes one after another while the next one is
expected to end within ``--seconds`` (at least ``MIN_PROCESSES``), checks the
first one's answers, and
reports the ``end_to_end`` metrics of BENCHMARK.json as medians over the
processes.  ``--trace 1`` runs one untraced and two traced processes, checks
that the two traced runs did the same work, and reports the ``per_layer``
metrics.  Every process runs with ``PYTHONHASHSEED`` pinned.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an answer is wrong or the processes disagree, 2 when the checkout holds
no ``src/qfab``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_PROCESSES = 3
# Whole run, set-up included, must stay well inside three minutes.
DEADLINE_S = 170
HASH_SEED = "0"
# Counts that two traced runs of the same code must reproduce exactly.
COUNT_SUFFIXES = (".calls", ".cells", ".distinct", ".unknowns", ".cover_dim", ".terms")


class BenchError(Exception):
    pass


def run_process(workload, seed, trace, check, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = HASH_SEED
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--check", str(int(check))]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process ran past the run deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} process exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def verdict(procs):
    """(correct, attempted, failed, messages) over processes of one run."""
    msgs = []
    for p in procs:
        msgs += p["errors"]
    if len({p["digest"] for p in procs}) != 1:
        msgs.append("processes of one run gave different answers")
    attempted = sum(len(p["latencies"]) for p in procs)
    failed = sum(len(p["failed"]) for p in procs)
    return not msgs, attempted, failed, msgs


def end_to_end(procs):
    # Every process runs the same operations in the same order, so each
    # operation's latency is its median over the processes; the median
    # latency is then taken over operations, one value each.
    per_op = [statistics.median(ts) for ts in zip(*(p["latencies"] for p in procs))]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "batch_s": statistics.median(p["pass_s"] for p in procs),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in procs) / 1024,
        "query_p50_s": statistics.median(per_op),
    }


def per_layer(plain, traced):
    counts = [{k: v for k, v in t["layers"].items() if k.endswith(COUNT_SUFFIXES)}
              for t in traced]
    msgs = []
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        msgs.append(f"two traced runs counted different work: {diff[:10]}")
    layers = dict(counts[0])
    for key in set(traced[0]["layers"]) | set(traced[1]["layers"]):
        if key.endswith(".self_s"):
            layers[key] = statistics.median(t["layers"].get(key, 0.0) for t in traced)
    traced_batch = statistics.median(t["pass_s"] for t in traced)
    layers["trace.batch_s"] = traced_batch
    layers["trace.overhead_s"] = traced_batch - plain["pass_s"]
    return layers, msgs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and waits for the
    # running process before this one ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    start = time.monotonic()
    deadline = start + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qfab" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"no qfab sources or BENCHMARK.json under {ROOT}\n")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2

    try:
        if args.trace:
            plain = run_process(args.workload, args.seed, 0, True, deadline)
            traced = [run_process(args.workload, args.seed, 1, False, deadline)
                      for _ in range(2)]
            procs = [plain] + traced
            values, extra = per_layer(plain, traced)
            wanted = spec["per_layer"]
        else:
            procs, took = [], []
            # start another process only if it should end within --seconds
            while (len(procs) < MIN_PROCESSES or time.monotonic() - start
                   + statistics.median(took) <= args.seconds):
                t0 = time.monotonic()
                procs.append(run_process(args.workload, args.seed, 0, not procs, deadline))
                took.append(time.monotonic() - t0)
            values, extra = end_to_end(procs), []
            wanted = spec["end_to_end"]
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    correct, attempted, failed, msgs = verdict(procs)
    msgs += extra
    correct = correct and not extra
    for m in msgs:
        print(f"CHECK FAILED: {m}")
    lat_n = sum(len(p["latencies"]) for p in procs if "layers" not in p)
    print(f"workload={args.workload} seed={args.seed} processes={len(procs)} "
          f"ops/pass={len(procs[0]['labels'])} latency samples={lat_n} "
          f"rational backend={procs[0]['rational_backend']} "
          f"PYTHONHASHSEED={HASH_SEED}")
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "rational_backend": procs[0]["rational_backend"],
             "labels": procs[0]["labels"], "layers": values,
             "per_op_self_s": procs[1]["per_op"]}, indent=1, sort_keys=True))
        for key in sorted(values):
            print(f"  {key} = {values[key]}")
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
