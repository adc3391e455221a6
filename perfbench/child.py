"""One benchmark process: set up a workload, run one pass, report as JSON.

Usage: python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --check 0|1

``run.py`` starts this in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and ``PYTHONHASHSEED`` pinned.  The last line of
standard output is a JSON object.  ``ready`` is the monotonic clock when the
inputs are built; the parent subtracts the time it started the process to
get the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    import workloads
    from qfab import QQ

    ops, joint_check = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()

    outs, latencies, failed = [], [], []
    if tracer:
        tracer.active = True
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            outs.append(op.run())
        except Exception:
            # one failed operation must not hide the others' timings
            traceback.print_exc(file=sys.stderr)
            outs.append(None)
            failed.append(op.label)
        latencies.append(time.perf_counter() - t0)
    pass_s = time.perf_counter() - t_pass
    if tracer:
        tracer.active = False
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    answers = [None if out is None else op.answer(out) for op, out in zip(ops, outs)]
    digest = hashlib.sha256(json.dumps(answers, sort_keys=True, default=repr)
                            .encode()).hexdigest()
    errors = []
    if args.check:
        for op, out in zip(ops, outs):
            if out is not None:
                errors += [f"{op.label}: {e}" for e in op.check(out)]
        errors += joint_check({op.label: out for op, out in zip(ops, outs)})

    backend = type(QQ.zero)
    result = {"ready": ready, "pass_s": pass_s, "latencies": latencies,
              "labels": [op.label for op in ops], "failed": failed,
              "peak_rss_kb": peak_rss_kb, "digest": digest, "errors": errors,
              "rational_backend": f"{backend.__module__}.{backend.__qualname__}"}
    if tracer:
        result["layers"] = tracer.summary()
        result["per_op"] = tracer.per_op()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
