"""One repetition of one workload in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --trace 0|1 --verify 0|1
                         [--setup-only 1]

Prints one JSON record on stdout: the calibration slices timed during
set-up, per-operation start times and latencies, the calibration slices
timed while they ran (see calibration.py), wall and CPU time of the timed
region, peak RSS, a digest of the answers, with --verify 1 the failures
found by the references, and with --trace 1 the per-layer statistics.
With --setup-only 1 it stops before the first operation and prints the
set-up part only.  `bench/run.py` starts this once per repetition,
because noethkit's process-wide memos would turn a second repetition in the
same process into dictionary lookups.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

import calibration


def pin_to_one_cpu() -> None:
    """Keep the operations and the calibration thread on one CPU: the host's
    slow and fast regimes differ between CPUs, so a slice timed on another
    CPU would not describe the speed the operations ran at."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# Set-up, from here to the first operation, is timed with calibration slices
# running as they do beside the operations, so that it can be scaled too.
SETUP = None
if __name__ == "__main__":
    pin_to_one_cpu()
    SETUP = calibration.Sampler().__enter__()

import tracer  # noqa: E402
import workloads  # noqa: E402


def answers_digest(answers, errors) -> str:
    digest = hashlib.sha256()
    for i, answer in enumerate(answers):
        digest.update(repr(errors.get(i, answer)).encode() + b"\0")
    return digest.hexdigest()


def run(workload, seed: int, trace: bool, verify: bool = True,
        setup=None, setup_only: bool = False) -> dict:
    """One repetition; `setup` is the Sampler started when set-up began."""
    inputs = workload.inputs(seed)
    ops = workload.operations(inputs)
    leftover = tracer.installed_wrappers()
    if leftover:
        raise RuntimeError("bench wrappers installed before the timed region: %s"
                           % leftover)
    tr = tracer.Tracer() if trace else None
    if tr is not None:
        tr.install()
    if setup is not None:
        setup.__exit__(None, None, None)
    setup_slices = setup.slices if setup is not None else []
    if setup_only:
        return {"first_op_monotonic": time.monotonic(),
                "setup_slices_s": setup_slices,
                "input_digest": workloads.input_digest(inputs)}

    answers, errors, starts, latencies = [], {}, [], []
    clock = time.perf_counter
    # Traced repetitions are not scaled, and a slice inside a span would
    # count as that layer's self time.
    sampler = calibration.Sampler() if tr is None else None
    first_op = time.monotonic()
    cpu0 = time.process_time()
    with sampler or contextlib.nullcontext():
        start = clock()
        for i, (label, thunk) in enumerate(ops):
            t0 = clock()
            try:
                answer = thunk()
            except Exception as exc:  # a raising operation is a failed operation
                answer = None
                errors[i] = "raised %s: %s" % (type(exc).__name__, exc)
            latencies.append(clock() - t0)
            starts.append(t0)
            answers.append(answer)
        elapsed = clock() - start
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "first_op_monotonic": first_op,
        "setup_slices_s": setup_slices,
        "input_digest": workloads.input_digest(inputs),
        "answers_digest": answers_digest(answers, errors),
        "wall_s": sum(latencies),
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "starts_s": starts,
        "latencies_s": latencies,
        "slices_s": sampler.slices if sampler else [],
        "labels": [label for label, _ in ops],
    }
    if tr is not None:
        tr.uninstall()
        record["trace"] = {
            "stats": tr.stats,
            "edges": [[a, b, n, s] for (a, b), (n, s) in tr.edges.items()],
            "counters": tr.counters,
            "top_s": tr.top_s,
            "wrapper_cost_s": tr.wrapper_cost_s(),
            "memo": tracer.memo_stats(),
        }
        leftover = tracer.installed_wrappers()
        if leftover:
            raise RuntimeError("bench wrappers left after uninstall: %s" % leftover)
    if workload.name == "stages":
        record["output_bytes"] = sum(len(a[1]) for a in answers if a is not None)

    if not verify:
        return record
    failures = list(errors.items()) + workload.verify(inputs, answers)
    record["failures"] = [
        {"index": i, "label": ops[i][0], "reason": reason,
         "input": inputs[i].get("args", inputs[i]),
         "known_defect": None if i in errors
         else workload.known_defect(inputs[i], reason)}
        for i, reason in sorted(failures)]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=1)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(workloads.WORKLOADS[args.workload], args.seed, bool(args.trace),
                 bool(args.verify), SETUP, bool(args.setup_only))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
