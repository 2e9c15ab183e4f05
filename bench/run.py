"""noethkit benchmark: one workload, one seed, one line of metrics.

    python3 bench/run.py --workload stages --seed 1 --seconds 28 --trace 0

Runs repetitions of the workload, each in a fresh interpreter
(`bench/rep.py`), until the next one would overrun `--seconds` (at least
MIN_REPS of them).  Every answer is checked against its reference.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics (medians over repetitions)
with --trace 0, the per-layer metrics of traced repetitions with
--trace 1.  The line before it holds provenance, bases and percentiles,
and every failure by input; the full records go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("stages", "restrict", "cover", "query")
MIN_REPS = 3
# Repetitions that stop before the first operation, run first, so that
# set-up is timed more often than the (long) repetitions allow.
SETUP_ONLY_REPS = 4
REP_TIMEOUT_S = 120
# Hash randomisation changes set and dict layouts, which moved one
# coverability system's time by 40% between otherwise identical runs.
HASH_SEED = "0"

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

# Per-layer metrics: name -> unit.  `*.self_s` of every bucket, with
# bench.self_s (time in no span) and trace.wrapper_s (the wrappers' own
# cost), sums to trace.wall_s in each repetition.
PER_LAYER = {
    "ordinal.calls": "count", "ordinal.self_s": "s",
    "sexpr.calls": "count", "sexpr.self_s": "s",
    "space.leq.calls": "count", "space.leq.self_s": "s",
    "space.leq.memo_entries": "count", "space.leq.memo_hit_ratio": "share",
    "space.enumerate.self_s": "s", "space.universe_points": "count",
    "space.typecheck.self_s": "s", "space.other.self_s": "s",
    "sets.member.calls": "count", "sets.member.self_s": "s",
    "sets.normalize.calls": "count", "sets.normalize.self_s": "s",
    "sets.open_key.memo_hit_ratio": "share",
    "sets.extent.calls": "count", "sets.extent.self_s": "s",
    "sets.extent.memo_entries": "count", "sets.extent.memo_hit_ratio": "share",
    "sets.includes.calls": "count", "sets.includes.self_s": "s",
    "sets.includes.exact_ratio": "share", "sets.find_good_index.self_s": "s",
    "sets.lattice.calls": "count", "sets.lattice.self_s": "s",
    "sets.other.self_s": "s",
    "expanders.apply.calls": "count", "expanders.apply.self_s": "s",
    "expanders.candidates": "count", "expanders.kept": "count",
    "expanders.keep_ratio": "share", "expanders.respects.self_s": "s",
    "expanders.badchain.self_s": "s", "expanders.other.self_s": "s",
    "inductive.table.self_s": "s", "inductive.unfold.self_s": "s",
    "inductive.unfold.candidates": "count",
    "inductive.other.self_s": "s",
    "wsts.saturate.self_s": "s", "wsts.basis_open.self_s": "s",
    "wsts.certify.self_s": "s", "wsts.rounds": "count",
    "wsts.inserted": "count", "wsts.pred_calls": "count",
    "wsts.other.self_s": "s",
    "cli.main.self_s": "s", "cli.output_bytes": "bytes",
    "bench.self_s": "s", "trace.wrapper_s": "s", "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "failed_share": "share", "known_defect_share": "share",
}

SELF_BUCKETS = [name[:-len(".self_s")] for name in PER_LAYER
                if name.endswith(".self_s") and name != "bench.self_s"]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def tail(latencies) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    operations beyond it, or the maximum below 20 operations."""
    lat = sorted(latencies)
    n = len(lat)
    if n >= 20:
        return lat[n - 11], 100.0 * (n - 10) / n
    return lat[-1], 100.0


def layer_metrics(rec) -> dict:
    """Per-layer metrics of one traced repetition.  Self times are net of
    the wrappers' own cost: each call's inner cost is taken from the
    callee's bucket, its outer cost from the caller's (bench.self_s for
    calls from no span), and their sum is trace.wrapper_s."""
    tr = rec["trace"]
    counters, memo = tr["counters"], tr["memo"]
    inner, outer = tr["wrapper_cost_s"]
    children = {}
    for parent, _, n, _ in tr["edges"]:
        children[parent] = children.get(parent, 0) + n
    stats = {}
    for bucket, n, self_s in tr["stats"].values():
        total = stats.setdefault(bucket, [0, 0.0])
        total[0] += n
        total[1] += self_s - n * inner
    for bucket, n in children.items():
        stats[bucket][1] -= n * outer
    total_calls = sum(n for n, _ in stats.values())
    top_calls = total_calls - sum(children.values())

    def calls(bucket):
        return stats.get(bucket, [0, 0.0])[0]

    def count(name):
        return counters.get(name, 0)

    out = {b + ".self_s": stats.get(b, [0, 0.0])[1] for b in SELF_BUCKETS}
    for b in ("ordinal", "sexpr", "space.leq", "sets.member", "sets.normalize",
              "sets.extent", "sets.includes", "sets.lattice", "expanders.apply"):
        out[b + ".calls"] = calls(b)
    out.update({
        "space.leq.memo_entries": memo["space.leq.memo_entries"],
        "space.leq.memo_hit_ratio": ratio(
            memo["space.leq.memo_hits"],
            memo["space.leq.memo_hits"] + memo["space.leq.memo_misses"]),
        "space.universe_points": memo["space.universe_points"],
        "sets.open_key.memo_hit_ratio": ratio(
            memo["sets.open_key.memo_hits"],
            memo["sets.open_key.memo_hits"] + memo["sets.open_key.memo_misses"]),
        "sets.extent.memo_entries": memo["sets.extent.memo_entries"],
        "sets.extent.memo_hit_ratio": ratio(count("sets.extent.memo_hits"),
                                            count("sets.extent.lookups")),
        "sets.includes.exact_ratio": ratio(count("sets.includes.exact"),
                                           calls("sets.includes")),
        "expanders.candidates": count("expanders.candidates"),
        "expanders.kept": count("expanders.kept"),
        "expanders.keep_ratio": ratio(count("expanders.kept"),
                                      count("expanders.candidates")),
        "inductive.unfold.candidates": count("inductive.unfold.candidates"),
        "wsts.rounds": count("wsts.rounds"),
        "wsts.inserted": count("wsts.inserted"),
        "wsts.pred_calls": count("wsts.pred_calls"),
        "cli.output_bytes": rec.get("output_bytes", 0),
        "bench.self_s": rec["wall_s"] - tr["top_s"] - top_calls * outer,
        "trace.wrapper_s": total_calls * (inner + outer),
        "trace.wall_s": rec["wall_s"],
    })
    return out


def run_rep(workload: str, seed: int, traced: bool, verify: bool,
            setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--verify", str(int(verify)), "--setup-only", str(int(setup_only))]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    done = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError("repetition failed (exit %d):\n%s"
                           % (proc.returncode, proc.stderr[-4000:]))
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["traced"] = traced
    rec["setup_raw_s"] = rec["first_op_monotonic"] - spawned
    rec["setup_s"] = calibration.scaled_span(rec["setup_raw_s"], rec["setup_slices_s"])
    rec["rep_s"] = done - spawned
    return rec


def provenance(seed: int) -> dict:
    def read(path):
        try:
            return path.read_text().strip()
        except OSError:
            return None

    head = read(ROOT / ".git" / "HEAD")
    sha = head
    if head and head.startswith("ref: "):
        sha = read(ROOT / ".git" / head[5:])
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "loadavg_at_start": read(Path("/proc/loadavg")),
        "hash_seed": HASH_SEED,
    }


def summarize(workload, reps, trace: bool, setups=()) -> tuple:
    """Result line and details of a run: `reps` are the repetitions,
    `setups` the set-up-only ones."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    checked = reps[0]
    for r in reps[1:]:
        # Same inputs, same answers: the first repetition's check covers the
        # others unless their answers differ.
        r["failures"] = checked["failures"]
        if r["answers_digest"] != checked["answers_digest"]:
            r["failures"] = [{"index": None, "label": "*", "input": None,
                              "known_defect": None,
                              "reason": "answers differ from the checked repetition"}
                             ] * len(r["latencies_s"])
    attempted = sum(len(r["latencies_s"]) for r in reps)
    # An answer that disagrees with its reference in the way of a known,
    # documented defect lowers ok_share and is listed by input, but does not
    # fail the operation: `failed` counts only what raised or disagreed for
    # any other reason, and turns `correct` false.
    wrong = sum(len(r["failures"]) for r in reps)
    failed = sum(1 for r in reps for f in r["failures"] if not f["known_defect"])
    scaled = [calibration.scaled(r["starts_s"], r["latencies_s"], r["slices_s"])
              for r in plain]
    tails = [tail(lat) for lat in scaled]
    if trace:
        layers = [layer_metrics(r) for r in traced]
        values = {name: median([m[name] for m in layers])
                  for name in PER_LAYER if name not in ("trace.overhead_s",
                                                        "failed_share",
                                                        "known_defect_share")}
        own = [sum(o for o, _ in calibration.split(r["starts_s"], r["latencies_s"],
                                                   r["slices_s"]))
               for r in plain]
        values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(own)
        values["failed_share"] = ratio(failed, attempted)
        values["known_defect_share"] = ratio(wrong - failed, attempted)
        units = PER_LAYER
    else:
        values = {
            "wall_s": median([sum(lat) for lat in scaled]),
            "op_p50_ms": 1000 * median([median(lat) for lat in scaled]),
            "op_tail_ms": 1000 * median([t for t, _ in tails]),
            "setup_s": median([r["setup_s"] for r in plain + list(setups)]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "ok_share": 1.0 - ratio(wrong, attempted),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failures = checked["failures"]
    details = {
        "workload": workload,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "ops_per_repetition": len(reps[0]["latencies_s"]),
        "input_digest": reps[0]["input_digest"],
        "op_tail_percentile": tails[0][1],
        "failed_share_base": {"failed": failed, "known_defect": wrong - failed,
                              "attempted": attempted},
        "scaled_wall_s": [sum(lat) for lat in scaled],
        "raw_wall_s": [r["wall_s"] for r in reps],
        "timed_region_s": [r["elapsed_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "slice_ms": [1000 * median([s for _, s in r["slices_s"]]) for r in plain],
        "setup_s": [r["setup_s"] for r in list(setups) + plain],
        "setup_raw_s": [r["setup_raw_s"] for r in list(setups) + plain],
        "failures_by_input": failures,
        "unexpected_failures": failed,
    }
    result = {
        "correct": failed == 0
        and all(r["input_digest"] == checked["input_digest"]
                for r in reps + list(setups)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noethkit").is_dir():
        print("no noethkit source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    info = provenance(args.seed)
    start = time.monotonic()
    setups, reps = [], []
    for _ in range(0 if args.trace else SETUP_ONLY_REPS):
        try:
            setups.append(run_rep(args.workload, args.seed, False, False, True))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("benchmark error: %s" % exc, file=sys.stderr)
            return 1
    min_reps = 2 if args.trace else MIN_REPS
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        try:
            reps.append(run_rep(args.workload, args.seed, traced, not reps))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("benchmark error: %s" % exc, file=sys.stderr)
            return 1
        elapsed = time.monotonic() - start
        longest = max(r["rep_s"] for r in reps)
        if len(reps) >= min_reps and elapsed + longest > args.seconds:
            break

    result, details = summarize(args.workload, reps, bool(args.trace), setups)
    details["provenance"] = info
    details["elapsed_s"] = time.monotonic() - start
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    for r in reps:  # the per-operation arrays are summarised in `details`
        for key in ("starts_s", "latencies_s", "labels", "slices_s",
                    "setup_slices_s"):
            del r[key]
    (OUT / name).write_text(json.dumps({"result": result, "details": details,
                                        "repetitions": reps}, indent=1) + "\n")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
