"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q bench/test_bench.py
"""

import pytest

import calibration
import rep
import run
import tracer
import workloads


class SmallQuery(workloads.Query):
    """The first 300 queries of the `query` workload."""

    def inputs(self, seed):
        return super().inputs(seed)[:300]


class FlippedQuery(SmallQuery):
    """SmallQuery with the answer of its first `leq` query negated."""

    def operations(self, inputs):
        ops = super().operations(inputs)
        i = next(i for i, q in enumerate(inputs) if q["kind"] == "leq")
        label, thunk = ops[i]
        ops[i] = (label, lambda: not thunk())
        return ops


class SmallCover(workloads.Cover):
    """The fixture and one lossy channel system."""

    def inputs(self, seed):
        specs = super().inputs(seed)
        return [specs[0], specs[-1]]


def rep_record(workload, seed, trace=False):
    rec = rep.run(workload, seed, trace)
    rec.update(traced=trace, setup_s=0.1, setup_raw_s=0.1, rep_s=1.0)
    return rec


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_not_the_operation_count(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = wl.inputs(7), wl.inputs(7), wl.inputs(8)
    assert workloads.input_digest(first) == workloads.input_digest(again)
    assert workloads.input_digest(first) != workloads.input_digest(other)
    assert len(wl.operations(first)) == len(wl.operations(other))


def test_flipped_answer_counts_as_failed():
    honest = rep_record(SmallQuery(), 3)
    flipped = rep_record(FlippedQuery(), 3)
    assert len(flipped["failures"]) == len(honest["failures"]) + 1
    new = [f for f in flipped["failures"] if f not in honest["failures"]]
    assert new[0]["label"].startswith("leq") and new[0]["known_defect"] is None

    ok, _ = run.summarize("query", [honest], trace=False)
    bad, details = run.summarize("query", [flipped], trace=False)
    drop = ok["metrics"]["ok_share"]["value"] - bad["metrics"]["ok_share"]["value"]
    assert drop == pytest.approx(1 / 300)
    assert ok["failed"] == 0 and ok["correct"]
    assert bad["failed"] == 1 and not bad["correct"]
    assert details["unexpected_failures"] == 1


def test_known_defect_lowers_ok_share_but_does_not_fail():
    defect = {"index": 0, "label": "member", "input": None, "reason": "r",
              "known_defect": workloads.KNOWN_DEFECT}
    rec = rep_record(SmallQuery(), 3)
    rec["failures"] = [defect]
    result, details = run.summarize("query", [rec], trace=False)
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["ok_share"]["value"] == pytest.approx(1 - 1 / 300)
    assert details["failed_share_base"]["known_defect"] == 1


@pytest.mark.parametrize("workload", [SmallQuery(), SmallCover()],
                         ids=["query", "cover"])
def test_traced_run_removes_wrappers_and_self_times_sum_to_wall(workload):
    rec = rep_record(workload, 5, trace=True)
    assert tracer.installed_wrappers() == []
    buckets = {bucket for bucket, _, _ in rec["trace"]["stats"].values()}
    assert buckets <= set(run.SELF_BUCKETS)
    metrics = run.layer_metrics(rec)
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    total += metrics["trace.wrapper_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert 0 < metrics["trace.wrapper_s"] < metrics["trace.wall_s"]


def test_wrapper_cost_is_positive_and_small():
    inner, outer = tracer.wrapper_cost(calls=2000)
    assert 0 < inner + outer < 1e-4


def ordword_member(p, u):
    q = {"kind": "member", "space": workloads.ORDWORDS, "args": [],
         "ref": {"p": p, "u": u}}
    reason = workloads.Query()._check(q, (False, None, None, None))
    return workloads.Query().known_defect(q, reason) if reason else None


def test_wrong_false_is_the_known_defect_only_through_a_split_inside_a_run():
    aa = ("concatup", ("wordopen", (("base", ("a",)),)),
          ("wordopen", (("base", ("a",)),)))
    # a^w is in up(<a>.<a>) only through a^k . a^w, the split noethkit skips.
    assert ordword_member((("a", ("w", 0)),), aa) == workloads.KNOWN_DEFECT
    # a^2 b^w splits at a run boundary (a . a b^w): a wrong False is unexpected.
    assert ordword_member((("a", 2), ("b", ("w", 0))), aa) is None
    # No concatenation at all.
    assert ordword_member((("a", ("w", 0)),), ("up", ((("a", 1),),))) is None


def test_ordinal_word_references():
    w, leq = ("w", 0), workloads.ow_leq
    assert leq((("a", 3),), (("a", w),)) and not leq((("a", w),), (("a", 3),))
    assert leq((("a", 1), ("b", w)), (("a", 2), ("b", ("w", 1))))
    assert not leq((("b", w), ("a", 1)), (("a", 1), ("b", w)))
    assert leq((("a", ("w", 2)),), (("a", w), ("b", 1), ("a", 2)))
    assert workloads.ow_canon((("a", 2), ("a", w), ("a", 1))) == (("a", ("w", 1)),)
    tri = ("tri", "1", ("up", ((("b", 1),),)))
    assert not workloads.ow_member((("b", 1), ("a", w)), tri)
    assert workloads.ow_member((("a", 1), ("b", w)), tri)


def test_timed_run_refuses_installed_wrappers():
    tr = tracer.Tracer()
    tr.install()
    try:
        with pytest.raises(RuntimeError, match="wrappers installed"):
            rep.run(SmallQuery(), 1, trace=False)
    finally:
        tr.uninstall()
    assert tracer.installed_wrappers() == []


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_set_up_is_scaled_like_the_operations():
    # Slices twice as slow as the reference: the span less its slices, halved.
    slices = [(0.0, 2 * calibration.REFERENCE_S), (0.5, 2 * calibration.REFERENCE_S)]
    want = (1.0 - 4 * calibration.REFERENCE_S) / 2
    assert calibration.scaled_span(1.0, slices) == pytest.approx(want)
