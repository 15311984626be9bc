"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from run import tail  # noqa: E402
from spans import Recorder, Span, instrument, layer_report, self_times  # noqa: E402
from workloads import compare_outcome  # noqa: E402


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, "ml.fit", 0.0, 10.0, None, 1),  # boosting ensemble fit
        Span(2, "ml.fit", 1.0, 3.0, 1, 1),      # tree fit
        Span(3, "ml.fit", 4.0, 7.0, 1, 1),      # tree fit
        Span(4, "ml.predict", 5.0, 6.0, 3, 1),  # nested inside the second tree
    ]
    selfs = self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_layer_report_self_times_plus_remainder_equal_op_wall():
    spans = [
        Span(1, "ml.fit", 0.0, 10.0, None, 1),
        Span(2, "ml.fit", 1.0, 3.0, 1, 1),
        Span(3, "catalog.profile", 11.0, 12.0, None, 1),
        Span(4, "catalog.profile", 0.0, 2.0, None, 2),
        Span(5, "catalog.profile", 0.0, 99.0, None, None),  # outside every op
    ]
    report = layer_report(spans, {1: 14.0, 2: 2.5})
    assert report["self_s"] == {"ml.fit": 5.0, "catalog.profile": 1.5}
    assert report["counts"] == {"ml.fit": 2, "catalog.profile": 2}
    assert report["unattributed_s"] == pytest.approx((14.0 - 11.0 + 2.5 - 2.0) / 2)
    total = sum(report["self_s"].values()) + report["unattributed_s"]
    assert total == pytest.approx(report["op_wall_s"])


def test_instrumented_ensemble_fit_nests_tree_fits_and_restores():
    from repro.ml import GradientBoostingRegressor

    original = GradientBoostingRegressor.__dict__["fit"]
    recorder = Recorder()
    patches = instrument(recorder)
    try:
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = X[:, 0] + 0.1 * X[:, 1]
        recorder.begin_op(7)
        start = time.perf_counter()
        GradientBoostingRegressor(n_estimators=3, max_depth=2, random_state=0).fit(X, y)
        wall = time.perf_counter() - start
        recorder.end_op()
    finally:
        patches.restore()
    assert GradientBoostingRegressor.__dict__["fit"] is original

    fits = [s for s in recorder.spans if s.name == "ml.fit"]
    ensemble = [s for s in fits if s.parent is None]
    assert len(ensemble) == 1
    trees = [s for s in fits if s.parent == ensemble[0].span_id]
    assert len(trees) == 3
    assert all(s.op_id == 7 for s in recorder.spans)
    selfs = self_times(recorder.spans)
    children = sum(s.end - s.start for s in recorder.spans
                   if s.parent == ensemble[0].span_id)
    assert selfs[ensemble[0].span_id] == pytest.approx(
        ensemble[0].end - ensemble[0].start - children)
    report = layer_report(recorder.spans, {7: wall})
    assert report["unattributed_s"] >= 0.0
    assert sum(report["self_s"].values()) + report["unattributed_s"] == pytest.approx(wall)


def test_iterator_wrapper_times_each_chunk_inside_the_consumer():
    recorder = Recorder()
    produce = recorder.timed_iterator("table.ingest", lambda: iter([1, 2, 3]))
    consume = recorder.timed("catalog.stream_profile", lambda chunks: list(chunks))
    recorder.begin_op(1)
    assert consume(produce()) == [1, 2, 3]
    outer = [s for s in recorder.spans if s.name == "catalog.stream_profile"]
    ingest = [s for s in recorder.spans if s.name == "table.ingest"]
    assert len(outer) == 1 and len(ingest) == 4  # three chunks + exhaustion
    assert all(s.parent == outer[0].span_id for s in ingest)


# -- tail percentile ---------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    value, percentile, n = tail(values[::-1])
    assert n == 100
    assert value == 89.0
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * 89 / 99)


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile, n = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert (value, percentile, n) == (1.0, 0.0, 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# -- reference comparison ---------------------------------------------------------


GEN = {"success": True, "code_md5": "abc", "prompt_tokens": 10,
       "completion_tokens": 5, "primary_metric": 0.75}


def test_matching_outcome_has_no_differences():
    assert compare_outcome(dict(GEN), dict(GEN)) == []
    assert compare_outcome({"catalog_md5": "x"}, {"catalog_md5": "x"}) == []


def test_token_and_score_drift_are_reported_by_field():
    outcome = dict(GEN, prompt_tokens=11, primary_metric=0.7500001)
    assert compare_outcome(outcome, GEN) == ["primary_metric", "prompt_tokens"]


def test_unsuccessful_op_never_matches():
    failed = dict(GEN, success=False)
    assert "success" in compare_outcome(failed, dict(failed))


def test_missing_reference_or_outcome_is_a_mismatch():
    assert compare_outcome(GEN, None) == ["<no reference>"]
    assert compare_outcome(None, GEN) == ["<no outcome>"]
    assert compare_outcome({"catalog_md5": "x"}, {"catalog_md5": "y"}) == ["catalog_md5"]
