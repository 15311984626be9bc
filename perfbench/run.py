"""End-to-end CatDB benchmark: one workload per invocation.

    python3 perfbench/run.py --workload gen-wide --seed 1 --seconds 30 --trace 0

prints every end-to-end metric with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` instead runs the same work twice, untraced
and then with every layer wrapped (see ``spans.py``), and reports the
per-layer metrics.  ``--record-reference`` re-records ``reference.json``.
See ``README.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
WORKDIR = HERE / ".work"
OUTDIR = HERE / "out"

#: set-up is repeated this many times per run; setup_s is the median
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("run_p50_s", "s"),
    ("run_tail_s", "s"),
    ("ops_per_min", "ops/min"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("ml.vectorize_s", "s"), ("ml.fit_s", "s"), ("ml.predict_s", "s"),
    ("ml.metrics_s", "s"), ("ml.fits", "count"), ("ml.predicts", "count"),
    ("generation.executions_per_op", "count"), ("generation.validate_exec_s", "s"),
    ("generation.final_exec_s", "s"), ("generation.repairs_per_op", "count"),
    ("generation.kb_hit_ratio", "ratio"), ("generation.fallback_ratio", "ratio"),
    ("catalog.profile_s", "s"), ("catalog.stream_profile_s", "s"),
    ("catalog.dependencies_s", "s"), ("catalog.cache_hit_ratio", "ratio"),
    ("sketch.update_s", "s"), ("sketch.merge_s", "s"), ("table.ingest_s", "s"),
    ("table.join_s", "s"), ("table.split_s", "s"),
    ("execpool.roundtrip_s", "s"), ("execpool.overhead_s", "s"),
    ("execpool.jobs", "count"), ("execpool.frame_bytes", "bytes"),
    ("runner.efficiency", "ratio"), ("runner.cells", "count"),
    ("analysis.analyze_s", "s"), ("analysis.calls", "count"),
    ("analysis.exec_skip_ratio", "ratio"), ("analysis.fix_s", "s"),
    ("analysis.fix_applied_ratio", "ratio"), ("prompt.build_s", "s"),
    ("prompt.error_prompts", "count"), ("llm.calls", "count"),
    ("llm.complete_s", "s"), ("llm.prompt_tokens", "tokens"),
    ("llm.completion_tokens", "tokens"),
    ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
    ("tokens_per_op", "tokens"), ("score_mean", "score"), ("fail_ratio", "ratio"),
)

#: spans and counters each workload's traced run must see at least once;
#: a zero here means a wrapper sits where no caller looks the function up
EXERCISED = {
    "gen-wide": (
        "ml.vectorize", "ml.fit", "ml.predict", "ml.metrics",
        "generation.validate_exec", "generation.final_exec", "catalog.profile",
        "catalog.dependencies", "table.join", "table.split", "analysis.analyze",
        "prompt.build", "llm.complete",
    ),
    "catalog-wide": (
        "catalog.profile", "catalog.stream_profile", "catalog.dependencies",
        "sketch.update", "sketch.merge", "table.ingest",
    ),
    "repair-grid": (
        "generation.validate_exec", "generation.final_exec", "execpool.roundtrip",
        "analysis.analyze", "analysis.fix", "prompt.build", "llm.complete",
        "prompt.error_prompts", "execpool.frame_bytes",
        "generation.kb_lookups", "runner.cells",
    ),
}


# -- statistics ---------------------------------------------------------------------


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``; the percentile is the rank of the
    chosen sample on a 0-100 scale over the sorted values.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples: a tail needs more than {beyond}")
    index = n - 1 - beyond
    return ordered[index], 100.0 * index / (n - 1), n


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- running --------------------------------------------------------------------------


def _clean_environment() -> None:
    """No REPRO_* knob from the caller may change what is measured; in
    particular the program's own tracing (REPRO_TRACE) stays off."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def _orders(keys: list[str], seed: int, rounds: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [rng.sample(keys, len(keys)) for _ in range(rounds)]


def _measure(workload: Any, orders: list[list[str]], recorder: Any = None) -> tuple[list, float]:
    ops = []
    wall = 0.0
    for order in orders:
        start = time.perf_counter()
        ops.extend(workload.run_round(order, recorder))
        wall += time.perf_counter() - start
    return ops, wall


def _op_problem(op: Any, reference: dict[str, Any]) -> str | None:
    """Why ``op`` counts as failed (raised or differs from its reference)."""
    from workloads import compare_outcome

    if op.error:
        return f"{op.key}: raised {op.error}"
    wrong = compare_outcome(op.outcome, reference.get(op.key))
    if wrong:
        return f"{op.key}: differs from reference in {', '.join(wrong)}"
    return None


def _generation_figures(ops: list) -> dict[str, float]:
    """tokens_per_op and score_mean over the generation ops (catalog ops
    have no tokens or scores)."""
    gen = [op for op in ops if op.outcome and "prompt_tokens" in op.outcome]
    scores = [op.outcome["primary_metric"] for op in gen
              if op.outcome["primary_metric"] is not None]
    return {
        "tokens_per_op": _ratio(sum(op.outcome["prompt_tokens"] + op.outcome["completion_tokens"]
                                    for op in gen), len(gen)),
        "score_mean": _ratio(sum(scores), len(scores)),
    }


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (the pool
    workers, once shut down)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(ops: list, wall: float, setup_times: list[float]) -> tuple[dict, dict]:
    seconds = [op.seconds for op in ops]
    tail_value, tail_pct, n = tail(seconds)
    completed = sum(1 for op in ops if not op.error)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_p50_s": statistics.median(seconds),
        "run_tail_s": tail_value,
        "ops_per_min": completed / (wall / 60.0),
    }
    return metrics, {"tail_percentile": tail_pct, "samples": n}


def per_layer(workload_name: str, recorder: Any, ops: list, traced_wall: float,
              untraced_wall: float) -> tuple[dict[str, float], dict[str, Any]]:
    from spans import layer_report

    report = layer_report(recorder.spans, {op.op_id: op.seconds for op in ops})
    selfs, counts, counters = report["self_s"], report["counts"], recorder.counters
    n = max(1, len(ops))
    gen = [op for op in ops if "fix_attempts" in op.extra]
    cache = [op.extra["cache"] for op in ops if "cache" in op.extra]
    hits = sum(h for h, _ in cache)
    lookups = sum(h + m for h, m in cache)
    # every span name is a layer; its metric is its mean self time per op
    values: dict[str, float] = {f"{name}_s": seconds for name, seconds in selfs.items()}
    values.update({
        "ml.fits": counts.get("ml.fit", 0),
        "ml.predicts": counts.get("ml.predict", 0),
        "generation.executions_per_op": (counts.get("generation.validate_exec", 0)
                                         + counts.get("generation.final_exec", 0)) / n,
        "generation.repairs_per_op": _ratio(sum(op.extra["fix_attempts"] for op in gen),
                                            len(gen)),
        "generation.kb_hit_ratio": _ratio(counters["generation.kb_hits"],
                                          counters["generation.kb_lookups"]),
        "generation.fallback_ratio": _ratio(sum(op.extra["fallback_used"] for op in gen),
                                            len(gen)),
        "catalog.cache_hit_ratio": _ratio(hits, lookups),
        "execpool.overhead_s": counters["execpool.overhead"] / n,
        "execpool.jobs": counts.get("execpool.roundtrip", 0),
        "execpool.frame_bytes": counters["execpool.frame_bytes"],
        "runner.efficiency": _ratio(sum(op.seconds for op in ops),
                                    counters["runner.worker_slots"]),
        "runner.cells": counters["runner.cells"],
        "analysis.calls": counts.get("analysis.analyze", 0),
        "analysis.exec_skip_ratio": _ratio(sum(op.extra["static_exec_skipped"] for op in gen),
                                           counts.get("analysis.analyze", 0)),
        "analysis.fix_applied_ratio": _ratio(counters["analysis.fixes_applied"],
                                             counts.get("analysis.fix", 0)),
        "prompt.error_prompts": counters["prompt.error_prompts"],
        "llm.calls": counts.get("llm.complete", 0),
        "llm.prompt_tokens": counters["llm.prompt_tokens"],
        "llm.completion_tokens": counters["llm.completion_tokens"],
        "trace.unattributed_s": report["unattributed_s"],
        "trace.overhead_s": (traced_wall - untraced_wall) / n,
    })
    for name, unit in PER_LAYER:
        values.setdefault(name, 0.0)

    problems = []
    missing = [name for name in EXERCISED[workload_name]
               if not counts.get(name) and not counters.get(name)]
    if missing:
        problems.append(f"wrappers saw no calls to: {', '.join(missing)}")
    self_sum = sum(selfs.values()) + report["unattributed_s"]
    if abs(self_sum - report["op_wall_s"]) > 1e-6 * max(1.0, report["op_wall_s"]):
        problems.append(f"self times + remainder {self_sum} != op wall {report['op_wall_s']}")
    detail = {"self_s": selfs, "span_counts": counts, "counters": dict(counters),
              "op_wall_s": report["op_wall_s"], "problems": problems}
    return values, detail


def _write_spans(path: Path, recorder: Any, detail: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"layers": detail,
                   "spans": [list(span) for span in recorder.spans]}, handle)


def record_reference(names: list[str]) -> int:
    from workloads import WORKLOADS, RepairGrid

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        cls = WORKLOADS[name]
        # repair-grid is recorded in-process on one worker, so every run
        # checks pool == inproc and parallel == sequential
        workload = (RepairGrid(str(WORKDIR), exec_mode="inproc", workers=1)
                    if cls is RepairGrid else cls(str(WORKDIR)))
        try:
            workload.setup()
            ops = workload.run_round(workload.keys())
        finally:
            workload.close()
        failed = [op.key for op in ops if op.error or op.outcome.get("success") is False]
        if failed:
            print(f"{name}: ops failed while recording: {failed}", file=sys.stderr)
            return 1
        reference[name] = {op.key: op.outcome for op in ops}
        print(f"{name}: recorded {len(ops)} ops", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def run(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    reference = json.loads(REFERENCE.read_text())[args.workload]
    workload = WORKLOADS[args.workload](str(WORKDIR))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        rounds = max(1, round(args.seconds / workload.nominal_round_s))
        orders = _orders(workload.keys(), args.seed, rounds)
        ops, wall = _measure(workload, orders)
        if args.trace:
            from spans import Recorder, instrument

            recorder = Recorder()
            patches = instrument(recorder)
            try:
                traced_ops, traced_wall = _measure(workload, orders, recorder)
            finally:
                patches.restore()
    finally:
        workload.close()

    all_ops = ops + (traced_ops if args.trace else [])
    problems = [p for p in (_op_problem(op, reference) for op in all_ops) if p]
    figures = _generation_figures(ops)
    figures["fail_ratio"] = len(problems) / len(all_ops)
    metrics, tail_info = end_to_end(ops, wall, setup_times)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    failed = len(problems)
    if args.trace:
        layer_values, detail = per_layer(args.workload, recorder, traced_ops,
                                         traced_wall, wall)
        problems += detail["problems"]
        _write_spans(OUTDIR / f"spans-{args.workload}-seed{args.seed}.json",
                     recorder, detail)

    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(orders)} round(s), "
          f"{len(ops)} ops, measured {wall:.2f} s")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:12.4f} {unit}")
    print(f"  run_tail_s is p{tail_info['tail_percentile']:.1f} "
          f"of {tail_info['samples']} ops (10 beyond it)")
    for name in ("tokens_per_op", "score_mean", "fail_ratio"):
        print(f"  {name:<14} {figures[name]:12.4f}")
    if args.trace:
        reported = dict(layer_values, **figures)
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {reported[name]:14.6f} {unit}")
        chosen = {name: (reported[name], unit) for name, unit in PER_LAYER}
    else:
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("gen-wide", "catalog-wide", "repair-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record reference.json (all workloads unless --workload)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    _clean_environment()
    sys.path.insert(0, str(SRC))
    from workloads import RepairGrid

    os.environ["REPRO_EXEC_POOL_SIZE"] = str(RepairGrid.WORKERS)
    if args.record_reference:
        return record_reference([args.workload] if args.workload
                                else ["gen-wide", "catalog-wide", "repair-grid"])
    if args.workload is None:
        parser.error("--workload is required")
    if not REFERENCE.exists():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
