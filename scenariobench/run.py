"""Scenario benchmark: end-to-end and per-layer figures of whole scenario runs.

Usage (from the repository root)::

    python3 scenariobench/run.py --workload scheme_fig3 --seed 1 --seconds 32 --trace 0

One invocation builds the workload's spec from ``--seed`` and runs it
through ``ScenarioRunner(spec).run()`` back to back for about ``--seconds``
seconds.  Every run is checked (see ``outputcheck.py``) and counted in
``attempted``/``failed``.  With ``--trace 0`` the runs are untraced and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
runs alternate, the per-layer metrics come from the traced ones and
``trace.overhead_s`` is the difference of the two medians.  Every figure
is the median over the invocation's runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the full record: provenance of the box, every run's figures and, when
traced, the span tree.  Results are printed, not written to disk.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Pinned to one thread before NumPy loads (see :func:`main`), so the
#: scheme's matrix products never compete with pool workers for the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# --------------------------------------------------------------- trace plan
_SIM = "repro.sim.simulator"
_TOTAL = ("total_s",)
_COUNTED = ("total_s", "calls")

#: Every traced span: ``(span, module, qualname, reported fields)``.  Each
#: field is reported as the per-layer metric ``<span>.<field>``.
SPANS = (
    ("scenario.compile_spec", "repro.scenario.compiler", "compile_spec", _TOTAL),
    ("sim.init", _SIM, "StreamingSimulator.__init__", _TOTAL),
    (
        "sim.run_interval",
        _SIM,
        "StreamingSimulator.run_interval",
        ("total_s", "self_s", "calls", "p90_s"),
    ),
    ("sim.add_user", _SIM, "StreamingSimulator.add_user", _COUNTED),
    ("sim.remove_user", _SIM, "StreamingSimulator.remove_user", _COUNTED),
    # Pool shutdown: traced so it is attributed, not reported.
    ("sim.close", _SIM, "StreamingSimulator.close", ()),
    ("sim.shard.publish", "repro.sim.shard", "SharedIntervalPlan.publish", _COUNTED),
    ("mobility.positions", "repro.mobility.trajectory", "LegMobility.positions", _COUNTED),
    (
        "net.basestation.sample_snr_traces",
        "repro.net.basestation",
        "BaseStation.sample_snr_traces",
        _COUNTED,
    ),
    (
        "net.controller.observe_interval",
        "repro.net.controller",
        "RanController.observe_interval",
        _COUNTED,
    ),
    (
        "twin.collector.collect_interval",
        "repro.twin.collector",
        "StatusCollector.collect_interval",
        _COUNTED,
    ),
    (
        "twin.timeseries.append_batch",
        "repro.twin.timeseries",
        "TimeSeriesStore.append_batch",
        _COUNTED,
    ),
    (
        "twin.manager.feature_tensor",
        "repro.twin.manager",
        "DigitalTwinManager.feature_tensor",
        _COUNTED,
    ),
    (
        "core.pipeline.warm_up",
        "repro.core.pipeline",
        "DTResourcePredictionScheme.warm_up",
        ("total_s", "self_s"),
    ),
    ("core.features.compressor_fit", "repro.core.features", "UDTFeatureCompressor.fit", _TOTAL),
    (
        "core.pipeline.predict_next_interval",
        "repro.core.pipeline",
        "DTResourcePredictionScheme.predict_next_interval",
        _COUNTED,
    ),
    (
        "core.grouping.construct",
        "repro.core.grouping",
        "MulticastGroupConstructor.construct",
        _COUNTED,
    ),
    (
        "core.demand.predict_group",
        "repro.core.demand",
        "GroupDemandPredictor.predict_group",
        _COUNTED,
    ),
    ("rl.training.train_agent", "repro.rl.training", "train_agent", ("total_s", "self_s")),
    ("rl.env.grouping_state", "repro.rl.env", "grouping_state", _COUNTED),
    ("cluster.kmeans.fit", "repro.cluster.kmeans", "KMeansPlusPlus.fit", _COUNTED),
    ("cluster.metrics.silhouette_score", "repro.cluster.metrics", "silhouette_score", _COUNTED),
)

#: The spans whose last return ends set-up; traced in every run.
SETUP_SPANS = ("sim.init", "core.pipeline.warm_up")


def _features_key(features, *args, **kwargs):
    """Identity of a ``grouping_state`` feature snapshot."""
    import hashlib

    import numpy as np

    array = np.ascontiguousarray(features, dtype=np.float64)
    return (array.shape, hashlib.blake2b(array.tobytes(), digest_size=16).digest())


def targets(traced: bool):
    """Tracer targets: every span when traced, else only the set-up spans."""
    from spantrace import Target

    keys = {"rl.env.grouping_state": _features_key}
    return [
        Target(span, module, qualname, key=keys.get(span))
        for span, module, qualname, _ in SPANS
        if traced or span in SETUP_SPANS
    ]


#: Stage timings read from the public ``RunResult.timing`` (summed over
#: every interval of the run, warm-up included).
STAGE_KEYS = ("stage1_s", "playback_s", "collection_s")


def layer_metrics(tracer, result, run_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced run."""
    metrics: Dict[str, float] = {}
    for span, _, _, names in SPANS:
        stats = tracer.stats[span]
        for name in names:
            value = stats.quantile(0.9) if name == "p90_s" else getattr(stats, name)
            metrics[f"{span}.{name}"] = float(value)
    stages = 0.0
    for key in STAGE_KEYS:
        metrics[f"sim.{key}"] = float(result.timing.get(key, 0.0))
        stages += metrics[f"sim.{key}"]
    interval_s = tracer.stats["sim.run_interval"].total_s
    workers = result.simulator.config.playback_workers
    metrics["sim.shard.worker_busy_share"] = stages / (workers * interval_s) if interval_s else 0.0
    states = tracer.stats["rl.env.grouping_state"]
    metrics["rl.env.grouping_state.distinct_share"] = (
        states.distinct / states.calls if states.calls else 0.0
    )
    metrics["trace.unattributed_share"] = max(run_s - tracer.top_level_s(), 0.0) / run_s
    return metrics


# ----------------------------------------------------------------- one run
def scenario_run(workload, spec, traced: bool, digest_spec: Optional[dict] = None) -> dict:
    """Run ``spec`` once, timed and checked.  Raises on a crash.

    ``digest_spec`` replaces the export's spec echo in the digest; the
    serial twin passes the sharded spec, from which it differs in the
    worker count only.
    """
    from outputcheck import check_export, digest
    from spantrace import Tracer

    from repro.scenario import ScenarioRunner

    tracer = Tracer(targets(traced))
    gc.collect()
    with tracer:
        started = time.perf_counter()
        result = ScenarioRunner(spec).run()
        run_s = time.perf_counter() - started
    setup_end = max(
        tracer.stats[span].last_end
        for span in SETUP_SPANS
        if tracer.stats[span].last_end is not None
    )
    setup_s = setup_end - started
    export = result.to_dict()
    problems = check_export(export, per_cell=workload.per_cell)
    record = {
        "traced": traced,
        "run_s": run_s,
        "setup_s": setup_s,
        "user_intervals": sum(interval["num_users"] for interval in export["intervals"]),
        "problems": problems,
        "digest": (
            digest({**export, "spec": digest_spec or export["spec"]}) if not problems else None
        ),
        "workers": spec.engine.playback_workers,
    }
    if spec.mode == "scheme":
        record["radio_accuracy"] = export["summary"]["mean_radio_accuracy"]
        record["computing_accuracy"] = export["summary"]["mean_computing_accuracy"]
    if traced:
        record["layers"] = layer_metrics(tracer, result, run_s)
        record["tree"] = tracer.tree()
    del result, export
    gc.collect()
    return record


def attempt(workload, spec, traced: bool, digest_spec: Optional[dict] = None) -> dict:
    """:func:`scenario_run`, with a crash recorded as a failed run."""
    started = time.perf_counter()
    try:
        record = scenario_run(workload, spec, traced, digest_spec)
    except Exception as error:  # one failed run must not end the benchmark
        traceback.print_exc(file=sys.stderr)
        record = {"traced": traced, "problems": [f"raised {error!r}"], "digest": None}
    record["wall_s"] = time.perf_counter() - started
    return record


def serial_twin_check(workload, spec, sharded_digest: Optional[str]) -> dict:
    """Run the serial twin of ``spec``; it must reproduce the sharded digest."""
    from workloads import serial_twin

    record = attempt(workload, serial_twin(spec), traced=False, digest_spec=spec.to_dict())
    record["serial_twin"] = True
    if record["digest"] is not None and record["digest"] != sharded_digest:
        record["problems"].append("serial run differs from the sharded run")
    return record


# -------------------------------------------------------------- reporting
def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB.

    ``RUSAGE_CHILDREN`` reports the peak of the single largest child that
    has been waited for (a max over the pool workers, not a sum).  Forked
    workers share copy-on-write pages with the parent; pages a worker has
    touched count in both terms.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": git_commit(REPO),
        "seed": seed,
    }


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(runs: List[dict], rss_mb: float) -> Dict[str, dict]:
    """Medians over the untraced runs.

    The accuracies exist in scheme mode only; playback workloads make no
    prediction and report the constant 1.0 for them.
    """
    values = {
        "setup_s": ([r["setup_s"] for r in runs], "s"),
        "run_s": ([r["run_s"] for r in runs], "s"),
        "user_intervals_per_s": (
            [r["user_intervals"] / (r["run_s"] - r["setup_s"]) for r in runs],
            "1/s",
        ),
        "peak_rss_mb": ([rss_mb], "MB"),
        "radio_accuracy": ([r.get("radio_accuracy", 1.0) for r in runs], "ratio"),
        "computing_accuracy": ([r.get("computing_accuracy", 1.0) for r in runs], "ratio"),
    }
    return {name: {"value": median(v), "unit": unit} for name, (v, unit) in values.items()}


def per_layer_metrics(traced: List[dict], untraced: List[dict]) -> Dict[str, dict]:
    """Medians of every layer figure over the traced runs."""
    metrics: Dict[str, dict] = {}
    for name in traced[0]["layers"]:
        unit = "count" if name.endswith(".calls") else "s"
        if name.endswith("_share"):
            unit = "ratio"
        elif name.startswith("sim.") and name[4:] in STAGE_KEYS:
            unit = "task-s"
        metrics[name] = {"value": median([r["layers"][name] for r in traced]), "unit": unit}
    overhead = median([r["run_s"] for r in traced]) - median([r["run_s"] for r in untraced])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


# ------------------------------------------------------------------- main
def stop_children() -> None:
    """Stop every helper process the runs started and wait for each to end.

    ``StreamingSimulator.close`` joins the pool workers.  What is left is
    multiprocessing's resource tracker, which the first shared-memory plan
    segment starts: it would end only once this process has exited, and
    then nobody would wait for it.
    """
    for child in multiprocessing.active_children():
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def load_program() -> None:
    """Import the ``repro`` package from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"scenariobench: cannot import repro from {SRC}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"scenariobench: repro was imported from {repro.__file__}, not {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        return benchmark(parse_args(argv))
    finally:
        stop_children()


def benchmark(args: argparse.Namespace) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"scenariobench: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    spec = workload.build(args.seed)

    modes = (False, True) if args.trace else (False,)
    runs: List[dict] = []
    window_started = time.perf_counter()
    while True:
        # Traced rounds alternate which side goes first (U T, T U, ...), so
        # the cold first run of the process does not land on one side only.
        order = modes if len(runs) % 4 == 0 else modes[::-1]
        for traced in order:
            runs.append(attempt(workload, spec, traced))
        elapsed = time.perf_counter() - window_started
        per_round = median([r["wall_s"] for r in runs]) * len(modes)
        if elapsed + per_round > args.seconds:
            break
    rss_mb = peak_rss_mb()

    passed = [r for r in runs if not r["problems"]]
    reference = passed[0]["digest"] if passed else None
    for record in passed:
        if record["digest"] != reference:
            record["problems"].append("export differs from the first run of this seed")
    if workload.serial_twin:
        runs.append(serial_twin_check(workload, spec, reference))

    failed = sum(1 for r in runs if r["problems"])
    good = [r for r in runs if not r["problems"] and not r.get("serial_twin")]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("scenariobench: no run passed its checks", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, rss_mb)

    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:48s} {metric['value']:14.6g} {metric['unit']}")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "box": provenance(args.seed),
        "runs": runs,
    }
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(runs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
