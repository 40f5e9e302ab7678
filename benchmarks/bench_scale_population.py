"""Population-scale benchmark of the vectorized simulation engine.

Times full reservation intervals (ground-truth playback, SNR sampling,
digital-twin collection) at 25/50/100/200 users and emits a machine-readable
JSON record via the harness so per-interval cost is tracked across PRs.

At 100 users the vectorized engine is additionally compared against a
faithful re-implementation of the pre-vectorization (seed) hot path — scalar
per-sample mobility/SNR/collection loops — both for wall-clock speedup and
for identical-seed ``IntervalResult`` totals (the compat draw mode consumes
the shared generator in exactly the scalar order).  The legacy twin stores
remain array-backed; store appends are a negligible share of interval cost,
so the comparison is conservative.

PR 3 adds a comparison of the **batched interval engine** under a
multicast grouping (users/10 groups, the pipeline's shape):
``channel_draw_mode="fast"`` (one SNR tensor per base station per interval
plus whole-array watch-duration draws) against ``"compat"`` — the PR 2
sequential per-group path, which is preserved bit-for-bit — at 100 and 500
users.  (Its twin feature-cache comparison went with the cache; the
feature-cache records in the committed results are that history.)

PR 4 adds the **worker sweep** over the grouped engine
(``channel_draw_mode="grouped"`` + ``playback_workers``): per-interval wall
clock at 500/1000/2000 users for 1/2/4 playback workers, with a gating check
that every worker count produces identical interval totals (the per-group
RNG streams make shard boundaries draw-exact).  Each record carries the
machine's ``cpu_count``; the >=1.5x speedup assertion at 1000 users / 4
workers only gates when the machine actually has >= 4 cores — on fewer
cores the sweep still runs and records the honest (likely flat) numbers.

PR 8 extends the sweep to the **full-interval sharded engine**
(``shard_stages="full"``, the grouped default): every stage of an interval
— channel draws, playback, status collection — runs on the worker pool over
shared-memory plan buffers, and workers keep population state (mobility,
preferences) resident between tasks.  The large sweep times one warm plus
one timed interval at 10k/50k/100k users, recording per-stage seconds
(``stage1_s``/``playback_s``/``collection_s`` from ``IntervalResult.timing``),
``cpu_count`` and peak RSS (self + children) per run — honest numbers even
on machines where extra workers cannot pay for themselves.

Run standalone (``PYTHONPATH=src python benchmarks/bench_scale_population.py``)
or under pytest-benchmark like the other benches.  ``--quick`` runs a
CI-sized smoke variant (small populations, no legacy comparison) and writes
``benchmarks/results/scale_population_quick.json`` instead, leaving the
committed full record untouched.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

from harness import benchmark_record, run_once, write_benchmark_json

from repro import SimulationConfig, StreamingSimulator
from repro.sim.simulator import singleton_grouping
from repro.twin.attributes import CHANNEL_CONDITION, LOCATION, PREFERENCE

POPULATIONS = (25, 50, 100, 200)
INTERVALS = 3
COMPARISON_USERS = 100
BATCHED_POPULATIONS = (100, 500)
WORKER_POPULATIONS = (500, 1000, 2000)
WORKER_COUNTS = (1, 2, 4)
WORKER_SWEEP_INTERVALS = 2
#: The >=1.5x target at 1000 users / 4 workers only gates on machines that
#: actually have the cores; the sweep itself always runs and records.
MIN_WORKER_SPEEDUP = 1.5
WORKER_SPEEDUP_USERS = 1000
WORKER_SPEEDUP_WORKERS = 4
MIN_SPEEDUP = 5.0
MIN_BATCHED_SPEEDUP = 1.1
SEED = 7
#: The PR 8 large sweep: ``(users, worker counts)`` pairs.  10k carries a
#: serial baseline; 50k/100k run sharded-only (a serial interval at 100k
#: would roughly double the bench's wall clock for one datapoint).
LARGE_POPULATIONS = ((10_000, (1, 2)), (50_000, (2,)), (100_000, (2,)))
LARGE_INTERVAL_S = 60.0
LARGE_GROUP_SIZE = 100
STAGE_KEYS = ("stage1_s", "playback_s", "collection_s")


# --------------------------------------------------------------- legacy path
def _legacy_position(mobility):
    """The seed engine's scalar position query: a linear scan over legs."""

    def position(time_s: float) -> np.ndarray:
        if time_s < 0:
            raise ValueError("time_s must be non-negative")
        mobility._extend_until(time_s)
        for leg in mobility._legs:
            if leg.start_time_s <= time_s <= leg.end_time_s:
                return leg.position(time_s)
        return mobility._last_position.copy()

    return position


def _legacy_sample_member_snrs(sim: StreamingSimulator):
    """The seed engine's per-sample SNR loop (one Python call per sample)."""

    def sample(member_ids: Sequence[int], start_s: float, end_s: float) -> Dict[int, np.ndarray]:
        times = np.arange(start_s, end_s, sim.config.channel_sample_period_s)
        snrs: Dict[int, np.ndarray] = {}
        for user_id in member_ids:
            user = sim.users[user_id]
            bs = sim._base_station(user.serving_bs_id)
            samples = []
            for t in times:
                position = user.mobility.position(float(t))
                samples.append(bs.sample_snr_db(position, rng=sim._rng))
            snrs[user_id] = np.array(samples)
        return snrs

    return sample


def _legacy_associate_users(sim: StreamingSimulator):
    """The seed engine's per-(user, base station) association loop."""

    def associate(time_s: float) -> None:
        for user in sim.users.values():
            position = user.mobility.position(time_s)
            best = max(sim.base_stations, key=lambda bs: bs.mean_snr_db(position))
            user.serving_bs_id = best.bs_id

    return associate


def _legacy_record_watch(udt, record) -> None:
    """The seed twin's watch mirror: latest() object churn per record."""
    from repro.twin.attributes import WATCHING_DURATION

    udt._watch_records.append(record)
    if WATCHING_DURATION in udt._stores:
        store = udt._stores[WATCHING_DURATION]
        timestamp = record.timestamp_s
        if len(store) and timestamp < store.latest().timestamp_s:
            timestamp = store.latest().timestamp_s
        store.append(timestamp, [record.watch_duration_s])


def _legacy_collect_interval(sim: StreamingSimulator):
    """The seed collector: one Python call per collected sample."""
    collector = sim.collector

    def collect(udt, mobility, base_station, preference, events, start_s, end_s,
                rng=None, keep_rng=None, serving_cell=None):
        rng = rng if rng is not None else collector._rng
        delay = collector.policy.delay_s
        if CHANNEL_CONDITION in udt.attributes:
            spec = udt.attributes[CHANNEL_CONDITION]
            for t in collector._sample_times(start_s, end_s, spec.collection_period_s):
                if not collector._keep_sample():
                    continue
                position = mobility.position(float(t))
                snr_db = base_station.sample_snr_db(position, rng=rng)
                udt.record(CHANNEL_CONDITION, float(t) + delay, [snr_db])
        if LOCATION in udt.attributes:
            spec = udt.attributes[LOCATION]
            for t in collector._sample_times(start_s, end_s, spec.collection_period_s):
                if not collector._keep_sample():
                    continue
                udt.record(LOCATION, float(t) + delay, mobility.position(float(t)))
        for event in events:
            if not collector._keep_sample():
                continue
            _legacy_record_watch(udt, event.record)
        if PREFERENCE in udt.attributes:
            spec = udt.attributes[PREFERENCE]
            vector = preference.as_array()
            for t in collector._sample_times(start_s, end_s, spec.collection_period_s):
                if not collector._keep_sample():
                    continue
                udt.record(PREFERENCE, float(t) + delay, vector)

    return collect


def _legacy_group_link_state(sim: StreamingSimulator):
    """The seed link-state path: percentile-based worst-member rule."""
    from repro.net.mcs import spectral_efficiency

    def link_state(member_ids, start_s, end_s):
        snr_traces = sim.sample_member_snrs(member_ids, start_s, end_s)
        mean_snrs = {uid: float(trace.mean()) for uid, trace in snr_traces.items()}
        snrs = np.asarray(list(mean_snrs.values()), dtype=np.float64)
        target_snr = float(np.percentile(snrs, 0.0))
        efficiency = spectral_efficiency(
            target_snr, implementation_loss=sim.config.implementation_loss
        )
        ladder = sim.catalog.get(sim.catalog.video_ids()[0]).ladder
        representation = ladder.best_fitting(efficiency * sim.config.stream_bandwidth_hz)
        return efficiency, representation, mean_snrs

    return link_state


def _legacy_sample_watch_duration(model):
    """The seed watch-duration sampler: dict-rebuilding preference lookups."""

    def sample(video, preference, rng):
        weight = preference.as_dict().get(video.category, 0.0)
        if rng.random() < model.completion_probability(weight):
            return float(video.duration_s)
        mean = model.mean_watched_fraction(weight)
        alpha = mean * model.concentration
        beta = (1.0 - mean) * model.concentration
        fraction = float(rng.beta(alpha, beta))
        return float(fraction * video.duration_s)

    return sample


def _legacy_bits_watched(video, representation, watch_duration_s: float) -> float:
    """The seed per-call prefix sum (no memoization)."""
    watch_duration_s = min(watch_duration_s, video.duration_s)
    segments_needed = int(np.ceil(watch_duration_s / video.segment_duration_s))
    return float(video.sizes_for(representation)[:segments_needed].sum())


def _legacy_play_group_stream(sim: StreamingSimulator):
    """The seed engine's shared-stream playback.

    Rebuilds the popularity/preference mixture from Python dicts per group
    and draws videos with ``rng.choice(p=...)`` — the exact pre-cache code
    path (including the boundary-swipe accounting of the seed engine, which
    does not affect the compared interval totals).
    """
    from repro.behavior.watching import WatchRecord
    from repro.behavior.session import ViewingEvent
    from repro.net.multicast import resource_blocks_for_traffic
    from repro.sim.simulator import GroupIntervalUsage

    def play(group_id, member_ids, representation, efficiency, start_s, end_s,
             events_by_user, transcode_requests):
        group_preference = sim._group_preference(member_ids)
        video_ids = sim.catalog.video_ids()
        popularity = sim.catalog.popularity.probabilities()
        pop = np.array([popularity.get(vid, 0.0) for vid in video_ids])
        # Seed-era weight(): rebuilt the whole preference dict per lookup.
        pref = np.array(
            [
                group_preference.as_dict().get(sim.catalog.get(vid).category, 0.0)
                for vid in video_ids
            ]
        )
        if pop.sum() > 0:
            pop = pop / pop.sum()
        if pref.sum() > 0:
            pref = pref / pref.sum()
        w = sim.config.recommendation_popularity_weight
        mixture = w * pop + (1.0 - w) * pref
        probabilities = mixture / mixture.sum()

        sample_watch_duration = _legacy_sample_watch_duration(sim.watching_model)
        now = start_s
        traffic_bits = 0.0
        videos_played = 0
        engagement_seconds = 0.0
        requests = []
        while now < end_s:
            video = sim.catalog.get(int(sim._rng.choice(video_ids, p=probabilities)))
            member_durations = {}
            for uid in member_ids:
                member_durations[uid] = sample_watch_duration(
                    video, sim.users[uid].preference, sim._rng
                )
            transmitted = min(max(member_durations.values()), end_s - now)
            for uid, duration in member_durations.items():
                duration = min(duration, end_s - now)
                record = WatchRecord(
                    user_id=uid,
                    video_id=video.video_id,
                    category=video.category,
                    watch_duration_s=duration,
                    video_duration_s=video.duration_s,
                    swiped=duration < video.duration_s - 1e-9,
                    timestamp_s=now,
                )
                events_by_user[uid].append(ViewingEvent(record=record, start_time_s=now))
                engagement_seconds += duration
            traffic_bits += _legacy_bits_watched(video, representation, transmitted)
            requests.append((video, representation, transmitted))
            videos_played += 1
            now += transmitted + sim.config.swipe_gap_s

        transcode_requests[group_id] = requests
        blocks = resource_blocks_for_traffic(
            traffic_bits,
            efficiency,
            rb_bandwidth_hz=sim.config.rb_bandwidth_hz,
            interval_s=sim.config.interval_s,
        )
        return GroupIntervalUsage(
            group_id=group_id,
            member_ids=member_ids,
            traffic_bits=traffic_bits,
            efficiency_bps_hz=efficiency,
            representation_name=representation.name,
            resource_blocks=blocks,
            computing_cycles=0.0,
            videos_played=videos_played,
            engagement_seconds=engagement_seconds,
        )

    return play


def build_simulator(
    users: int, legacy: bool = False, draw_mode: str = "compat"
) -> StreamingSimulator:
    sim = StreamingSimulator(
        SimulationConfig(
            num_users=users,
            num_intervals=INTERVALS,
            seed=SEED,
            channel_draw_mode=draw_mode,
        )
    )
    if legacy:
        sim.sample_member_snrs = _legacy_sample_member_snrs(sim)
        sim._associate_users = _legacy_associate_users(sim)
        sim.collector.collect_interval = _legacy_collect_interval(sim)
        sim._play_group_stream = _legacy_play_group_stream(sim)
        sim.group_link_state = _legacy_group_link_state(sim)
        for user in sim.users.values():
            user.mobility.position = _legacy_position(user.mobility)
    return sim


# -------------------------------------------------------------- measurement
def run_intervals(sim: StreamingSimulator, intervals: int = INTERVALS) -> tuple:
    """``(elapsed_s, per_interval_totals)`` over ``intervals`` intervals."""
    totals: List[tuple] = []
    started = time.perf_counter()
    for _ in range(intervals):
        result = sim.run_interval(singleton_grouping(sim.user_ids()))
        totals.append(
            (
                result.total_traffic_bits,
                result.total_resource_blocks,
                result.total_computing_cycles,
            )
        )
    return time.perf_counter() - started, totals


def _multicast_grouping(sim: StreamingSimulator, group_size: int = 10) -> Dict[int, List[int]]:
    """The pipeline-shaped grouping: ~``group_size`` members per group."""
    user_ids = sim.user_ids()
    num_groups = max(len(user_ids) // group_size, 1)
    grouping: Dict[int, List[int]] = {gid: [] for gid in range(num_groups)}
    for index, uid in enumerate(user_ids):
        grouping[index % num_groups].append(uid)
    return grouping


def run_multicast_intervals(sim: StreamingSimulator, intervals: int = INTERVALS) -> float:
    grouping = _multicast_grouping(sim)
    started = time.perf_counter()
    for _ in range(intervals):
        sim.run_interval(grouping)
    return time.perf_counter() - started


def batched_engine_experiment(records: List[dict], populations=BATCHED_POPULATIONS,
                              intervals: int = INTERVALS) -> Dict[int, float]:
    """Batched (fast) engine vs the sequential PR 2 (compat) hot path."""
    speedups: Dict[int, float] = {}
    for users in populations:
        compat_elapsed = run_multicast_intervals(
            build_simulator(users, draw_mode="compat"), intervals
        )
        fast_elapsed = run_multicast_intervals(
            build_simulator(users, draw_mode="fast"), intervals
        )
        speedups[users] = compat_elapsed / fast_elapsed
        records.append(
            benchmark_record(
                "scale_population_batched_engine",
                elapsed_s=fast_elapsed,
                users=users,
                intervals=intervals,
                engine="batched",
                compat_elapsed_s=compat_elapsed,
                speedup=speedups[users],
            )
        )
    return speedups


def _worker_sweep_simulator(users: int, workers: int) -> StreamingSimulator:
    return StreamingSimulator(
        SimulationConfig(
            num_users=users,
            num_intervals=WORKER_SWEEP_INTERVALS + 1,
            seed=SEED,
            channel_draw_mode="grouped",
            playback_workers=workers,
        )
    )


def playback_workers_experiment(
    records: List[dict],
    populations: Sequence[int] = WORKER_POPULATIONS,
    workers: Sequence[int] = WORKER_COUNTS,
    intervals: int = WORKER_SWEEP_INTERVALS,
) -> dict:
    """Process-sharded grouped playback versus the serial grouped engine.

    For each population the same multicast grouping is played under every
    worker count (same seed, grouped draw mode): one warm interval first —
    pool spin-up and lazy mobility-leg generation happen there — then
    ``intervals`` timed intervals.  Returns per-population ``{"speedups":
    {workers: x}, "totals_identical": bool}``; identical totals across
    worker counts are the draw-exact shard-boundary guarantee and are
    asserted by the caller.
    """
    cpu_count = os.cpu_count() or 1
    sweep: dict = {"cpu_count": cpu_count, "populations": {}}
    for users in populations:
        timings: Dict[int, float] = {}
        stage_by_workers: Dict[int, Dict[str, float]] = {}
        totals_by_workers: Dict[int, list] = {}
        for worker_count in workers:
            sim = _worker_sweep_simulator(users, worker_count)
            try:
                grouping = _multicast_grouping(sim)
                sim.run_interval(grouping)  # warm: pool start + mobility legs
                totals = []
                stages = {key: 0.0 for key in STAGE_KEYS}
                started = time.perf_counter()
                for _ in range(intervals):
                    result = sim.run_interval(grouping)
                    totals.append(
                        (
                            result.total_traffic_bits,
                            result.total_resource_blocks,
                            result.total_computing_cycles,
                        )
                    )
                    for key in STAGE_KEYS:
                        stages[key] += result.timing.get(key, 0.0)
                timings[worker_count] = time.perf_counter() - started
                stage_by_workers[worker_count] = stages
                totals_by_workers[worker_count] = totals
            finally:
                sim.close()
        serial = timings[workers[0]]
        speedups = {w: serial / timings[w] for w in workers}
        totals_identical = all(
            totals_by_workers[w] == totals_by_workers[workers[0]] for w in workers
        )
        sweep["populations"][users] = {
            "speedups": speedups,
            "totals_identical": totals_identical,
        }
        for worker_count in workers:
            records.append(
                benchmark_record(
                    "scale_population_playback_workers",
                    elapsed_s=timings[worker_count],
                    users=users,
                    intervals=intervals,
                    engine="grouped",
                    playback_workers=worker_count,
                    cpu_count=cpu_count,
                    serial_elapsed_s=serial,
                    speedup=speedups[worker_count],
                    totals_identical=totals_identical,
                    stage_timings=stage_by_workers[worker_count],
                )
            )
    return sweep


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus reaped children, in MiB.

    ``ru_maxrss`` is kilobytes on Linux; children covers the worker pool
    (workers are reaped when ``close()`` joins the pool, so sample after).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def large_population_experiment(
    records: List[dict],
    populations=LARGE_POPULATIONS,
    intervals: int = 1,
) -> dict:
    """The PR 8 scale sweep: full-shard intervals at 10k/50k/100k users.

    One warm interval (pool spin-up, shm plan allocation, worker-side
    mobility construction) then ``intervals`` timed ones per (population,
    worker count).  Records per-stage seconds from ``IntervalResult.timing``
    — for sharded runs those are summed worker-side compute seconds, so on
    a single-core machine the stage split stays honest while wall-clock
    speedups sit near or below 1x.  Peak RSS (self + children) is sampled
    after ``close()`` so pool workers are included.
    """
    cpu_count = os.cpu_count() or 1
    sweep: dict = {"cpu_count": cpu_count, "populations": {}}
    for users, worker_counts in populations:
        entry: dict = {}
        for worker_count in worker_counts:
            sim = StreamingSimulator(
                SimulationConfig(
                    num_users=users,
                    num_intervals=intervals + 1,
                    interval_s=LARGE_INTERVAL_S,
                    seed=SEED,
                    channel_draw_mode="grouped",
                    playback_workers=worker_count,
                )
            )
            try:
                grouping = _multicast_grouping(sim, group_size=LARGE_GROUP_SIZE)
                sim.run_interval(grouping)  # warm
                stages = {key: 0.0 for key in STAGE_KEYS}
                started = time.perf_counter()
                for _ in range(intervals):
                    result = sim.run_interval(grouping)
                    for key in STAGE_KEYS:
                        stages[key] += result.timing.get(key, 0.0)
                elapsed = time.perf_counter() - started
            finally:
                sim.close()
            peak_rss_mb = _peak_rss_mb()
            entry[worker_count] = {
                "elapsed_s": elapsed,
                "stage_timings": stages,
                "peak_rss_mb": peak_rss_mb,
            }
            records.append(
                benchmark_record(
                    "scale_population_large",
                    elapsed_s=elapsed,
                    users=users,
                    intervals=intervals,
                    engine="grouped-full-shard",
                    playback_workers=worker_count,
                    cpu_count=cpu_count,
                    interval_s=LARGE_INTERVAL_S,
                    group_size=LARGE_GROUP_SIZE,
                    stage_timings=entry[worker_count]["stage_timings"],
                    peak_rss_mb=peak_rss_mb,
                )
            )
        sweep["populations"][users] = entry
    return sweep


def scale_experiment() -> dict:
    records = []
    summary: dict = {}
    for users in POPULATIONS:
        elapsed, _ = run_intervals(build_simulator(users))
        records.append(
            benchmark_record(
                "scale_population",
                elapsed_s=elapsed,
                users=users,
                intervals=INTERVALS,
                engine="vectorized",
            )
        )
        summary[users] = elapsed / INTERVALS

    vec_elapsed, vec_totals = run_intervals(build_simulator(COMPARISON_USERS))
    legacy_elapsed, legacy_totals = run_intervals(build_simulator(COMPARISON_USERS, legacy=True))
    records.append(
        benchmark_record(
            "scale_population",
            elapsed_s=legacy_elapsed,
            users=COMPARISON_USERS,
            intervals=INTERVALS,
            engine="legacy",
        )
    )
    speedup = legacy_elapsed / vec_elapsed
    records.append(
        benchmark_record(
            "scale_population_speedup",
            elapsed_s=vec_elapsed,
            users=COMPARISON_USERS,
            intervals=INTERVALS,
            engine="vectorized",
            legacy_elapsed_s=legacy_elapsed,
            speedup=speedup,
            totals_identical=vec_totals == legacy_totals,
        )
    )
    batched_speedups = batched_engine_experiment(records)
    worker_sweep = playback_workers_experiment(records)
    large_sweep = large_population_experiment(records)

    path = write_benchmark_json("scale_population", records)
    return {
        "summary": summary,
        "speedup": speedup,
        "totals_identical": vec_totals == legacy_totals,
        "batched_speedups": batched_speedups,
        "worker_sweep": worker_sweep,
        "large_sweep": large_sweep,
        "json_path": str(path),
    }


def quick_experiment() -> dict:
    """CI smoke variant: tiny populations, no legacy comparison.

    Exercises the same record format and the batched-engine comparison so
    the harness JSON stays covered, but completes in seconds.
    Writes ``scale_population_quick.json`` so the committed full record is
    not clobbered by CI runs.
    """
    records = []
    summary: dict = {}
    for users in (25, 50):
        elapsed, _ = run_intervals(build_simulator(users), intervals=1)
        records.append(
            benchmark_record(
                "scale_population",
                elapsed_s=elapsed,
                users=users,
                intervals=1,
                engine="vectorized",
                quick=True,
            )
        )
        summary[users] = elapsed
    batched_speedups = batched_engine_experiment(records, populations=(50,), intervals=1)
    # One small 2-worker datapoint so CI exercises the sharded engine and
    # its identical-totals guarantee on every run.
    worker_sweep = playback_workers_experiment(
        records, populations=(50,), workers=(1, 2), intervals=1
    )
    path = write_benchmark_json("scale_population_quick", records)
    for users, entry in worker_sweep["populations"].items():
        assert entry["totals_identical"], (
            f"sharded playback diverged from serial at {users} users (quick)"
        )
    return {
        "summary": summary,
        "batched_speedups": batched_speedups,
        "worker_sweep": worker_sweep,
        "json_path": str(path),
    }


def report(result: dict) -> None:
    print()
    print("Population scale — per-interval wall clock (vectorized engine)")
    print(f"{'users':>6s} {'s/interval':>11s}")
    for users, per_interval in sorted(result["summary"].items()):
        print(f"{users:>6d} {per_interval:>11.3f}")
    if "speedup" in result:
        print(
            f"vs legacy engine at {COMPARISON_USERS} users: "
            f"{result['speedup']:.1f}x faster, identical-seed totals "
            f"{'preserved' if result['totals_identical'] else 'DIVERGED'}"
        )
    for users, value in sorted(result["batched_speedups"].items()):
        print(f"batched engine (fast vs compat, multicast) at {users} users: {value:.2f}x")
    if "worker_sweep" in result:
        sweep = result["worker_sweep"]
        print(f"sharded grouped playback ({sweep['cpu_count']} cpu core(s)):")
        for users, entry in sorted(sweep["populations"].items()):
            line = ", ".join(
                f"{workers}w {value:.2f}x"
                for workers, value in sorted(entry["speedups"].items())
            )
            identical = "identical" if entry["totals_identical"] else "DIVERGED"
            print(f"  {users} users: {line} (totals {identical})")
    if "large_sweep" in result:
        sweep = result["large_sweep"]
        print(f"full-shard large sweep ({sweep['cpu_count']} cpu core(s)):")
        for users, entry in sorted(sweep["populations"].items()):
            for workers, run in sorted(entry.items()):
                stages = ", ".join(
                    f"{key}={run['stage_timings'][key]:.1f}s" for key in STAGE_KEYS
                )
                print(
                    f"  {users} users / {workers}w: {run['elapsed_s']:.1f}s"
                    f" ({stages}, peak RSS {run['peak_rss_mb']:.0f} MiB)"
                )
    print(f"JSON record: {result['json_path']}")


def _assertions(result: dict) -> None:
    assert result["totals_identical"], "vectorized engine diverged from the legacy engine"
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup at {COMPARISON_USERS} users, "
        f"got {result['speedup']:.2f}x"
    )
    for users, value in result["batched_speedups"].items():
        assert value >= MIN_BATCHED_SPEEDUP, (
            f"expected >= {MIN_BATCHED_SPEEDUP}x batched-engine speedup at "
            f"{users} users, got {value:.2f}x"
        )
    sweep = result["worker_sweep"]
    for users, entry in sweep["populations"].items():
        assert entry["totals_identical"], (
            f"sharded playback diverged from serial playback at {users} users"
        )
    # The speedup target is physical: it only gates when the machine has at
    # least as many cores as the target worker count.
    if sweep["cpu_count"] >= WORKER_SPEEDUP_WORKERS:
        observed = sweep["populations"][WORKER_SPEEDUP_USERS]["speedups"][
            WORKER_SPEEDUP_WORKERS
        ]
        assert observed >= MIN_WORKER_SPEEDUP, (
            f"expected >= {MIN_WORKER_SPEEDUP}x sharded speedup at "
            f"{WORKER_SPEEDUP_USERS} users with {WORKER_SPEEDUP_WORKERS} "
            f"workers, got {observed:.2f}x"
        )


def bench_scale_population(benchmark):
    result = run_once(benchmark, scale_experiment)
    report(result)
    _assertions(result)


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        report(quick_experiment())
    else:
        result = scale_experiment()
        report(result)
        _assertions(result)
