"""The benchmark's workloads: scenario specs built from the public API.

Each workload is a registry scenario (``get_scenario``) with dotted
overrides, plus ``dataclasses.replace`` where a field is event-structured
(timeline, churn phases).  The seed is the only input that varies between
runs; everything else is fixed here.

Why these three (see README.md for the numbers):

* ``scheme_fig3`` -- the paper's scheme at 300 users.  The only workload
  where the learning layers (CNN fit, DDQN training, K-means, silhouette)
  do most of the work, and where their n^2 kernels show.
* ``playback_5k`` -- 5000 users of raw ground-truth playback, serial.
  Mobility, channel draws, playback and twin collection do the work; no
  learning code runs.
* ``sharded_churn`` -- 3000 users over a 2-worker full shard with 150
  arrivals and 150 departures per interval.  The only workload that runs
  the shard machinery, and the only one that writes to the population
  while it reads it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict

from repro.scenario import ScenarioSpec, get_scenario
from repro.scenario.spec import ChurnPhase


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], ScenarioSpec]
    #: The run has a multi-cell controller, so per-cell demand must exist.
    per_cell: bool
    #: Check the run against its serial twin (same spec, one worker).
    serial_twin: bool = False


def _scheme_fig3(seed: int) -> ScenarioSpec:
    return get_scenario("campus_fig3", {"seed": seed, "population.num_users": 300})


def _multicell_playback(seed: int, overrides: dict) -> ScenarioSpec:
    base = {
        "seed": seed,
        "interval_s": 60.0,
        "engine.channel_draw_mode": "grouped",
        "grouping.policy": "round_robin",
    }
    spec = get_scenario("multicell_campus", {**base, **overrides})
    # The registry entry's mid-run outage drill is not part of these workloads.
    return dataclasses.replace(spec, timeline=())


def _playback_5k(seed: int) -> ScenarioSpec:
    return _multicell_playback(
        seed,
        {"population.num_users": 5000, "grouping.num_groups": 50, "num_intervals": 2},
    )


def _sharded_churn(seed: int) -> ScenarioSpec:
    spec = _multicell_playback(
        seed,
        {
            "population.num_users": 3000,
            "grouping.num_groups": 30,
            "num_intervals": 4,
            "engine.playback_workers": 2,
        },
    )
    churn = ChurnPhase(
        start_interval=1,
        end_interval=spec.num_intervals,
        arrivals_per_interval=150,
        departures_per_interval=150,
    )
    population = dataclasses.replace(spec.population, churn_phases=(churn,))
    return dataclasses.replace(spec, population=population)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("scheme_fig3", _scheme_fig3, per_cell=False),
        Workload("playback_5k", _playback_5k, per_cell=True),
        Workload("sharded_churn", _sharded_churn, per_cell=True, serial_twin=True),
    )
}


def serial_twin(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` run serially: the same grouped engine with one worker."""
    return dataclasses.replace(spec, engine=dataclasses.replace(spec.engine, playback_workers=1))
