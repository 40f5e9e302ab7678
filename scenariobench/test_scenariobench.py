"""Tests of the scenario benchmark's tracer, output checks and workloads."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
import run as bench
from outputcheck import check_export, digest
from spantrace import ROOT, Target, Tracer
from workloads import WORKLOADS, Workload, serial_twin

import repro.core.grouping
import repro.rl.env
from repro.scenario import get_scenario, run_spec

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that moves only when the traced code says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.work`` (a class and two functions) and ``fakepkg.user``,
    which binds one of the functions by name as ``from ... import`` does."""
    clock = FakeClock()
    work = types.ModuleType("fakepkg.work")

    def inner(seconds):
        clock.advance(seconds)
        return seconds

    def outer():
        clock.advance(1.0)
        work.inner(2.0)
        clock.advance(3.0)
        return "done"

    def countdown(n):
        clock.advance(1.0)
        return 0 if n == 0 else work.countdown(n - 1)

    class Model:
        def step(self, value):
            clock.advance(value)
            return value * 2

    work.inner, work.outer, work.countdown, work.Model = inner, outer, countdown, Model
    user = types.ModuleType("fakepkg.user")
    user.inner = inner
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.work", work)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return clock, work, user


def _targets():
    return [
        Target("outer", "fakepkg.work", "outer"),
        Target("inner", "fakepkg.work", "inner", key=lambda seconds: seconds),
        Target("countdown", "fakepkg.work", "countdown"),
        Target("model.step", "fakepkg.work", "Model.step"),
    ]


def test_uninstall_restores_every_original(fake_package):
    _, work, user = fake_package
    originals = (work.outer, work.inner, user.inner, work.countdown, work.Model.__dict__["step"])
    with Tracer(_targets()):
        assert work.inner is not originals[1]
        assert user.inner is work.inner  # the by-name binding is patched too
        assert work.Model.__dict__["step"] is not originals[4]
    restored = (work.outer, work.inner, user.inner, work.countdown, work.Model.__dict__["step"])
    assert all(a is b for a, b in zip(restored, originals))


def test_uninstall_restores_after_an_exception(fake_package):
    _, work, _ = fake_package
    original = work.Model.__dict__["step"]
    with pytest.raises(TypeError):
        with Tracer(_targets()):
            work.Model().step()  # missing argument
    assert work.Model.__dict__["step"] is original


def test_self_time_is_total_minus_children(fake_package):
    clock, work, _ = fake_package
    tracer = Tracer(_targets(), clock=clock)
    with tracer:
        assert work.outer() == "done"
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 6.0, 4.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (1, 2.0, 2.0)
    assert tracer.edges == {(ROOT, "outer"): [1, 6.0], ("outer", "inner"): [1, 2.0]}
    assert tracer.top_level_s() == 6.0


def test_recursion_is_not_double_counted(fake_package):
    clock, work, _ = fake_package
    tracer = Tracer(_targets(), clock=clock)
    with tracer:
        work.countdown(4)
    stats = tracer.stats["countdown"]
    assert (stats.calls, stats.total_s, stats.self_s) == (1, 5.0, 5.0)
    assert tracer.top_level_s() == 5.0


def test_methods_keys_and_quantiles(fake_package):
    clock, work, user = fake_package
    tracer = Tracer(_targets(), clock=clock)
    with tracer:
        assert work.Model().step(1.5) == 3.0
        for seconds in (1.0, 1.0, 4.0, 2.0):
            user.inner(seconds)
    assert tracer.stats["model.step"].total_s == 1.5
    inner = tracer.stats["inner"]
    assert (inner.calls, inner.distinct) == (4, 3)
    assert inner.quantile(0.9) == 4.0
    assert inner.quantile(0.5) == 1.0


def test_wrappers_pass_through_in_other_processes(fake_package, monkeypatch):
    clock, work, _ = fake_package
    tracer = Tracer(_targets(), clock=clock)
    with tracer, monkeypatch.context() as patch:
        patch.setattr(os, "getpid", lambda: -1)
        assert work.outer() == "done"
    assert tracer.stats["outer"].calls == 0
    assert tracer.edges == {}


def test_duplicate_span_names_are_refused():
    with pytest.raises(ValueError):
        Tracer([Target("a", "m", "f"), Target("a", "m", "g")])


# ------------------------------------------------------------------ checks
@pytest.fixture(scope="module")
def exports():
    """One small real export per mode."""
    scheme = get_scenario("campus_fig3", {"num_intervals": 1})
    playback = get_scenario(
        "multicell_campus", {"num_intervals": 2, "engine.channel_draw_mode": "grouped"}
    )
    return {
        "scheme": run_spec(scheme).to_dict(),
        "playback": run_spec(playback).to_dict(),
    }


def test_real_exports_pass(exports):
    assert check_export(exports["scheme"], per_cell=False) == []
    assert check_export(exports["playback"], per_cell=True) == []


def test_non_finite_export_fails(exports):
    corrupted = copy.deepcopy(exports["playback"])
    corrupted["intervals"][0]["actual_radio_blocks"] = float("nan")
    assert "not strict JSON" in check_export(corrupted, per_cell=True)[0]


def test_accuracy_outside_unit_interval_fails(exports):
    corrupted = copy.deepcopy(exports["scheme"])
    corrupted["intervals"][0]["radio_accuracy"] = 1.2
    assert check_export(corrupted, per_cell=False)


def test_summary_accuracy_must_be_the_interval_mean(exports):
    corrupted = copy.deepcopy(exports["scheme"])
    corrupted["summary"]["mean_computing_accuracy"] *= 0.5
    assert check_export(corrupted, per_cell=False)


def test_per_cell_demand_must_sum_to_the_total(exports):
    corrupted = copy.deepcopy(exports["playback"])
    corrupted["intervals"][1]["actual_radio_blocks"] += 1.0
    assert check_export(corrupted, per_cell=True)
    missing = copy.deepcopy(exports["playback"])
    missing["per_cell"] = {}
    assert check_export(missing, per_cell=True)


def test_digest_ignores_wall_clock_fields_only(exports):
    export = exports["playback"]
    timed = dict(export, elapsed_s=export["elapsed_s"] + 1.0, timing={})
    assert digest(timed) == digest(export)
    changed = copy.deepcopy(export)
    changed["intervals"][0]["total_traffic_bits"] += 1.0
    assert digest(changed) != digest(export)


# --------------------------------------------------------------- workloads
def test_workload_specs_follow_the_seed():
    for workload in WORKLOADS.values():
        assert workload.build(3) == workload.build(3)
        assert workload.build(3).seed == 3
        assert workload.build(3) != workload.build(4)


def test_sharded_churn_and_its_serial_twin():
    spec = WORKLOADS["sharded_churn"].build(1)
    (phase,) = spec.population.churn_phases
    assert (phase.arrivals_per_interval, phase.departures_per_interval) == (150, 150)
    assert spec.engine.playback_workers == 2 and spec.timeline == ()
    twin = serial_twin(spec)
    assert twin.engine.playback_workers == 1
    assert twin.engine.channel_draw_mode == "grouped"
    assert serial_twin(twin) == twin


# ------------------------------------------------------------- whole runs
@pytest.fixture(scope="module")
def tiny_runs():
    """One untraced and one traced run of a small scheme scenario."""
    workload = Workload(
        "tiny",
        lambda seed: get_scenario("campus_fig3", {"seed": seed, "num_intervals": 1}),
        per_cell=False,
    )
    spec = workload.build(5)
    return (
        bench.scenario_run(workload, spec, traced=False),
        bench.scenario_run(workload, spec, traced=True),
    )


def test_traced_run_reports_every_per_layer_metric(tiny_runs):
    untraced, traced = tiny_runs
    assert untraced["problems"] == traced["problems"] == []
    assert untraced["digest"] == traced["digest"]
    metrics = bench.per_layer_metrics([traced], [untraced])
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    layers = traced["layers"]
    assert layers["trace.unattributed_share"] <= 0.05
    assert layers["rl.env.grouping_state.calls"] > 0
    assert 0.0 < layers["rl.env.grouping_state.distinct_share"] <= 1.0
    # The tracer is gone again: by-name bindings point at the original.
    assert repro.core.grouping.grouping_state is repro.rl.env.grouping_state
    assert not hasattr(repro.rl.env.grouping_state, "__wrapped__")


def test_end_to_end_metrics_match_the_benchmark_file(tiny_runs):
    untraced, _ = tiny_runs
    assert 0.0 < untraced["setup_s"] < untraced["run_s"]
    metrics = bench.end_to_end_metrics([untraced], bench.peak_rss_mb())
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_stop_children_reaps_the_resource_tracker():
    """A shared-memory segment starts the tracker; stop_children must reap it."""
    script = """
import os, sys
from multiprocessing import resource_tracker, shared_memory
import run
segment = shared_memory.SharedMemory(create=True, size=8)
segment.close()
segment.unlink()
pid = resource_tracker._resource_tracker._pid
assert pid is not None
run.stop_children()
try:
    os.waitpid(pid, os.WNOHANG)
except ChildProcessError:
    sys.exit(0)
sys.exit(f"tracker {pid} is still a child")
"""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here), str(here.parent / "src")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
