"""The benchmark's self-tests and its published-table gate.

``quick()`` runs in every traced run; ``main()`` is
``python3 perfbench/run.py --check``. Each test returns a list of
problems (empty when it passes).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.experiments import gossip_membership as gm
from repro.experiments.coordinator_failover import scenario_config
from repro.net.simulator import Simulator
from repro.net.trace import planetlab_like
from repro.overlay.config import RouterKind
from repro.overlay.harness import Overlay, build_overlay
from repro.workloads.engine import ChurnWorkload
from repro.workloads.trace import ChurnTrace

import layers
import workloads
from spans import MetricNameError, SpanRecorder, Tracer, check_metric_name

ROOT = Path(__file__).resolve().parent.parent
GOSSIP_TABLE = ROOT / "results" / "table_gossip_membership.txt"


class _FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _expect(problems: List[str], cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def test_self_time() -> List[str]:
    """Self time with nested and back-to-back children."""
    p: List[str] = []
    clock = _FakeClock()
    rec = SpanRecorder(clock=clock, keep=True)
    rec.open("outer")
    clock.advance(1.0)
    rec.open("child")  # back-to-back child 1
    clock.advance(2.0)
    rec.open("grandchild")  # nested inside child 1
    clock.advance(0.5)
    rec.close()
    clock.advance(0.25)
    rec.close()
    rec.open("child")  # back-to-back child 2
    clock.advance(3.0)
    rec.close()
    clock.advance(0.125)
    rec.close()
    _expect(p, rec.stats["outer"] == [1, 6.875, 1.125], f"outer stats {rec.stats['outer']}")
    _expect(p, rec.stats["child"] == [2, 5.75, 5.25], f"child stats {rec.stats['child']}")
    _expect(p, rec.stats["grandchild"] == [1, 0.5, 0.5], f"grandchild stats {rec.stats['grandchild']}")
    _expect(p, rec.top_s == 6.875, f"top_s {rec.top_s}")
    by_name = {(r.name, r.start): r for r in rec.records}
    outer = rec.records.index(by_name[("outer", 0.0)])
    _expect(p, by_name[("child", 1.0)].parent == outer, "child 1 parent")
    _expect(p, by_name[("child", 3.75)].parent == outer, "child 2 parent")
    child1 = rec.records.index(by_name[("child", 1.0)])
    _expect(p, by_name[("grandchild", 3.0)].parent == child1, "grandchild parent")
    _expect(p, rec.depth == 0, "stack not empty")
    return [f"self-time: {x}" for x in p]


class _Layer:
    """A stand-in layer for the trace-id test."""

    def __init__(self, sim: Simulator, log: List[int]):
        self.sim = sim
        self.log = log

    def handle(self, x: int) -> int:
        self.log.append(x)
        return self.inner(x) + 1

    def inner(self, x: int) -> int:
        return 2 * x

    def on_tick(self) -> None:
        self.handle(self.sim.events_run)


def test_trace_ids() -> List[str]:
    """Spans of one simulator event share its trace id; wrappers return
    what they wrap; uninstall restores the classes."""
    p: List[str] = []
    rec = SpanRecorder(keep=True)
    original = (_Layer.handle, Simulator.schedule, Simulator.schedule_at, Simulator.periodic)
    log: List[int] = []
    with Tracer(rec) as tracer:
        tracer.wrap_simulator(Simulator)
        tracer.wrap_class(_Layer, "testlayer")
        sim = Simulator()
        layer = _Layer(sim, log)
        _expect(p, layer.handle(3) == 7, "wrapped method changed its return value")
        sim.schedule(1.0, layer.on_tick)
        sim.schedule_at(2.0, layer.handle, 10)
        timer = sim.periodic(5.0, layer.on_tick, phase=0.5)
        sim.run_until(11.0)
        timer.stop()
    _expect(
        p,
        (_Layer.handle, Simulator.schedule, Simulator.schedule_at, Simulator.periodic) == original,
        "uninstall left wrappers behind",
    )
    _expect(p, log == [3, 1, 2, 10, 4, 5], f"event order/log {log}")
    groups = rec.by_trace()
    for tid, spans in groups.items():
        roots = [r for r in spans if r.parent is None]
        _expect(p, len(roots) == 1, f"trace {tid} has {len(roots)} root spans")
        for r in spans:
            if r.parent is not None:
                _expect(p, rec.records[r.parent].trace_id == tid, f"trace {tid} parent crosses ids")
    # Event 1 (t=0.5): periodic fire -> on_tick -> handle -> inner.
    names = [r.name for r in groups.get(1, [])]
    _expect(
        p,
        names == [
            "net.simulator.fire",
            "testlayer.on_tick",
            "testlayer.handle",
            "testlayer.inner",
        ],
        f"trace 1 spans {names}",
    )
    return [f"trace-ids: {x}" for x in p]


def test_metric_names() -> List[str]:
    p: List[str] = []
    for good in ("wall_s", "overlay.router_quorum.tick.self_s", "mem.net.trace_mb", "a-b.c_1"):
        try:
            check_metric_name(good)
        except MetricNameError:
            p.append(f"rejected valid name {good!r}")
    for bad in ("", "wall s", "x/y", "_lead", "é", "a" * 65, "tick(self)", "a:b"):
        try:
            check_metric_name(bad)
            p.append(f"accepted invalid name {bad!r}")
        except MetricNameError:
            pass
    return [f"metric-names: {x}" for x in p]


def _small_overlay(seed: int) -> Overlay:
    """k=3 replicated coordinators at n=24 under Poisson churn."""
    n = 24
    churn = ChurnTrace.poisson(n=n, rate_per_s=0.2, duration_s=60.0, seed=seed, warmup_s=20.0)
    rng = np.random.default_rng(seed)
    overlay = build_overlay(
        trace=planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0),
        router=RouterKind.QUORUM,
        rng=rng,
        config=scenario_config(k=3),
        with_freshness=False,
        active_members=churn.initial_active,
    )
    ChurnWorkload(overlay, churn).install()
    return overlay


def _fingerprint(overlay: Overlay) -> Dict[str, object]:
    t = overlay.transport
    return {
        "events": overlay.sim.events_run,
        "sent": t.sent_count,
        "delivered": t.delivered_count,
        "coalesced": t.coalesced_count,
        "bytes": workloads.bytes_by_kind(overlay),
        "versions": overlay.view_versions().tolist(),
    }


def test_sliced_drive(horizon: float = 120.0) -> List[str]:
    """Slicing ``run_until`` changes no event, send or byte count."""
    whole = _small_overlay(5)
    whole.sim.run_until(horizon)
    sliced = _small_overlay(5)
    for end in workloads.slice_ends(0.0, horizon):
        sliced.sim.run_until(end)
    a, b = _fingerprint(whole), _fingerprint(sliced)
    if a != b:
        return [f"sliced-drive: {k} differs" for k in a if a[k] != b[k]]
    return []


def test_traced_equals_untraced(horizon: float = 120.0) -> List[str]:
    """The full layer tracing changes no simulated statistic."""
    plain = _small_overlay(7)
    for end in workloads.slice_ends(0.0, horizon):
        plain.sim.run_until(end)
    rec = SpanRecorder()
    with Tracer(rec) as tracer:
        layers.install(tracer, layers.ViewCounter())
        traced = _small_overlay(7)
        for end in workloads.slice_ends(0.0, horizon):
            traced.sim.run_until(end)
    p = []
    a, b = _fingerprint(plain), _fingerprint(traced)
    if a != b:
        p += [f"traced-equals-untraced: {k} differs" for k in a if a[k] != b[k]]
    if not rec.stats:
        p.append("traced-equals-untraced: no spans recorded")
    return p


def test_benchmark_json() -> List[str]:
    """BENCHMARK.json names exactly what the benchmark prints."""
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        p.append("workload names differ")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        p.append("end_to_end names/units differ")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(layers.PER_LAYER):
        p.append("per_layer names/units differ")
    return [f"BENCHMARK.json: {x}" for x in p]


def test_gossip_table_row() -> List[str]:
    """gossip-rack at n=64, seed 42 reproduces the committed table row."""
    result = gm._rack_crash_outage(64, 42, gm.PLANE_GOSSIP)
    ours = gm.format_gossip_scenarios([result]).splitlines()[-1].split()
    committed = [
        line.split()
        for line in GOSSIP_TABLE.read_text().splitlines()
        if line.split()[:2] == ["rack-crash-outage", gm.PLANE_GOSSIP]
    ]
    if committed != [ours]:
        return [f"gossip-table-row: got {ours}, committed {committed}"]
    return []


QUICK: List[Callable[[], List[str]]] = [
    test_self_time,
    test_trace_ids,
    test_metric_names,
    test_sliced_drive,
]


def quick(gate: bool = False) -> List[str]:
    problems: List[str] = []
    for test in QUICK + ([test_gossip_table_row] if gate else []):
        problems += test()
    return problems


def main() -> int:
    tests = QUICK + [test_traced_equals_untraced, test_benchmark_json, test_gossip_table_row]
    failed = 0
    for test in tests:
        problems = test()
        status = "ok" if not problems else "FAIL"
        print(f"{test.__name__}: {status}", flush=True)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        failed += bool(problems)
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed", flush=True)
    return 1 if failed else 0
