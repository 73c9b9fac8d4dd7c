"""The benchmark's workloads: inputs from a seed, a sliced drive, and the
simulated statistics each run is checked and compared on.

Every workload runs the quorum router on a lossless ``planetlab_like``
underlay. A run is: set up (trace, churn/fault plan, ``build_overlay``,
schedule), drive the simulator in 0.25-simulated-second slices, then read
the simulated statistics and check the end state. Everything but the
host timings is deterministic per seed.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.onehop import best_one_hop_all_pairs
from repro.experiments import gossip_membership as gm
from repro.experiments.coordinator_failover import scenario_config
from repro.net.packet import KIND_PROBE
from repro.net.trace import planetlab_like
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.gossip import GossipMembershipPlane
from repro.overlay.harness import Overlay, build_overlay
from repro.overlay.stats import (
    GOSSIP_KINDS,
    KIND_MEMBERSHIP,
    KIND_MEMBERSHIP_CTRL,
    ROUTING_KINDS,
    DisruptionRecorder,
)
from repro.workloads.engine import ChurnWorkload
from repro.workloads.trace import ACTION_FAIL, ACTION_JOIN, ACTION_LEAVE, ChurnEvent, ChurnTrace

__all__ = [
    "WORKLOADS",
    "Instance",
    "ReferenceChunk",
    "Workload",
    "bytes_by_kind",
    "drive",
    "slice_ends",
    "summarize",
]

#: Host time is sampled once per this many simulated seconds.
SLICE_S = 0.25

#: One reference chunk runs between slices per this many simulator
#: events, so the chunks sample host speed in step with the drive's work.
REF_EVERY_EVENTS = 100

#: ``optimal_route_frac`` floor (runs read 0.92-0.98).
OPTIMAL_ROUTE_FLOOR = 0.90

#: Membership ops in ``churn-k3-n192``.
CHURN_OPS = 12

COORD_KINDS: Tuple[str, ...] = (KIND_MEMBERSHIP, KIND_MEMBERSHIP_CTRL)
ALL_KINDS: Tuple[str, ...] = (
    (KIND_PROBE,) + ROUTING_KINDS + COORD_KINDS + GOSSIP_KINDS
)


@dataclass
class Instance:
    """One set-up workload, ready to drive."""

    overlay: Overlay
    #: Simulated end of the run.
    horizon_s: float
    #: Host timing (``wall_s``) covers ``[timed_from_s, horizon_s)``.
    timed_from_s: float
    #: Traffic rates and slice percentiles cover ``[measure_from_s, horizon_s)``.
    measure_from_s: float
    #: Kinds counted as membership-plane bytes.
    plane_kinds: Tuple[str, ...]
    #: Time of the last churn op or fault edge.
    last_op_s: float
    recorder: Optional[DisruptionRecorder] = None
    #: Whether the end state must show one view and no open windows.
    must_converge: bool = False


@dataclass
class Drive:
    """Host-side measurements of one drive's timed window."""

    #: Process CPU seconds of the drive, reference chunks left out (the
    #: drive is single threaded, and CPU time leaves out the time a
    #: shared host spends running other processes).
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: Reference chunks run between slices and their total CPU seconds.
    ref_chunks: int = 0
    ref_cpu_s: float = 0.0
    slice_ms: List[float] = field(default_factory=list)
    pending_max: int = 0


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int], Instance]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _steady(seed: int) -> Instance:
    """Paper-default overlay at n=512 with one join and one leave.

    The two membership ops land early in the warm-up at seed-drawn
    times, so each run holds the same amount of view-change work and
    routes have two routing intervals to recover before the end-state
    route check. Timing covers the third and fourth routing intervals.
    """
    n = 512
    config = OverlayConfig()
    interval = config.routing_interval_s(RouterKind.QUORUM)
    rng = np.random.default_rng(seed)
    initial = np.sort(rng.choice(n, size=(3 * n) // 4, replace=False))
    standby = np.setdiff1d(np.arange(n), initial)
    times = np.sort(rng.uniform(2.0, 10.0, size=2))
    kinds = [ACTION_JOIN, ACTION_LEAVE]
    rng.shuffle(kinds)
    nodes = {ACTION_JOIN: int(rng.choice(standby)), ACTION_LEAVE: int(rng.choice(initial))}
    horizon = 4.0 * interval
    churn = ChurnTrace(
        n=n,
        initial_active=tuple(int(i) for i in initial),
        events=tuple(
            ChurnEvent(time=float(t), action=a, node=nodes[a])
            for t, a in zip(times, kinds)
        ),
        duration_s=horizon,
    )
    net = planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)
    overlay = build_overlay(
        trace=net,
        router=RouterKind.QUORUM,
        rng=rng,
        config=config,
        with_freshness=False,
        active_members=churn.initial_active,
    )
    apply = {ACTION_JOIN: overlay.join_node, ACTION_LEAVE: overlay.leave_node}
    for ev in churn.events:
        overlay.sim.schedule_at(ev.time, apply[ev.action], ev.node)
    return Instance(
        overlay=overlay,
        horizon_s=horizon,
        timed_from_s=2.0 * interval,
        measure_from_s=2.0 * interval,
        plane_kinds=COORD_KINDS,
        last_op_s=float(times[-1]),
    )


def _balanced_poisson(n: int, seed: int) -> ChurnTrace:
    """Poisson churn at 0.2/s over [60 s, 120 s), conditioned on its
    mean count: CHURN_OPS ops at uniform times, half joins, a quarter
    graceful leaves and a quarter crashes, in seed-drawn order on
    seed-drawn nodes. Fixing the count and mix keeps the population, and
    with it the work per run, from drifting with the seed."""
    rng = np.random.default_rng(seed)
    active = set(rng.choice(n, size=(3 * n) // 4, replace=False).tolist())
    initial = tuple(sorted(active))
    standby = sorted(set(range(n)) - active)
    times = np.sort(rng.uniform(60.0, 120.0, size=CHURN_OPS))
    quarter = CHURN_OPS // 4
    actions = [ACTION_JOIN] * (CHURN_OPS - 2 * quarter) + [ACTION_LEAVE] * quarter + [ACTION_FAIL] * quarter
    events = []
    for t, action in zip(times, rng.permutation(actions)):
        if action == ACTION_JOIN:
            node = standby.pop(int(rng.integers(len(standby))))
            active.add(node)
        else:
            pool = sorted(active)
            node = pool[int(rng.integers(len(pool)))]
            active.discard(node)
            if action == ACTION_LEAVE:
                standby.append(node)
                standby.sort()
        events.append(ChurnEvent(time=float(t), action=str(action), node=node))
    return ChurnTrace(n=n, initial_active=initial, events=tuple(events), duration_s=120.0)


def _churn_k3(seed: int) -> Instance:
    """Replicated in-band coordinators (k=3) at n=192 under Poisson churn."""
    n = 192
    churn = _balanced_poisson(n, seed)
    rng = np.random.default_rng(seed)
    net = planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)
    overlay = build_overlay(
        trace=net,
        router=RouterKind.QUORUM,
        rng=rng,
        config=scenario_config(k=3),
        with_freshness=False,
        active_members=churn.initial_active,
    )
    workload = ChurnWorkload(overlay, churn, sample_period_s=gm.SAMPLE_PERIOD_S)
    recorder = workload.install()
    return Instance(
        overlay=overlay,
        horizon_s=300.0,
        timed_from_s=0.0,
        measure_from_s=gm.MEASURE_FROM_S,
        plane_kinds=COORD_KINDS,
        last_op_s=max((ev.time for ev in churn.events), default=0.0),
        recorder=recorder,
        must_converge=True,
    )


def _gossip_rack(seed: int) -> Instance:
    """The gossip suite's rack-crash-outage scenario at n=96."""
    n = 96
    trace, _, outage_rack = gm._rack_layout(n, seed, gm._coordinator_hosts(n))
    outage = (200.0, 380.0)
    plan = gm.FaultPlan().add_churn(trace)
    plan.node_outage(outage[0], outage[1], outage_rack)
    rng = np.random.default_rng(seed)
    net = planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)
    overlay = build_overlay(
        trace=net,
        router=RouterKind.QUORUM,
        rng=rng,
        config=gm.gossip_config(),
        failures=plan.failure_table(n),
        with_freshness=False,
    )
    plan.install(overlay)
    recorder = overlay.attach_disruption(gm.SAMPLE_PERIOD_S)
    return Instance(
        overlay=overlay,
        horizon_s=600.0,
        timed_from_s=0.0,
        measure_from_s=gm.MEASURE_FROM_S,
        plane_kinds=GOSSIP_KINDS,
        last_op_s=max([ev.time for ev in trace.events] + [outage[1]]),
        recorder=recorder,
        must_converge=True,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "steady-n512",
            "paper-default n=512 routing path (recommendations + failover ~80% "
            "of host time); idle membership plane, so it bypasses gossip work",
            _steady,
        ),
        Workload(
            "churn-k3-n192",
            "write side of membership: every churn op is an in-band ViewDelta all "
            "nodes apply, under replicated coordinators; bypasses full-view rebuilds",
            _churn_k3,
        ),
        Workload(
            "gossip-rack-n96",
            "the only workload running overlay.gossip (rack crash + link outage, "
            "O(n) digests, failover adoptions); router comparatively small",
            _gossip_rack,
        ),
    )
}


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def slice_ends(start: float, end: float) -> List[float]:
    """Slice boundaries from ``start`` to ``end`` (both on the grid's
    float values, so repeated drives hit identical instants)."""
    k0 = int(np.floor(start / SLICE_S + 1e-9)) + 1
    k1 = int(np.ceil(end / SLICE_S - 1e-9))
    return [k * SLICE_S for k in range(k0, k1)] + [end]


class ReferenceChunk:
    """A fixed piece of host work: float updates of a dict in the
    interpreter plus row/column numpy calls on a 2 MB matrix, the mix the
    simulator and the n=512 router run.

    Its CPU time, sampled between slices, tracks how fast the shared
    host runs the drive at that moment. A call allocates no container
    objects, so it cannot set off a garbage collection of the drive's
    heap.
    """

    __slots__ = ("table", "matrix")

    def __init__(self) -> None:
        self.table = dict.fromkeys(range(96), 0.0)
        self.matrix = np.linspace(0.0, 1.0, 512 * 512).reshape(512, 512)

    def __call__(self) -> float:
        table, matrix = self.table, self.matrix
        acc = 0.0
        for r in range(8):
            for k in table:
                table[k] = k * r + acc
            acc += float(np.min(matrix[r * 64] + matrix[:, r * 64])) * 1e-9
        return acc


def drive(
    inst: Instance,
    on_timed: Optional[Callable[[bool], None]] = None,
) -> Drive:
    """Run ``inst`` to its horizon in slices, timing the timed window.

    ``on_timed(True)`` / ``on_timed(False)`` bracket the timed window
    (the traced run snapshots its span totals there). One
    :class:`ReferenceChunk` call runs between slices per
    ``REF_EVERY_EVENTS`` simulator events; its time is kept out of
    ``cpu_s`` and ``wall_s``.
    """
    sim = inst.overlay.sim
    if inst.timed_from_s > sim.now:
        sim.run_until(inst.timed_from_s)
    gc.collect()
    out = Drive()
    chunk = ReferenceChunk()
    if on_timed is not None:
        on_timed(True)
    ref_due = sim.events_run + REF_EVERY_EVENTS
    ref_wall_s = 0.0
    c0, t0 = time.process_time(), time.perf_counter()
    for end in slice_ends(sim.now, inst.horizon_s):
        ts = time.perf_counter()
        sim.run_until(end)
        if end > inst.measure_from_s:
            out.slice_ms.append((time.perf_counter() - ts) * 1e3)
            depth = sim.pending() + sim.cancelled_pending
            if depth > out.pending_max:
                out.pending_max = depth
        while sim.events_run >= ref_due:
            rc, rt = time.process_time(), time.perf_counter()
            chunk()
            out.ref_cpu_s += time.process_time() - rc
            ref_wall_s += time.perf_counter() - rt
            out.ref_chunks += 1
            ref_due += REF_EVERY_EVENTS
    out.cpu_s = time.process_time() - c0 - out.ref_cpu_s
    out.wall_s = time.perf_counter() - t0 - ref_wall_s
    if on_timed is not None:
        on_timed(False)
    return out


# ----------------------------------------------------------------------
# Simulated statistics
# ----------------------------------------------------------------------
def _optimal_route_frac(overlay: Overlay) -> float:
    """Share of live ordered pairs whose chosen route's true RTT equals
    the best one-hop route among live members on the current underlay."""
    mask = overlay.started_mask()
    ids = np.nonzero(mask)[0]
    k = ids.size
    if k < 2:
        return 0.0
    t = overlay.sim.now
    topo = overlay.topology
    pos = np.full(overlay.n, -1, dtype=np.int64)
    pos[ids] = np.arange(k)
    w = topo.rtt_matrix_ms[np.ix_(ids, ids)].copy()
    for a, i in enumerate(ids):
        down = ~topo.up_vector(int(i), t)[ids]
        w[a, down] = np.inf
        w[down, a] = np.inf
    np.fill_diagonal(w, 0.0)
    best, _ = best_one_hop_all_pairs(w)
    optimal = 0
    for a, s in enumerate(ids):
        router = overlay.nodes[int(s)].router
        members = router.member_ids
        hops_v, usable_v = router.route_vector()
        d_pos = pos[members]
        h_pos = pos[members[np.clip(hops_v, 0, None)]]
        sel = usable_v & (d_pos >= 0) & (d_pos != a) & (h_pos >= 0)
        d, h = d_pos[sel], h_pos[sel]
        direct = (h == d) | (h == a)
        cost = np.where(direct, w[a, d], w[a, h] + w[h, d])
        optimal += int(np.count_nonzero(np.isclose(cost, best[a, d], rtol=1e-12, atol=1e-9)))
    return optimal / float(k * (k - 1))


def _convergence_s(inst: Instance) -> float:
    """Seconds from the last op to the close of the last per-member
    divergence window (0 when every window closed before it)."""
    if inst.recorder is None:
        return 0.0
    ends = [end for _, _, end in inst.recorder.member_divergence_windows()]
    return max([0.0] + [end - inst.last_op_s for end in ends])


def summarize(inst: Instance) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """``(metrics, counts, problems)`` of a finished run.

    ``metrics`` are the simulated end-to-end statistics; ``counts`` are
    deterministic per-layer counts (also the fingerprint the traced and
    untraced runs must share); ``problems`` lists failed checks.
    """
    overlay = inst.overlay
    sim, transport, bw = overlay.sim, overlay.transport, overlay.bandwidth
    t0, t1 = inst.measure_from_s, inst.horizon_s
    span = t1 - t0
    ok, mask = overlay.route_ok_matrix()
    live = int(mask.sum())
    attempted = live * (live - 1)
    failed = attempted - int(ok[np.ix_(mask, mask)].sum())
    metrics = {
        "routing_Bps_node": float(bw.bytes_per_node(ROUTING_KINDS, t0, t1).mean()) / span,
        # The membership plane is idle between ops, so its cost is
        # taken over the whole run.
        "membership_Bps_node": float(bw.bytes_per_node(inst.plane_kinds, 0.0, t1).mean()) / t1,
        "optimal_route_frac": _optimal_route_frac(overlay),
    }
    started = [overlay.nodes[i] for i in sorted(overlay.active) if overlay.nodes[i].started]
    counts: Dict[str, float] = {
        "attempted": attempted,
        "failed": failed,
        "net.simulator.events": sim.events_run,
        "net.simulator.compactions": sim.compactions,
        "net.transport.sent": transport.sent_count,
        "net.transport.delivered": transport.delivered_count,
        "net.transport.lost": transport.sent_count - transport.delivered_count,
        "net.transport.coalesced_frac": (
            transport.coalesced_count / transport.delivered_count
            if transport.delivered_count
            else 0.0
        ),
        "overlay.linkstate.table_bytes_max": max(
            (node.router.table.nbytes() for node in started), default=0
        ),
        "overlay.harness.convergence_s": _convergence_s(inst),
        "dropped_stale_view": sum(node.router.dropped_stale_view for node in overlay.nodes),
    }
    for kind, total in sorted(bytes_by_kind(overlay).items()):
        counts[f"bytes.{kind}"] = total
    gossip: Dict[str, int] = {}
    if isinstance(overlay.membership, GossipMembershipPlane):
        gossip = overlay.membership.merged_stats().as_dict()
    counts["overlay.gossip.refutes"] = gossip.get("refutes", 0)
    counts["overlay.gossip.expiries"] = gossip.get("expiries", 0)

    problems: List[str] = []
    if failed:
        problems.append(f"{failed} of {attempted} live-pair route lookups fail")
    if inst.must_converge:
        versions = overlay.view_versions()[sorted(overlay.active)]
        if versions.size == 0 or versions.min() < 0 or versions.min() != versions.max():
            problems.append("live nodes do not end on one view")
        assert inst.recorder is not None
        if inst.recorder.open_disruptions():
            problems.append(f"{inst.recorder.open_disruptions()} disruptions still open")
        if inst.recorder.member_divergence_summary()["open_members"]:
            problems.append("per-member divergence windows still open")
        if inst.recorder.open_divergence_since() is not None:
            problems.append("view divergence window still open")
    if metrics["optimal_route_frac"] < OPTIMAL_ROUTE_FLOOR:
        problems.append(
            f"optimal_route_frac {metrics['optimal_route_frac']:.4f} "
            f"below floor {OPTIMAL_ROUTE_FLOOR}"
        )
    for name, value in metrics.items():
        if not value > 0:
            problems.append(f"{name} is {value}, expected > 0")
    return metrics, counts, problems


def bytes_by_kind(overlay: Overlay) -> Dict[str, int]:
    """Whole-run byte totals (in+out over all nodes) per message kind."""
    bw = overlay.bandwidth
    return {kind: int(bw.bytes_per_node((kind,)).sum()) for kind in ALL_KINDS}
