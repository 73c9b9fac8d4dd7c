"""Perf experiments: wall-clock, throughput, and memory at scale.

The paper's claim is architectural — O(sqrt(n)) rows of state per node
and O(n^1.5) total communication — and PR 4 makes the emulation cost
what the paper says it should: row-sparse link-state tables, cached
cost rows, vectorized min-plus kernels, and coalesced delivery events.
This module *proves it at scale* and leaves a tracked record:

* :func:`run_scale_suite` — full quorum overlays (monitors, two-round
  protocol, Poisson churn) at n up to 4096, reporting wall-clock,
  simulator events/s, transport counts, routing bytes, peak RSS, and
  the per-node link-state memory high-water mark against its dense
  O(n^2) counterfactual.
* :func:`time_churn_reference` — the fixed n=256 churn-comparison
  workload used as the cross-PR speedup yardstick
  (:data:`CHURN_N256_BASELINE_WALL_S` is the pre-PR4 measurement).
* :func:`run_perf_suite` — both of the above, as emitted into
  ``BENCH_PR4.json`` by ``python -m repro perf``.

Runs here are about *cost*, not protocol behavior, so they skip the
O(n^2)-per-sample ground-truth disruption sampling and instead do one
route-quality spot check at the end (bulk ``route_vector`` over sampled
sources).
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.net.trace import planetlab_like
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.stats import ROUTING_KINDS
from repro.workloads import ChurnTrace

__all__ = [
    "CHURN_N256_BASELINE_WALL_S",
    "PerfRunStats",
    "PerfSuiteResult",
    "run_overlay_at_scale",
    "run_scale_suite",
    "run_perf_suite",
    "time_churn_reference",
]

#: Wall-clock seconds of :func:`time_churn_reference` measured on the
#: pre-PR4 tree (commit 91521e2) on the machine that produced the
#: committed ``BENCH_PR4.json``. The acceptance bar for PR 4 was a
#: >= 3x speedup against this number on the same host. Two pre-PR4
#: measurements were taken (201.7s, then 175.3s back-to-back with the
#: post-PR4 runs); the smaller, conditions-matched one is recorded so
#: the reported speedup is conservative.
CHURN_N256_BASELINE_WALL_S = 175.29

#: Simulated seconds per scale run: three quorum routing intervals —
#: enough for rows to propagate (tick 1), recommendations to form
#: (tick 2), and a steady-state interval to be measured (tick 3).
SCALE_DURATION_S = 45.0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: ru_maxrss
    is reported in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PerfRunStats:
    """Measurements of one full-overlay scale run."""

    n: int
    sim_duration_s: float
    wall_s: float
    events: int
    events_per_s: float
    transport_sent: int
    transport_delivered: int
    transport_coalesced: int
    routing_mbytes: float
    churn_events: int
    peak_rss_mb: float
    #: Largest per-node link-state table (bytes) at the end of the run.
    linkstate_bytes_max: int
    #: What one dense n x n table would cost (latency+loss float64,
    #: alive bool, row_time/version) — the pre-PR4 per-node footprint.
    linkstate_bytes_dense: int
    #: Largest per-node §4.1 failover state (bytes) at the end of the
    #: run: O(sqrt(n)) float rows of length n, one per recommending
    #: server, plus O(n) per-destination columns.
    failover_bytes_max: int
    #: Fraction of sampled (source, destination) pairs with a usable
    #: route at the end of the run (sanity: the overlay actually routes).
    route_usable_frac: float


def run_overlay_at_scale(
    n: int,
    duration_s: float = SCALE_DURATION_S,
    seed: int = 42,
    churn_rate_per_s: float = 0.05,
    sample_sources: int = 64,
) -> PerfRunStats:
    """One full quorum overlay run at size ``n`` under light churn.

    The whole stack is live — per-node monitors probing all peers,
    the two-round protocol on the datagram transport, and a Poisson
    join/leave/crash trace — but no O(n^2) instrumentation sampling.
    """
    rng = np.random.default_rng(seed)
    churn = ChurnTrace.poisson(
        n=n,
        rate_per_s=churn_rate_per_s,
        duration_s=duration_s,
        seed=seed,
        crash_fraction=0.5,
        warmup_s=min(30.0, duration_s / 2.0),
    )
    net = planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)
    overlay = build_overlay(
        trace=net,
        router=RouterKind.QUORUM,
        rng=rng,
        config=OverlayConfig(),
        with_freshness=False,
        active_members=churn.initial_active,
    )
    sim = overlay.sim
    apply = {
        "join": overlay.join_node,
        "leave": overlay.leave_node,
        "fail": overlay.fail_node,
    }
    for ev in churn.events:
        sim.schedule_at(ev.time, apply[ev.action], ev.node)

    t0 = time.perf_counter()  # reprolint: disable=RL001(wall-clock here measures the simulator itself; it never feeds simulated state)
    overlay.run(duration_s)
    wall = time.perf_counter() - t0  # reprolint: disable=RL001(wall-clock here measures the simulator itself; it never feeds simulated state)

    # Route-quality spot check over a sample of live sources.
    started = np.nonzero(overlay.started_mask())[0]
    usable_pairs = 0
    total_pairs = 0
    for s in started[: min(sample_sources, started.size)]:
        router = overlay.nodes[int(s)].router
        _, usable = router.route_vector()
        members_live = overlay.started_mask()[router.member_ids]
        members_live[router.me_idx] = False
        usable_pairs += int((usable & members_live).sum())
        total_pairs += int(members_live.sum())

    table_bytes = [
        overlay.nodes[int(i)].router.table.nbytes() for i in started
    ]
    failover_bytes = [
        overlay.nodes[int(i)].router.failover.nbytes() for i in started
    ]
    dense_bytes = n * n * (8 + 8 + 1) + n * (8 + 8)
    routing_bytes = int(overlay.bandwidth.bytes_per_node(ROUTING_KINDS).sum())
    transport = overlay.transport
    return PerfRunStats(
        n=n,
        sim_duration_s=duration_s,
        wall_s=round(wall, 3),
        events=sim.events_run,
        events_per_s=round(sim.events_run / wall, 1) if wall > 0 else 0.0,
        transport_sent=transport.sent_count,
        transport_delivered=transport.delivered_count,
        transport_coalesced=transport.coalesced_count,
        routing_mbytes=round(routing_bytes / 1e6, 2),
        churn_events=len(churn.events),
        peak_rss_mb=round(_peak_rss_mb(), 1),
        linkstate_bytes_max=max(table_bytes) if table_bytes else 0,
        linkstate_bytes_dense=dense_bytes,
        failover_bytes_max=max(failover_bytes) if failover_bytes else 0,
        route_usable_frac=(
            round(usable_pairs / total_pairs, 4) if total_pairs else 0.0
        ),
    )


@dataclass
class PerfSuiteResult:
    """Everything ``BENCH_PR4.json`` records."""

    smoke: bool
    seed: int
    runs: List[PerfRunStats]
    churn_reference: Optional[Dict[str, float]]

    def format_table(self) -> str:
        rows = []
        for r in self.runs:
            rows.append(
                [
                    r.n,
                    f"{r.sim_duration_s:g}",
                    f"{r.wall_s:.1f}",
                    f"{r.events_per_s:,.0f}",
                    f"{r.transport_sent:,}",
                    f"{r.transport_coalesced:,}",
                    f"{r.routing_mbytes:.1f}",
                    f"{r.linkstate_bytes_max / 1e6:.2f}",
                    f"{r.linkstate_bytes_dense / 1e6:.2f}",
                    f"{r.peak_rss_mb:,.0f}",
                    f"{r.route_usable_frac:.3f}",
                ]
            )
        return render_table(
            [
                "n",
                "sim_s",
                "wall_s",
                "events/s",
                "sent",
                "coalesced",
                "route_MB",
                "table_MB",
                "dense_MB",
                "rss_MB",
                "routable",
            ],
            rows,
            title=(
                "Perf scaling — full quorum overlay (monitors + two-round "
                "protocol + Poisson churn); table_MB = largest per-node "
                "link-state store vs its dense n^2 counterfactual "
                "(dense_MB); routable = sampled pairs with usable routes"
            ),
        )

    def to_json(self) -> str:
        payload = {
            "bench": "PR4 hot-path overhaul",
            "smoke": self.smoke,
            "seed": self.seed,
            "scale_runs": [asdict(r) for r in self.runs],
            "churn_n256_reference": self.churn_reference,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def time_churn_reference(seed: int = 42) -> Dict[str, float]:
    """Run and time the fixed n=256 churn-comparison workload.

    This is the cross-PR yardstick: identical arguments to what was
    measured on the pre-PR4 tree (:data:`CHURN_N256_BASELINE_WALL_S`).
    """
    from repro.experiments.churn import run_churn_comparison

    t0 = time.perf_counter()  # reprolint: disable=RL001(wall-clock here measures the simulator itself; it never feeds simulated state)
    run_churn_comparison(n=256, rate_per_s=0.05, duration_s=300.0, seed=seed)
    wall = time.perf_counter() - t0  # reprolint: disable=RL001(wall-clock here measures the simulator itself; it never feeds simulated state)
    return {
        "workload": (
            "run_churn_comparison(n=256, rate_per_s=0.05, "
            f"duration_s=300.0, seed={seed})"
        ),
        "baseline_wall_s": CHURN_N256_BASELINE_WALL_S,
        "baseline_ref": "pre-PR4 tree (commit 91521e2), same host",
        "current_wall_s": round(wall, 2),
        "speedup": round(CHURN_N256_BASELINE_WALL_S / wall, 2),
    }


def run_scale_suite(
    sizes: Sequence[int] = (1024, 2048, 4096),
    duration_s: float = SCALE_DURATION_S,
    seed: int = 42,
) -> List[PerfRunStats]:
    """Scale runs for each ``n`` in ``sizes`` (ascending cost order)."""
    return [
        run_overlay_at_scale(n, duration_s=duration_s, seed=seed)
        for n in sizes
    ]


def run_perf_suite(
    sizes: Sequence[int] = (1024, 2048, 4096),
    duration_s: float = SCALE_DURATION_S,
    seed: int = 42,
    smoke: bool = False,
    with_churn_reference: bool = True,
) -> PerfSuiteResult:
    """The ``python -m repro perf`` deliverable.

    Smoke mode (CI) runs a single n=256 overlay and skips the ~minutes
    churn-comparison reference timing.
    """
    if smoke:
        sizes = (256,)
        with_churn_reference = False
    # The reference is a *wall-clock* yardstick: time it before the
    # scale runs, while the process heap is still small — after a
    # multi-GB n=4096 run, allocator fragmentation and cache pressure
    # inflate it by >2x and the speedup number becomes meaningless.
    reference = time_churn_reference(seed=seed) if with_churn_reference else None
    runs = run_scale_suite(sizes, duration_s=duration_s, seed=seed)
    return PerfSuiteResult(
        smoke=smoke, seed=seed, runs=runs, churn_reference=reference
    )
