"""Which layers the traced run wraps, and the per-layer metrics it reports.

Layer names are the package's module names without the ``repro.``
prefix. :data:`PER_LAYER` is the fixed list every traced run prints
(a layer a workload never enters reports 0).
"""

from __future__ import annotations

import collections
import statistics
import sys
import types
from typing import Any, Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.core.failover import FailoverManager
from repro.core.grid import GridQuorum
from repro.net.simulator import Simulator
from repro.net.transport import DatagramTransport
from repro.overlay.coordination import Coordinator, CoordinatorGroup
from repro.overlay.gossip import GossipMembershipNode, GossipMembershipPlane
from repro.overlay.harness import Overlay
from repro.overlay.linkstate import SparseLinkStateTable
from repro.overlay.membership import MembershipService
from repro.overlay.monitor import LinkMonitor
from repro.overlay.node import OverlayNode
from repro.overlay.router_quorum import QuorumRouter
from repro.overlay.stats import DisruptionRecorder

from spans import Tracer, check_metric_name

__all__ = ["LAYERS", "PER_LAYER", "ViewCounter", "heap_by_module", "install", "per_layer_metrics"]

#: Layers whose self-time share is reported (``share.<layer>``).
LAYERS: Tuple[str, ...] = (
    "overlay.router_quorum",
    "core.failover",
    "overlay.linkstate",
    "core.grid",
    "overlay.gossip",
    "overlay.membership",
    "overlay.coordination",
    "overlay.node",
    "overlay.monitor",
    "net.transport",
    "net.simulator",
    "overlay.harness",
    "overlay.stats",
    "other",
)

#: Modules whose end-of-run heap is reported (``mem.<module>_mb``).
HEAP_MODULES: Tuple[str, ...] = (
    "core.failover",
    "core.grid",
    "overlay.linkstate",
    "overlay.router_quorum",
    "overlay.router_base",
    "overlay.node",
    "overlay.monitor",
    "overlay.gossip",
    "overlay.membership",
    "overlay.coordination",
    "overlay.stats",
    "net.simulator",
    "net.transport",
    "net.topology",
    "net.trace",
    "net.packet",
)

_SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "overlay.router_quorum",
        ("tick", "on_recommendation", "on_linkstate", "on_view_change", "on_view_delta", "route_vector"),
    ),
    ("core.failover", ("poll", "note_recommendations")),
    ("overlay.linkstate", ("update_row", "cost_matrix")),
    ("overlay.gossip", ("gossip_tick", "on_message")),
    # The single-coordinator service's own message handler only runs in
    # band, which no workload configures; ``handle_refresh`` is its hot path.
    ("overlay.membership", ("handle_refresh", "join", "leave")),
    ("overlay.coordination", ("handle_message", "join", "leave")),
    ("overlay.node", ("on_message", "on_view")),
    ("overlay.monitor", ("probe_round",)),
    ("net.transport", ("send",)),
    ("overlay.harness", ("route_ok_matrix",)),
)


def _metric_list() -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for layer, ops in _SPANS:
        for op in ops:
            out.append((f"{layer}.{op}.calls", "count"))
            out.append((f"{layer}.{op}.self_s", "s"))
    out += [
        ("overlay.router_quorum.stale_drop_frac", "frac"),
        ("core.failover.adoptions", "count"),
        ("overlay.linkstate.table_bytes_max", "bytes"),
        ("core.grid.builds", "count"),
        ("core.grid.builds_per_view", "ratio"),
        ("overlay.gossip.refutes", "count"),
        ("overlay.gossip.expiries", "count"),
        ("overlay.harness.convergence_s", "sim_s"),
        ("net.transport.deliver_bucket.self_s", "s"),
        ("net.transport.delivered", "count"),
        ("net.transport.lost", "count"),
        ("net.transport.coalesced_frac", "frac"),
        ("net.simulator.events", "count"),
        ("net.simulator.self_s", "s"),
        ("net.simulator.pending_max", "count"),
        ("net.simulator.compactions", "count"),
        ("net.simulator.slices", "count"),
        ("net.simulator.slice_ms_p50", "ms"),
        ("net.simulator.slice_ms_p90", "ms"),
    ]
    out += [(f"share.{layer}", "frac") for layer in LAYERS]
    out += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.attributed_frac", "frac"),
    ]
    out += [(f"mem.{module}_mb", "MB") for module in HEAP_MODULES]
    out += [("mem.other_mb", "MB"), ("mem.owned_total_mb", "MB"), ("mem.rss_peak_mb", "MB")]
    for name, _ in out:
        check_metric_name(name)
    return out


PER_LAYER: List[Tuple[str, str]] = _metric_list()


class ViewCounter:
    """Counts failover adoptions and distinct installed view versions."""

    def __init__(self) -> None:
        self.adoptions = 0
        self.views: Set[Tuple[int, int]] = set()

    def on_poll(self, poll: Any, *args: Any, **kw: Any) -> None:
        self.adoptions += len(poll.adopted) + len(poll.adopted_via_relay)

    def on_view(self, result: Any, router: Any, view: Any, *args: Any, **kw: Any) -> None:
        self.views.add((router.view_epoch, view.version))


def install(tracer: Tracer, views: ViewCounter) -> None:
    """Wrap every layer; call before ``build_overlay``."""
    tracer.wrap_simulator(Simulator)
    tracer.wrap_class(
        QuorumRouter,
        "overlay.router_quorum",
        observe={"on_view_change": views.on_view, "on_view_delta": views.on_view},
    )
    tracer.wrap_class(FailoverManager, "core.failover", observe={"poll": views.on_poll})
    tracer.wrap_class(SparseLinkStateTable, "overlay.linkstate")
    tracer.wrap_class(GridQuorum, "core.grid")
    tracer.wrap_class(GridQuorum, "core.grid", methods=["__init__"])
    tracer.wrap_class(GossipMembershipNode, "overlay.gossip")
    tracer.wrap_class(GossipMembershipPlane, "overlay.gossip")
    tracer.wrap_class(MembershipService, "overlay.membership")
    tracer.wrap_class(Coordinator, "overlay.coordination")
    tracer.wrap_class(CoordinatorGroup, "overlay.coordination")
    tracer.wrap_class(OverlayNode, "overlay.node")
    tracer.wrap_class(LinkMonitor, "overlay.monitor")
    tracer.wrap_class(DatagramTransport, "net.transport")
    tracer.wrap_class(DisruptionRecorder, "overlay.stats")
    tracer.wrap_class(
        Overlay,
        "overlay.harness",
        methods=["route_ok_matrix", "view_versions", "started_mask", "join_node", "leave_node", "fail_node"],
    )


def _layer(span: str) -> str:
    for layer in LAYERS:
        if span.startswith(layer + "."):
            return layer
    return "other"


def per_layer_metrics(
    window: Dict[str, List[float]],
    whole_run: Dict[str, List[float]],
    traced_wall_s: float,
    top_s: float,
    untraced_wall_s: float,
    views: ViewCounter,
    counts: Dict[str, float],
    slice_ms: List[float],
    pending_max: int,
    heap: Dict[str, float],
) -> Dict[str, float]:
    """Assemble :data:`PER_LAYER` from one traced and one heap pass.

    ``window`` holds span totals over the timed window, ``whole_run``
    over the whole run (set-up included, for grid builds).
    """

    def stat(name: str, i: int) -> float:
        return window.get(name, (0, 0.0, 0.0))[i]

    m: Dict[str, float] = {}
    for layer, ops in _SPANS:
        for op in ops:
            m[f"{layer}.{op}.calls"] = stat(f"{layer}.{op}", 0)
            m[f"{layer}.{op}.self_s"] = stat(f"{layer}.{op}", 2)
    # Drops are counted over the whole run, so is the denominator.
    handled = sum(
        whole_run.get(f"overlay.router_quorum.{op}", (0, 0.0, 0.0))[0]
        for op in ("on_linkstate", "on_recommendation")
    )
    dropped = counts["dropped_stale_view"]
    m["overlay.router_quorum.stale_drop_frac"] = dropped / handled if handled else 0.0
    m["core.failover.adoptions"] = views.adoptions
    builds = whole_run.get("core.grid.init", (0, 0.0, 0.0))[0]
    m["core.grid.builds"] = builds
    m["core.grid.builds_per_view"] = builds / len(views.views) if views.views else 0.0
    for key in (
        "overlay.linkstate.table_bytes_max",
        "overlay.gossip.refutes",
        "overlay.gossip.expiries",
        "overlay.harness.convergence_s",
        "net.transport.delivered",
        "net.transport.lost",
        "net.transport.coalesced_frac",
        "net.simulator.events",
        "net.simulator.compactions",
    ):
        m[key] = counts[key]
    m["net.transport.deliver_bucket.self_s"] = stat("net.transport.deliver_bucket", 2)
    unattributed = max(0.0, traced_wall_s - top_s)
    m["net.simulator.self_s"] = unattributed
    m["net.simulator.pending_max"] = pending_max
    m["net.simulator.slices"] = len(slice_ms)
    qs = statistics.quantiles(slice_ms, n=10) if len(slice_ms) > 1 else [0.0] * 9
    m["net.simulator.slice_ms_p50"] = statistics.median(slice_ms) if slice_ms else 0.0
    m["net.simulator.slice_ms_p90"] = qs[8]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in window.items():
        layer_self[_layer(name)] += self_s
    layer_self["net.simulator"] += unattributed
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / traced_wall_s if traced_wall_s else 0.0
    m["trace.wall_s"] = traced_wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.attributed_frac"] = top_s / traced_wall_s if traced_wall_s else 0.0
    m.update(heap)
    return m


def _children(obj: Any) -> Iterator[Any]:
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield v
    elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
        yield from obj
    elif isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            yield from obj.ravel().tolist()
    else:
        d = getattr(obj, "__dict__", None)
        if d is not None:
            yield from d.values()
        for klass in type(obj).__mro__:
            for slot in klass.__dict__.get("__slots__", ()):
                if hasattr(obj, slot) and slot not in ("__dict__", "__weakref__"):
                    yield getattr(obj, slot)


_SKIP = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)


def heap_by_module(root: Any) -> Dict[str, float]:
    """Deep size of everything reachable from ``root``, each object
    charged once to the package module that owns it.

    An object whose class is defined in the package is owned by that
    module; any other object (arrays, dicts, tuples) is owned by the
    nearest package object that reaches it first in a depth-first walk.
    Functions, methods, classes and modules are not followed.
    """
    seen: Set[int] = set()
    sizes: Dict[str, int] = {}
    stack: List[Tuple[Any, str]] = [(root, "other")]
    while stack:
        obj, owner = stack.pop()
        if id(obj) in seen or isinstance(obj, _SKIP):
            continue
        seen.add(id(obj))
        module = type(obj).__module__
        if module.startswith("repro."):
            owner = module[len("repro."):]
        # An array's size includes its buffer only when it owns it.
        sizes[owner] = sizes.get(owner, 0) + sys.getsizeof(obj)
        if isinstance(obj, (int, float, str, bytes, bool)) or obj is None:
            continue
        stack.extend((child, owner) for child in _children(obj))
    mb = 1024.0 * 1024.0
    out = {f"mem.{module}_mb": sizes.get(module, 0) / mb for module in HEAP_MODULES}
    out["mem.other_mb"] = sum(v for k, v in sizes.items() if k not in HEAP_MODULES) / mb
    out["mem.owned_total_mb"] = sum(sizes.values()) / mb
    return out
