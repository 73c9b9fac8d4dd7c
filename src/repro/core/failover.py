"""Rapid rendezvous failover (§4.1).

Each node tracks, per destination, the health of the two default
rendezvous servers (the grid intersections). A server has *proximally*
failed when the node's own link monitor marks it down; it has *remotely*
failed for a destination when it stops recommending any route to that
destination — detected affirmatively when a recommendation message from
the server arrives without an entry for the destination, with a timeout
backstop for lost messages.

When both defaults have failed for a destination (a "double rendezvous
failure", the quantity of Figure 11), the node selects a failover
rendezvous **uniformly at random** from the destination's row+column (so
concurrent failovers spread load), sends it a link-state table, and
expects recommendations. Failed failovers are excluded and retried; after
the initial failover the node first checks that the destination is alive
at all — visible through any of its rendezvous clients' link-state tables
— before trying further servers, which prevents the whole overlay from
churning through a dead node's row and column (§4.1's last paragraph).

The manager is deliberately free of I/O: the router feeds it events and
polls it, so every §4 behaviour is unit-testable in isolation.

State layout
------------
Destinations are membership-view indices ``0..n-1`` (the grid must be
built over them), and the state is a set of numpy columns indexed by
destination; NaN in a time column means "absent":

* ``_pair`` ``(n, 2)``: the default rendezvous pair, ``-1`` padding a
  deduplicated one-server pair and this node's own row;
* ``_cover`` / ``_omit`` ``(n, 2)``: when each default server last
  covered the destination, and when it last omitted it with no cover
  since. Every default pair is expected from the same instant, the
  :meth:`FailoverManager.set_grid` time (``_since``);
* ``_active`` (``-1`` for none), ``_via_relay``, ``_attempts`` and
  ``_suppressed``: the failover state of each destination. ``_excluded``
  stays a sparse dict of sets, present only for destinations that have
  discarded a failover server.

Covers of *non-default* ``(server, dst)`` pairs must be kept too. A
recommendation message also covers same-row/column clients and, from a
server adopted earlier as a failover, destinations it no longer serves.
Those covers are never read until that pair is adopted, but from then on
the remote-failure test anchors on the last cover in preference to the
adoption time. So every recommending server gets one sorted array of
the destinations it has covered and one float array of their last cover
times (``_cover_rows``). An honest server covers only its clients (its
~2 sqrt(n) grid clients plus nodes that adopted it as a failover), so
this stays far below a dense O(n) row per server however many servers a
node adopts over time. The
adopted pairs themselves are few, and their adoption and omission times
live in a sparse dict per server (``_adopted``).

:meth:`FailoverManager.poll` judges every destination's default pair in
numpy and runs the sequential adoption logic only over the double-failed
destinations, in ascending order, so the RNG draw order, the adoption
order and the insertion order of ``FailoverPoll.extra_servers`` are
those of a plain per-destination loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.grid import GridQuorum
from repro.errors import RoutingError

__all__ = ["FailoverConfig", "FailoverPoll", "FailoverManager"]

SeesAliveFn = Callable[[int], bool]
FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.integer[Any]]
BoolArray = npt.NDArray[np.bool_]

#: Closes every cover row's key array: above any destination index.
_END = np.iinfo(np.int64).max
#: The cover row of a server that has not recommended anything yet.
_NO_COVERS: Tuple[IntArray, FloatArray] = (np.array([_END]), np.full(1, np.nan))


@dataclass(frozen=True)
class FailoverConfig:
    """Timing knobs for failure detection.

    Attributes
    ----------
    remote_timeout_s:
        How long a server may go without covering a destination before it
        is presumed remotely failed (backstop for lost recommendation
        messages; affirmative omissions trigger immediately).
    """

    remote_timeout_s: float = 37.5  # 2.5 routing intervals at r = 15 s

    def __post_init__(self) -> None:
        if self.remote_timeout_s <= 0:
            raise RoutingError("remote_timeout_s must be positive")


@dataclass
class FailoverPoll:
    """Result of one failover evaluation pass.

    Attributes
    ----------
    adopted:
        Newly selected ``(destination, failover_server)`` pairs; the
        router should send its link state to these servers immediately.
    extra_servers:
        All currently active failover servers (receive link state each
        routing tick, in addition to the default rendezvous set).
    double_failures:
        Number of destinations whose both default rendezvous are
        currently failed — the per-interval quantity of Figure 11.
    suppressed:
        Number of destinations on which failover is paused because the
        destination itself appears dead.
    """

    adopted: List[Tuple[int, int]] = field(default_factory=list)
    #: footnote-8 adoptions: failovers only reachable via a relay.
    adopted_via_relay: List[Tuple[int, int]] = field(default_factory=list)
    extra_servers: Set[int] = field(default_factory=set)
    #: subset of ``extra_servers`` that must be addressed through relays.
    relay_servers: Set[int] = field(default_factory=set)
    double_failures: int = 0
    #: destinations whose both defaults are unreachable *from this node*
    #: (proximal only) — the exact quantity Figure 11 plots.
    proximal_double_failures: int = 0
    suppressed: int = 0


class FailoverManager:
    """Per-node §4.1 failover logic. See module docstring."""

    def __init__(
        self,
        me: int,
        rng: np.random.Generator,
        config: Optional[FailoverConfig] = None,
    ):
        self.me = me
        self._rng = rng
        self.config = config or FailoverConfig()
        self._grid: Optional[GridQuorum] = None
        self._allocate(np.full((0, 2), -1, dtype=np.int64), 0.0)

    def _allocate(self, pair: IntArray, now: float) -> None:
        n = len(pair)
        self._n = n
        self._since = now
        self._pair = pair
        self._pad: BoolArray = pair < 0
        self._is_me: BoolArray = pair == self.me
        self._is_dst: BoolArray = np.arange(n) != self.me
        self._cover: FloatArray = np.full((n, 2), np.nan)
        self._omit: FloatArray = np.full((n, 2), np.nan)
        # Flat views of the two, indexed by 2 * dst + slot.
        self._cover_flat = self._cover.reshape(-1)
        self._omit_flat = self._omit.reshape(-1)
        self._active: IntArray = np.full(n, -1, dtype=np.int64)
        self._via_relay: BoolArray = np.zeros(n, dtype=bool)
        self._attempts: IntArray = np.zeros(n, dtype=np.int64)
        self._suppressed: BoolArray = np.zeros(n, dtype=bool)
        self._excluded: Dict[int, Set[int]] = {}
        # server -> (every destination it has covered, ascending and
        # closed by _END; when it last covered each).
        self._cover_rows: Dict[int, Tuple[IntArray, FloatArray]] = {}
        # adopted server -> {dst: [adoption time, omission time]}.
        self._adopted: Dict[int, Dict[int, List[float]]] = {}
        # server -> flat (dst, slot) positions of the pairs it defaults.
        self._default_flat: Dict[int, Tuple[IntArray, IntArray]] = {}

    # ------------------------------------------------------------------
    # Configuration inputs
    # ------------------------------------------------------------------
    def set_grid(self, grid: GridQuorum, now: float) -> None:
        """Install a (new) membership grid; resets all failover state."""
        if grid.members != list(range(grid.n)):
            raise RoutingError("failover grids must be built over view indices 0..n-1")
        self._grid = grid
        self._allocate(grid.default_rendezvous_pairs(self.me), now)

    @property
    def grid(self) -> GridQuorum:
        if self._grid is None:
            raise RoutingError("failover manager has no grid yet")
        return self._grid

    def _known(self, dst: int) -> bool:
        return 0 <= dst < self._n and dst != self.me

    def default_pair(self, dst: int) -> Tuple[int, ...]:
        """The destination's default rendezvous pair (for tests/metrics)."""
        if not self._known(dst):
            raise RoutingError(f"unknown destination {dst}")
        return tuple(int(s) for s in self._pair[dst] if s >= 0)

    def active_failover(self, dst: int) -> Optional[int]:
        """Currently adopted failover server for ``dst``, if any."""
        if not self._known(dst) or self._active[dst] < 0:
            return None
        return int(self._active[dst])

    def last_cover(self, server: int, dst: int) -> Optional[float]:
        """When ``server`` last recommended a route to ``dst``, if ever."""
        last = self._cover_time(server, dst)
        return None if math.isnan(last) else last

    def nbytes(self) -> int:
        """Memory footprint of the failover arrays (lazy rows included),
        plus the hash tables of the sparse adoption dicts."""
        columns: List[npt.NDArray[Any]] = [
            self._pair,
            self._pad,
            self._is_me,
            self._is_dst,
            self._cover,
            self._omit,
            self._active,
            self._via_relay,
            self._attempts,
            self._suppressed,
        ]
        for row in self._cover_rows.values():
            columns += row
        for plan in self._default_flat.values():
            columns += plan
        tables = sum(sys.getsizeof(t) for t in self._adopted.values())
        return sum(int(a.nbytes) for a in columns) + tables

    # ------------------------------------------------------------------
    # Event inputs
    # ------------------------------------------------------------------
    def _defaults_of(self, server: int) -> Tuple[IntArray, IntArray]:
        """Flat positions in the ``(n, 2)`` columns of the default pairs
        ``(server, dst)`` with ``dst != server``, and those ``dst``."""
        plan = self._default_flat.get(server)
        if plan is None:
            mine = self._pair == server
            mine[server] = False
            flat = np.flatnonzero(mine)
            plan = self._default_flat[server] = (flat, flat // 2)
        return plan

    def note_recommendations(self, server: int, dsts: IntArray, now: float) -> None:
        """Process one recommendation message from ``server``.

        ``dsts`` are the destinations the message carried entries for.
        Destinations we expect ``server`` to cover but that are absent
        count as affirmative remote-failure evidence (§4.1's "observing
        that k stopped recommending any route to node j").
        """
        keys, times = self._cover_rows.get(server, _NO_COVERS)
        # The _END sentinel keeps every search position inside ``keys``.
        pos = np.searchsorted(keys, dsts)
        if np.count_nonzero(keys[pos] != dsts):
            # A destination this server has not covered before: one of
            # its clients was unreachable until now, or a node adopted it
            # as a failover.
            merged = np.union1d(keys, dsts)
            grown = np.full(merged.size, np.nan)
            grown[np.searchsorted(merged, keys)] = times
            keys, times = merged, grown
            self._cover_rows[server] = (keys, times)
            pos = np.searchsorted(keys, dsts)
        times[pos] = now
        covered = np.zeros(self._n, dtype=bool)
        covered[dsts] = True
        flat, def_dst = self._defaults_of(server)
        hit_flat = flat[covered[def_dst]]
        self._cover_flat[hit_flat] = now
        self._omit_flat[flat] = now
        self._omit_flat[hit_flat] = np.nan
        if covered[server]:
            # A server is never expected to cover itself, so it records
            # no omission of itself; only a non-standard sender does.
            self._cover[server, self._pair[server] == server] = now
        for dst, adoption in self._adopted.get(server, {}).items():
            if covered[dst]:
                adoption[1] = math.nan
            elif self._active[dst] == server:
                # An active failover is expected to cover its destination.
                adoption[1] = now

    # ------------------------------------------------------------------
    # Health evaluation
    # ------------------------------------------------------------------
    def _default_slot(self, server: int, dst: int) -> int:
        for k in (0, 1):
            if self._pair[dst, k] == server:
                return k
        return -1

    def _cover_time(self, server: int, dst: int) -> float:
        """When ``server`` last covered ``dst``; NaN if never."""
        keys, times = self._cover_rows.get(server, _NO_COVERS)
        k = int(np.searchsorted(keys, dst))
        return float(times[k]) if keys[k] == dst else math.nan

    def _remote_failed(self, server: int, dst: int, now: float) -> bool:
        last = self._cover_time(server, dst)
        k = self._default_slot(server, dst)
        if k >= 0:
            omitted, reference = float(self._omit[dst, k]), self._since
        else:
            adoption = self._adopted.get(server, {}).get(dst)
            if adoption is None:
                return False  # not an expected server; no remote judgment
            reference, omitted = adoption
        if not math.isnan(omitted) and (math.isnan(last) or omitted > last):
            return True
        anchor = reference if math.isnan(last) else last
        return now - anchor > self.config.remote_timeout_s

    def server_failed(self, server: int, dst: int, now: float, up: BoolArray) -> bool:
        """Is ``server`` (proximally or remotely) failed w.r.t. ``dst``?

        ``up`` is the link monitor's liveness vector over view indices.
        ``server == me`` encodes the same-row/column case where this node
        is itself a rendezvous for the pair: it fails exactly when the
        direct link to the destination is down (no link state flows).
        """
        if server == self.me:
            return not up[dst]
        if not up[server]:
            return True
        return self._remote_failed(server, dst, now)

    def _default_verdicts(self, now: float, up: BoolArray) -> Tuple[BoolArray, BoolArray]:
        """Per destination: both defaults proximally failed; both failed.

        The numpy form of :meth:`server_failed` over every default pair
        (a ``-1`` pad counts as failed, so a one-server pair is judged on
        its single server); this node's own row is False.
        """
        last, omitted = self._cover, self._omit
        omission = (omitted > last) | (~np.isnan(omitted) & np.isnan(last))
        anchor = np.where(np.isnan(last), self._since, last)
        remote = omission | (now - anchor > self.config.remote_timeout_s)
        down = ~up
        down_dst = down[:, None]
        down_srv = down[self._pair]  # pads read a stray entry; masked below
        proximal = self._pad | np.where(self._is_me, down_dst, down_srv)
        failed = self._pad | np.where(self._is_me, down_dst, down_srv | remote)
        return (
            proximal[:, 0] & proximal[:, 1] & self._is_dst,
            failed[:, 0] & failed[:, 1] & self._is_dst,
        )

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(
        self,
        now: float,
        up: BoolArray,
        sees_alive: SeesAliveFn,
        allow_relay: bool = False,
    ) -> FailoverPoll:
        """Evaluate all destinations; adopt/retire failover servers.

        ``up`` is the link monitor's liveness verdict for the direct link
        to each view index; ``sees_alive(dst)`` is whether any rendezvous
        client's link-state row currently shows ``dst`` reachable.
        ``allow_relay`` enables the §4.1 footnote-8 fallback: when no
        failover candidate is directly reachable, one is adopted anyway
        and addressed through a temporary one-hop relay.
        """
        grid = self.grid
        result = FailoverPoll()
        proximal_both, both_failed = self._default_verdicts(now, up)
        result.proximal_double_failures = int(np.count_nonzero(proximal_both))
        # Defaults (at least partially) healthy: revert (§4.1 "reverts
        # to its original rendezvous nodes").
        healthy = ~both_failed
        self._active[healthy] = -1
        self._via_relay[healthy] = False
        self._attempts[healthy] = 0
        self._suppressed[healthy] = False
        for dst in [d for d in self._excluded if healthy[d]]:
            del self._excluded[dst]
        failed_dsts = np.flatnonzero(both_failed).tolist()
        result.double_failures = len(failed_dsts)
        for dst in failed_dsts:
            active = int(self._active[dst])
            if active >= 0:
                # Relay-reached failovers have no meaningful proximal
                # verdict; judge them on recommendation coverage only.
                via_relay = bool(self._via_relay[dst])
                active_failed = (
                    self._remote_failed(active, dst, now)
                    if via_relay
                    else self.server_failed(active, dst, now, up)
                )
                if not active_failed:
                    result.extra_servers.add(active)
                    if via_relay:
                        result.relay_servers.add(active)
                    continue
                self._excluded.setdefault(dst, set()).add(active)
                self._active[dst] = -1
                self._via_relay[dst] = False
            if self._suppressed[dst]:
                if sees_alive(dst):
                    self._suppressed[dst] = False
                    self._excluded.pop(dst, None)
                    self._attempts[dst] = 0
                else:
                    result.suppressed += 1
                    continue
            if self._attempts[dst] >= 1 and not sees_alive(dst):
                # §4.1: after the initial failover, confirm the
                # destination is alive before burning through more
                # candidates.
                self._suppressed[dst] = True
                result.suppressed += 1
                continue
            excluded = self._excluded.get(dst, set())
            pair = self._pair[dst].tolist()
            usable = [
                c
                for c in grid.failover_candidates(dst)
                if c != self.me
                and c not in excluded
                and c not in pair
                and not self._remote_failed(c, dst, now)
            ]
            candidates = [c for c in usable if up[c]]
            via_relay = False
            if not candidates and allow_relay:
                # Footnote 8: everything in dst's row+column is behind a
                # broken direct link; pick one anyway and relay to it.
                candidates = usable
                via_relay = True
            if not candidates:
                # Exhausted the row+column; allow a fresh cycle later.
                self._excluded.pop(dst, None)
                continue
            choice = int(candidates[int(self._rng.integers(len(candidates)))])
            self._active[dst] = choice
            self._via_relay[dst] = via_relay
            self._attempts[dst] += 1
            # A re-adoption restarts the expectation but keeps an
            # omission not yet answered by a cover.
            adoption = self._adopted.setdefault(choice, {}).setdefault(dst, [now, math.nan])
            adoption[0] = now
            if via_relay:
                result.adopted_via_relay.append((dst, choice))
                result.relay_servers.add(choice)
            else:
                result.adopted.append((dst, choice))
            result.extra_servers.add(choice)
        return result
