"""Differential test: the array :class:`FailoverManager` against the
dict-keyed reference model in ``failover_reference.py``.

Both managers see the same event sequences — recommendation messages
from default servers, same-row/column clients, arbitrary nodes and
currently adopted failovers; polls with drawn link up/down vectors,
``sees_alive`` answers and ``allow_relay`` settings — on grids with and
without blank positions. After every poll their results must match
field for field, including the iteration order of ``extra_servers`` and
``relay_servers``, and their RNGs must be in the same state.
"""

import numpy as np
import pytest
from failover_reference import ReferenceFailoverManager
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.failover import FailoverConfig, FailoverManager
from repro.core.grid import GridQuorum

#: 3x3 full, 4x3 with blanks, 5x5 with blanks, 7x6 with blanks.
SIZES = (9, 10, 23, 37)
TIMEOUT_S = 30.0
#: Time steps: same instant, sub-interval, routing interval, past the
#: remote timeout.
STEPS_S = (0.0, 1.0, 5.0, 15.0, 31.0)


class Pair:
    """An array manager and a reference manager driven in lock step."""

    def __init__(self, n, me, seed):
        config = FailoverConfig(remote_timeout_s=TIMEOUT_S)
        self.n, self.me = n, me
        self.grid = GridQuorum(list(range(n)))
        self.rng_new = np.random.default_rng(seed)
        self.rng_ref = np.random.default_rng(seed)
        self.new = FailoverManager(me, self.rng_new, config)
        self.ref = ReferenceFailoverManager(me, self.rng_ref, config)
        self.new.set_grid(self.grid, 0.0)
        self.ref.set_grid(self.grid, 0.0)

    def actives(self):
        return sorted(
            {self.ref.active_failover(d) for d in range(self.n) if d != self.me} - {None}
        )

    def recommend(self, server, covered, now):
        self.new.note_recommendations(
            server, np.array(sorted(covered), dtype=np.int64), now
        )
        self.ref.note_recommendations(server, set(covered), now)

    def poll(self, now, down, dead, allow_relay):
        up = np.ones(self.n, dtype=bool)
        up[sorted(down)] = False

        def sees_alive(dst):
            return dst not in dead

        got = self.new.poll(now, up, sees_alive, allow_relay=allow_relay)
        want = self.ref.poll(now, lambda x: bool(up[x]), sees_alive, allow_relay=allow_relay)
        assert got.adopted == want.adopted
        assert got.adopted_via_relay == want.adopted_via_relay
        assert list(got.extra_servers) == list(want.extra_servers)
        assert list(got.relay_servers) == list(want.relay_servers)
        assert got.double_failures == want.double_failures
        assert got.proximal_double_failures == want.proximal_double_failures
        assert got.suppressed == want.suppressed
        assert self.rng_new.bit_generator.state == self.rng_ref.bit_generator.state
        for dst in range(self.n):
            assert self.new.active_failover(dst) == self.ref.active_failover(dst)
        return got

    def assert_same_covers(self):
        for server in range(self.n):
            for dst in range(self.n):
                assert self.new.last_cover(server, dst) == self.ref._last_cover.get((server, dst))


def covered_strategy(pair, server):
    """Healthy (all of the server's clients), lossy (some omitted), or
    arbitrary destination sets."""
    clients = [c for c in pair.grid.servers(server, include_self=False) if c != pair.me]
    anyone = st.sets(st.integers(0, pair.n - 1), max_size=pair.n)
    if not clients:
        return anyone
    omitted = st.sets(st.sampled_from(clients), max_size=len(clients))
    return st.one_of(
        st.just(set(clients)),
        omitted.map(lambda drop: set(clients) - drop),
        anyone,
    )


def server_strategy(pair):
    """Default servers, any node, or a currently adopted failover."""
    choices = [
        st.sampled_from(pair.grid.servers(pair.me, include_self=False)),
        st.integers(0, pair.n - 1),
    ]
    actives = pair.actives()
    if actives:
        choices.append(st.sampled_from(actives))
    return st.one_of(*choices)


@given(
    data=st.data(),
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_matches_reference_model(data, n, seed):
    me = data.draw(st.integers(0, n - 1), label="me")
    pair = Pair(n, me, seed)
    now = 0.0
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        now += data.draw(st.sampled_from(STEPS_S))
        if data.draw(st.booleans(), label="poll"):
            down = data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="down")
            dead = data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="dead")
            pair.poll(now, down, dead, data.draw(st.booleans(), label="allow_relay"))
        else:
            server = data.draw(server_strategy(pair), label="server")
            pair.recommend(server, data.draw(covered_strategy(pair, server)), now)
    pair.assert_same_covers()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("allow_relay", [False, True])
def test_long_runs_match_reference_model(n, allow_relay):
    """Hundreds of rounds of a rendezvous-shaped workload: every server
    that receives this node's link state recommends most of its clients
    each interval, links flap, and failovers get adopted, excluded,
    suppressed and retired."""
    rng = np.random.default_rng(1000 + n)
    for me in (0, n // 2, n - 1):
        pair = Pair(n, me, seed=n * 31 + me)
        now = 0.0
        adoptions = 0
        for _ in range(300):
            now += float(rng.choice(STEPS_S))
            senders = set(pair.grid.servers(me, include_self=False)) | set(pair.actives())
            for server in sorted(senders):
                if rng.random() < 0.2:
                    continue  # message lost
                clients = pair.grid.servers(server, include_self=False)
                covered = {c for c in clients if c != me and rng.random() > 0.15}
                pair.recommend(server, covered, now)
            down = set(np.nonzero(rng.random(n) < 0.25)[0].tolist())
            dead = set(np.nonzero(rng.random(n) < 0.3)[0].tolist())
            poll = pair.poll(now, down, dead, allow_relay)
            adoptions += len(poll.adopted) + len(poll.adopted_via_relay)
        pair.assert_same_covers()
        assert adoptions > 0


def test_server_covering_itself_matches_reference_model():
    """On a grid with blanks a destination can be one of its own default
    rendezvous while this node is not the other one (n=10, me=9 alone in
    the bottom row: dst 1's pair is (1, 0)). Only a non-standard sender
    lists itself as a destination, but when one does, the cover counts:
    server 1 covering itself at 20 s keeps it healthy at 45 s."""
    pair = Pair(10, 9, seed=5)
    assert pair.new.default_pair(1) == (1, 0)
    pair.recommend(1, {1}, 20.0)
    pair.recommend(0, {1}, 20.0)
    pair.poll(45.0, down={0}, dead=set(), allow_relay=False)
    assert pair.new.active_failover(1) is None
