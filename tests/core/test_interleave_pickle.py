"""The interleaved product's stored form: interned tables, lazy views.

An :class:`~repro.core.interleave.InterleavedFlow` pickles only its
components, its initial/stop sets and the interned CSR tables; every
object-level view (``states``, ``transitions``, the state-to-ID map,
``outgoing`` ...) and every derived array is rebuilt on demand after a
load.  These tests pin that a loaded product is indistinguishable from
a freshly built one, that the pickle is the compact form, that an
old-shape state is refused, and that each derived view is built once
even when many threads ask for it at the same moment.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.core.interleave import InterleavedFlow, interleave
from repro.errors import InterleavingError
from repro.experiments.common import scenario_selection
from repro.soc.t2.scenarios import scenario

PRODUCTS = [(n, k) for n in (1, 2, 3) for k in (1, 2)]


def fresh(number: int, instances: int) -> InterleavedFlow:
    return interleave(scenario(number, instances=instances).instances())


@pytest.mark.parametrize("number,instances", PRODUCTS)
def test_round_trip_equals_fresh_build(number, instances):
    built = fresh(number, instances)
    loaded = pickle.loads(pickle.dumps(built))  # before any view is built
    assert loaded.states == built.states
    assert loaded.transitions == built.transitions  # same order too
    assert list(loaded.transitions) == sorted(built.transitions)
    assert loaded.csr_adjacency() == built.csr_adjacency()
    assert loaded.count_paths() == built.count_paths()
    assert list(loaded.message_occurrences.items()) == \
        list(built.message_occurrences.items())
    assert list(loaded.edge_target_ids().items()) == \
        list(built.edge_target_ids().items())
    loaded_vis, built_vis = loaded.visibility_index(), built.visibility_index()
    for message in built.messages:
        assert loaded_vis.coverage([message]) == built_vis.coverage([message])
    assert loaded_vis.coverage(built.messages) == \
        built_vis.coverage(built.messages)
    assert loaded.initial == built.initial and loaded.stop == built.stop
    for state in sorted(built.initial):
        assert loaded.outgoing(state) == built.outgoing(state)


def test_pickle_holds_tables_not_objects():
    u = fresh(1, 1)
    u.transitions, u.states, u.visibility_index(), u.count_paths()
    data = pickle.dumps(u, pickle.HIGHEST_PROTOCOL)
    assert b"InterleavedTransition" not in data
    assert b"VisibilityIndex" not in data
    assert set(u.__getstate__()) == {
        "components", "initial", "stop", "initial_ids", "stop_ids",
        "interned",
    }


def test_views_are_read_only():
    u = fresh(1, 1)
    with pytest.raises(AttributeError):
        u.states = frozenset()
    with pytest.raises(AttributeError):
        u.transitions = ()


def test_old_shape_state_is_refused():
    u = fresh(1, 1)
    # the pre-table shape: the instance __dict__ with eager object views
    old_state = {
        "components": u.components, "states": u.states,
        "initial": u.initial, "stop": u.stop,
        "transitions": u.transitions, "_interned": u._interned,
    }
    blank = InterleavedFlow.__new__(InterleavedFlow)
    with pytest.raises(InterleavingError, match="incompatible version"):
        blank.__setstate__(old_state)


def test_views_build_once_under_concurrent_first_use():
    threads = 8
    built = scenario_selection(3, instances=2).scenario.interleaved()
    u = pickle.loads(pickle.dumps(built))
    probe = u.state_at(u.num_states // 2)
    barrier = threading.Barrier(threads)
    seen = [None] * threads
    errors = []

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            seen[slot] = (
                u.states, u.transitions, u.state_id(probe), u.count_paths(),
                u.visibility_index(), u.paths_to_stop_ids(),
                u.topological_ids(), u.edge_target_ids(),
            )
        except BaseException as exc:  # reported below
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the cold builds finely
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert not errors
    first = seen[0]
    for other in seen[1:]:
        assert all(a is b for a, b in zip(first, other))
    assert u.state_id(probe) == u.num_states // 2
