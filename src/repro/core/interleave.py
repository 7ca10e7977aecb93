"""The interleaving product of legally indexed flows (Definition 5).

``interleave(instances)`` constructs the n-ary generalization of the
paper's binary operator ``F ||| G``:

* product states are tuples of component :class:`IndexedState`\\ s,
* a component may take one of its transitions only while **every other
  component is outside its atomic set** (rules i/ii of Definition 5),
* consequently no reachable product state ever has two components in
  their atomic states simultaneously -- e.g. state ``(c1, c2)`` of the
  running example is unreachable.

Only the reachable part of the product is materialized (sparse, BFS
from the initial product states), which is what keeps the construction
tractable for multi-flow usage scenarios.

The product is stored *interned*: every reachable state and every
distinct indexed message receives a dense integer ID at construction
(IDs follow the states'/messages' natural sort order), and the
transition relation is stored as CSR-style integer arrays.  Those
tables are the only stored form -- in memory and in a pickle.  The
object-level views (``states``, ``transitions``, ``outgoing``, the
state-to-ID map, ...) are thin, lazily built views over the tables:
each is derived on first use, once per instance, and none is pickled.
The hot consumers -- the information model, coverage bitsets, and the
localization DP -- work directly on the integer arrays, so a product
loaded from the artifact cache never hashes its ~10^5 edge objects.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import perf
from repro.core.flow import Execution, Flow
from repro.core.indexing import (
    IndexedFlow,
    IndexedState,
    check_legally_indexed,
    index_flows,
)
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.core.visibility import VisibilityIndex
from repro.errors import InterleavingError

ProductState = Tuple[IndexedState, ...]

_T = TypeVar("_T")


@dataclass(frozen=True, order=True)
class InterleavedTransition:
    """One edge of the interleaved flow: ``src --<i:msg>--> dst``."""

    source: ProductState
    message: IndexedMessage
    target: ProductState

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        src = "(" + ",".join(s.name for s in self.source) + ")"
        dst = "(" + ",".join(s.name for s in self.target) + ")"
        return f"{src} --{self.message.name}--> {dst}"


@dataclass(frozen=True)
class _InternedProduct:
    """The integer tables of a product automaton -- its stored form.

    ``state_table``/``message_table`` assign dense IDs in the states'
    (respectively messages') sort order, so comparisons on IDs agree
    with comparisons on the objects.  The adjacency is CSR-style: the
    edges leaving state ID ``i`` are positions
    ``adj_offsets[i]:adj_offsets[i + 1]`` of the parallel
    ``adj_messages``/``adj_targets`` arrays, sorted by
    ``(message ID, target ID)`` -- the exact order :meth:`InterleavedFlow.
    outgoing` has always presented.  The state-to-ID map is not stored:
    hashing every product state is what made loading slow, and only the
    object-level API needs it (:meth:`InterleavedFlow.state_id`).
    """

    state_table: Tuple[ProductState, ...]
    message_table: Tuple[IndexedMessage, ...]
    message_ids: Dict[IndexedMessage, int]
    adj_offsets: Tuple[int, ...]
    adj_messages: Tuple[int, ...]
    adj_targets: Tuple[int, ...]


def _finish_interning(
    state_table: Tuple[ProductState, ...],
    message_table: Tuple[IndexedMessage, ...],
    message_ids: Dict[IndexedMessage, int],
    edges: List[Tuple[int, int, int]],
) -> _InternedProduct:
    """Pack ``(src, msg, tgt)`` ID triples (sorted) into CSR arrays."""
    offsets = [0] * (len(state_table) + 1)
    for src, _, _ in edges:
        offsets[src + 1] += 1
    for i in range(1, len(offsets)):
        offsets[i] += offsets[i - 1]
    return _InternedProduct(
        state_table=state_table,
        message_table=message_table,
        message_ids=message_ids,
        adj_offsets=tuple(offsets),
        adj_messages=tuple(m for _, m, _ in edges),
        adj_targets=tuple(t for _, _, t in edges),
    )


#: The pickled state of an :class:`InterleavedFlow`: the components,
#: the initial/stop sets in both forms and the interned tables.  Derived
#: views are rebuilt on demand after loading.
_PICKLED_FIELDS = frozenset(
    {"components", "initial", "stop", "initial_ids", "stop_ids", "interned"}
)


class InterleavedFlow:
    """Reachable interleaving product ``U = F1 ||| F2 ||| ... ||| Fn``.

    Instances are built with :func:`interleave`; the constructor is
    internal.  The interned integer tables are the only stored form
    (and the only pickled one); the object-level views are derived from
    them on first use.  The object exposes everything the selection
    machinery needs:

    * ``states`` / ``initial`` / ``stop`` / ``transitions`` -- the
      product automaton (``states`` and ``transitions`` are lazy,
      read-only views),
    * ``outgoing(state)`` -- adjacency,
    * ``message_occurrences`` -- how often each indexed message labels
      an edge (the marginal ``p(y)`` numerator of Section 3.2),
    * ``count_paths()`` -- number of executions (used as the
      denominator of path localization, Section 5.2),
    * ``executions()`` / ``random_execution()`` -- path enumeration and
      sampling,

    plus the integer-level view the hot paths run on:

    * ``state_id`` / ``state_at`` and ``message_id`` / ``message_at``
      -- the interned tables (IDs follow sort order),
    * ``initial_ids`` / ``stop_ids`` / ``csr_adjacency()`` -- the
      product automaton over IDs,
    * ``paths_to_stop_ids()`` / ``topological_ids()`` -- the DP
      arrays, indexed by state ID,
    * ``visibility_index()`` -- per-message coverage bitsets
      (:mod:`repro.core.visibility`).

    Every derived view is built once per instance: concurrent first
    callers serialize on a per-instance lock and all receive the same
    object, while a warm read takes no lock.
    """

    def __init__(
        self,
        components: Sequence[IndexedFlow],
        initial_ids: Sequence[int],
        stop_ids: FrozenSet[int],
        interned: _InternedProduct,
    ) -> None:
        table = interned.state_table
        self.__setstate__({
            "components": tuple(components),
            "initial": frozenset(table[i] for i in initial_ids),
            "stop": frozenset(table[i] for i in stop_ids),
            "initial_ids": tuple(sorted(initial_ids)),
            "stop_ids": frozenset(stop_ids),
            "interned": interned,
        })

    # ------------------------------------------------------------------
    # pickling: the tables only
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "components": self.components,
            "initial": self.initial,
            "stop": self.stop,
            "initial_ids": self._initial_ids,
            "stop_ids": self._stop_ids,
            "interned": self._interned,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        if not isinstance(state, dict) or set(state) != _PICKLED_FIELDS \
                or not isinstance(state["interned"], _InternedProduct):
            raise InterleavingError(
                "unrecognized InterleavedFlow state (written by an "
                "incompatible version)"
            )
        self.components: Tuple[IndexedFlow, ...] = state["components"]
        self.initial: FrozenSet[ProductState] = state["initial"]
        self.stop: FrozenSet[ProductState] = state["stop"]
        self._initial_ids: Tuple[int, ...] = state["initial_ids"]
        self._stop_ids: FrozenSet[int] = state["stop_ids"]
        self._interned: _InternedProduct = state["interned"]
        # derived views, by name (see _view), and the lock that builds
        # each of them once
        self._views: Dict[str, Any] = {}
        self._lock = threading.RLock()
        self._outgoing_cache: Dict[ProductState, Tuple[InterleavedTransition, ...]] = {}

    def _view(self, name: str, build: Callable[[], _T]) -> _T:
        """The derived view *name*, built by *build* on first use.

        Check-then-lock: a warm read is one dict lookup; cold callers
        serialize on the instance lock (re-entrant, since views build
        on other views), so *build* runs once and every caller gets
        the object it returned.
        """
        value = self._views.get(name)
        if value is None:
            with self._lock:
                value = self._views.get(name)
                if value is None:
                    value = self._views[name] = build()
        return value

    # ------------------------------------------------------------------
    # object-level views over the tables
    # ------------------------------------------------------------------
    @property
    def states(self) -> FrozenSet[ProductState]:
        """Every reachable product state."""
        return self._view(
            "states", lambda: frozenset(self._interned.state_table)
        )

    @property
    def transitions(self) -> Tuple[InterleavedTransition, ...]:
        """Every edge, sorted (the CSR order: source, message, target)."""
        return self._view("transitions", self._build_transitions)

    def _build_transitions(self) -> Tuple[InterleavedTransition, ...]:
        interned = self._interned
        table, messages = interned.state_table, interned.message_table
        offsets = interned.adj_offsets
        adj_messages, adj_targets = interned.adj_messages, interned.adj_targets
        return tuple(
            InterleavedTransition(
                table[src], messages[adj_messages[e]], table[adj_targets[e]]
            )
            for src in range(len(table))
            for e in range(offsets[src], offsets[src + 1])
        )

    def _state_ids(self) -> Dict[ProductState, int]:
        return self._view(
            "state_ids",
            lambda: {
                state: i
                for i, state in enumerate(self._interned.state_table)
            },
        )

    # ------------------------------------------------------------------
    # interned integer view
    # ------------------------------------------------------------------
    def state_id(self, state: ProductState) -> int:
        """Dense ID of *state* (IDs follow the states' sort order)."""
        return self._state_ids()[state]

    def state_at(self, state_id: int) -> ProductState:
        """The product state interned at *state_id*."""
        return self._interned.state_table[state_id]

    def message_id(self, message: IndexedMessage) -> Optional[int]:
        """Dense ID of an indexed message, or ``None`` when it labels
        no edge of the product."""
        return self._interned.message_ids.get(message)

    def message_at(self, message_id: int) -> IndexedMessage:
        """The indexed message interned at *message_id*."""
        return self._interned.message_table[message_id]

    @property
    def initial_ids(self) -> Tuple[int, ...]:
        """IDs of the initial product states, ascending."""
        return self._initial_ids

    @property
    def stop_ids(self) -> FrozenSet[int]:
        """IDs of the stop product states."""
        return self._stop_ids

    def csr_adjacency(self) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
        """The transition relation as ``(offsets, message_ids,
        target_ids)`` CSR arrays (edges of state ``i`` live at
        ``offsets[i]:offsets[i + 1]``, sorted by message then target)."""
        interned = self._interned
        return interned.adj_offsets, interned.adj_messages, interned.adj_targets

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return " ||| ".join(c.name for c in self.components)

    @property
    def num_states(self) -> int:
        return len(self._interned.state_table)

    @property
    def num_transitions(self) -> int:
        return len(self._interned.adj_targets)

    @property
    def messages(self) -> MessageCombination:
        """The (un-indexed) message set ``E = union of component E_i``."""
        return self._view(
            "messages",
            lambda: MessageCombination(
                m for c in self.components for m in c.flow.messages
            ),
        )

    @property
    def indexed_messages(self) -> Tuple[IndexedMessage, ...]:
        """Every indexed message labelling at least one edge (the
        interned message table -- already sorted)."""
        return self._interned.message_table

    def indices_of(self, message: Message) -> Tuple[int, ...]:
        """Instance indices under which *message* occurs in the product."""
        return tuple(
            sorted(
                {
                    m.index
                    for m in self._interned.message_table
                    if m.message == message
                }
            )
        )

    def outgoing(self, state: ProductState) -> Tuple[InterleavedTransition, ...]:
        cached = self._outgoing_cache.get(state)
        if cached is None:
            interned = self._interned
            sid = self._state_ids().get(state)
            if sid is None:
                return ()
            lo = interned.adj_offsets[sid]
            hi = interned.adj_offsets[sid + 1]
            cached = tuple(
                InterleavedTransition(
                    state,
                    interned.message_table[interned.adj_messages[e]],
                    interned.state_table[interned.adj_targets[e]],
                )
                for e in range(lo, hi)
            )
            self._outgoing_cache[state] = cached
        return cached

    @property
    def message_occurrences(self) -> Dict[IndexedMessage, int]:
        """Edge count per indexed message over the whole product
        (computed once; the returned dict is a fresh copy)."""
        occurrences = self._view(
            "message_occurrences",
            lambda: {
                message: len(targets)
                for message, targets in self._edge_index().items()
            },
        )
        return dict(occurrences)

    def destinations(self, message: IndexedMessage) -> List[ProductState]:
        """Target states of every edge labelled *message* (with
        multiplicity), backed by the per-message edge index."""
        table = self._interned.state_table
        return [
            table[target_id]
            for target_id in self._edge_index().get(message, ())
        ]

    def edge_target_ids(self) -> Dict[IndexedMessage, List[int]]:
        """Per-message target-state-ID lists (the edge index consumers
        like the information model iterate); see :meth:`_edge_index`."""
        return self._edge_index()

    def _edge_index(self) -> Dict[IndexedMessage, List[int]]:
        """Per-message target-ID lists, in transition order.

        One pass over the CSR arrays, whose edge order is the
        ``transitions`` order (source, message, target); keys appear in
        first-encounter order and target multiplicity is preserved,
        which is what keeps the information model's float-sum order
        identical to the historical full-scan implementation.
        """
        return self._view("edge_index", self._build_edge_index)

    def _build_edge_index(self) -> Dict[IndexedMessage, List[int]]:
        interned = self._interned
        by_id: Dict[int, List[int]] = {}
        for message_id, target_id in zip(
            interned.adj_messages, interned.adj_targets
        ):
            by_id.setdefault(message_id, []).append(target_id)
        table = interned.message_table
        return {table[m]: targets for m, targets in by_id.items()}

    def visibility_index(self) -> VisibilityIndex:
        """Per-message coverage bitsets over interned state IDs
        (built once, straight from the CSR arrays)."""
        return self._view("visibility", self._build_visibility)

    def _build_visibility(self) -> VisibilityIndex:
        with perf.timed("visibility_index"):
            interned = self._interned
            visibility = VisibilityIndex.from_edges(
                len(interned.state_table),
                zip(
                    (interned.message_table[m] for m in interned.adj_messages),
                    interned.adj_targets,
                ),
                interned.state_table,
            )
        perf.add("visibility_bitsets_built", 1)
        return visibility

    # ------------------------------------------------------------------
    # paths / executions
    # ------------------------------------------------------------------
    def topological_ids(self) -> List[int]:
        """State IDs in a (deterministic) topological order of the
        product DAG -- Kahn's algorithm over the CSR arrays."""
        return self._view("topological_ids", self._build_topological_ids)

    def _build_topological_ids(self) -> List[int]:
        offsets, _, targets = self.csr_adjacency()
        n = self.num_states
        indegree = [0] * n
        for target_id in targets:
            indegree[target_id] += 1
        ready = [i for i in range(n) if indegree[i] == 0]
        order: List[int] = []
        while ready:
            state_id = ready.pop()
            order.append(state_id)
            for e in range(offsets[state_id], offsets[state_id + 1]):
                target_id = targets[e]
                indegree[target_id] -= 1
                if indegree[target_id] == 0:
                    ready.append(target_id)
        if len(order) != n:
            raise InterleavingError(
                "interleaved flow is not a DAG"
            )  # pragma: no cover - components are validated DAGs
        return order

    def topological_order(self) -> List[ProductState]:
        """Reachable product states in topological order."""
        table = self._interned.state_table
        return [table[i] for i in self.topological_ids()]

    def paths_to_stop_ids(self) -> List[int]:
        """Paths-to-stop counts as an array indexed by state ID
        (memoised)."""
        return self._view("paths_to_stop_ids", self._build_paths_to_stop_ids)

    def _build_paths_to_stop_ids(self) -> List[int]:
        offsets, _, targets = self.csr_adjacency()
        counts = [0] * self.num_states
        stop_ids = self._stop_ids
        for state_id in reversed(self.topological_ids()):
            total = 1 if state_id in stop_ids else 0
            for e in range(offsets[state_id], offsets[state_id + 1]):
                total += counts[targets[e]]
            counts[state_id] = total
        return counts

    def paths_to_stop(self) -> Dict[ProductState, int]:
        """Number of paths from each state to any stop state (memoised)."""
        return self._view(
            "paths_to_stop",
            lambda: dict(
                zip(self._interned.state_table, self.paths_to_stop_ids())
            ),
        )

    def count_paths(self) -> int:
        """Total number of executions of the interleaved flow."""
        return self._view(
            "count_paths",
            lambda: sum(
                self.paths_to_stop_ids()[i] for i in self._initial_ids
            ),
        )

    def executions(self) -> Iterator[Execution]:
        """Lazily enumerate executions (may be astronomically many --
        callers should bound their consumption)."""
        for start in sorted(self.initial):
            stack: List[
                Tuple[ProductState, Tuple[ProductState, ...], Tuple[IndexedMessage, ...]]
            ] = [(start, (start,), ())]
            while stack:
                state, path_states, path_msgs = stack.pop()
                if state in self.stop:
                    yield Execution(path_states, path_msgs)
                for t in reversed(self.outgoing(state)):
                    stack.append(
                        (t.target, path_states + (t.target,), path_msgs + (t.message,))
                    )

    def random_execution(self, rng: random.Random) -> Execution:
        """Sample one execution uniformly at random among all executions.

        Uses the path-count DP so every complete path has equal
        probability (a plain random walk would bias towards short or
        low-branching paths).
        """
        counts = self.paths_to_stop()
        starts = sorted(self.initial)
        weights = [counts.get(s, 0) for s in starts]
        if sum(weights) == 0:
            raise InterleavingError(
                f"interleaved flow {self.name} has no execution"
            )
        state = rng.choices(starts, weights=weights)[0]
        states: List[ProductState] = [state]
        msgs: List[IndexedMessage] = []
        while True:
            options: List[Tuple[Optional[InterleavedTransition], int]] = []
            if state in self.stop:
                options.append((None, 1))
            for t in self.outgoing(state):
                options.append((t, counts[t.target]))
            choice = rng.choices(
                [o for o, _ in options], weights=[w for _, w in options]
            )[0]
            if choice is None:
                return Execution(tuple(states), tuple(msgs))
            msgs.append(choice.message)
            states.append(choice.target)
            state = choice.target

    # ------------------------------------------------------------------
    # projections
    # ------------------------------------------------------------------
    def project(self, execution: Execution, component: IndexedFlow) -> Execution:
        """Project an interleaved execution onto one component instance.

        The result is the component's own execution: its local state
        sequence with the messages carrying *component*'s index.
        """
        position = self.components.index(component)
        local_states: List[object] = [execution.states[0][position].state]
        local_msgs: List[Message] = []
        for msg, state in zip(execution.messages, execution.states[1:]):
            if isinstance(msg, IndexedMessage) and msg.index == component.index \
                    and msg.message in component.flow.messages:
                local_msgs.append(msg.message)
                local_states.append(state[position].state)
        return Execution(tuple(local_states), tuple(local_msgs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InterleavedFlow({self.name!r}, |S|={self.num_states}, "
            f"|delta|={self.num_transitions})"
        )


def interleave(instances: Sequence[IndexedFlow]) -> InterleavedFlow:
    """Construct the reachable interleaving of *instances* (Definition 5).

    Parameters
    ----------
    instances:
        Pairwise legally indexed flow instances (Definition 4);
        violations raise :class:`~repro.errors.IndexingError`.

    Returns
    -------
    InterleavedFlow
        The reachable product automaton.  Atomic-state mutual exclusion
        is enforced: a component moves only while every other component
        is outside its atomic set, so no reachable state has two
        components simultaneously atomic.

    Notes
    -----
    The BFS works on interned integers: product states are deduplicated
    through an intern dict the moment they are generated, per-component
    local adjacency is materialized once up front (instead of rebuilding
    indexed ``(message, target)`` pairs on every visit), and edges are
    collected as ID triples that are sorted and packed into the CSR
    arrays the :class:`InterleavedFlow` hot paths consume.  No edge or
    state-set objects are built here; the lazily derived
    ``states``/``transitions`` views are identical -- including order --
    to the historical object-graph construction.
    """
    with perf.timed("interleave"):
        instances = tuple(instances)
        if not instances:
            raise InterleavingError("cannot interleave zero flow instances")
        check_legally_indexed(instances)

        positions = range(len(instances))
        # per-component adjacency and atomic sets, materialized once
        local_outgoing: List[Dict[IndexedState, Tuple[Tuple[IndexedMessage, IndexedState], ...]]] = [
            {state: tuple(inst.outgoing(state)) for state in inst.states}
            for inst in instances
        ]
        atomic_sets: List[FrozenSet[IndexedState]] = [
            frozenset(inst.atomic) for inst in instances
        ]

        initial_states: List[ProductState] = [
            combo
            for combo in itertools.product(
                *(inst.initial for inst in instances)
            )
        ]

        # BFS with discovery-order interning
        discovery_ids: Dict[ProductState, int] = {}
        discovered: List[ProductState] = []
        for state in initial_states:
            if state not in discovery_ids:
                discovery_ids[state] = len(discovered)
                discovered.append(state)
        edges: List[Tuple[int, IndexedMessage, int]] = []
        frontier: List[ProductState] = list(discovered)
        while frontier:
            current = frontier.pop()
            current_id = discovery_ids[current]
            atomic_positions = [
                j for j in positions if current[j] in atomic_sets[j]
            ]
            if not atomic_positions:
                movable: Sequence[int] = positions
            elif len(atomic_positions) == 1:
                # only the atomic component itself may move
                movable = atomic_positions
            else:  # pragma: no cover - unreachable from legal initials
                movable = ()
            for position in movable:
                for message, target_local in local_outgoing[position][
                    current[position]
                ]:
                    target = (
                        current[:position]
                        + (target_local,)
                        + current[position + 1:]
                    )
                    target_id = discovery_ids.get(target)
                    if target_id is None:
                        target_id = len(discovered)
                        discovery_ids[target] = target_id
                        discovered.append(target)
                        frontier.append(target)
                    edges.append((current_id, message, target_id))

        # final dense IDs follow the states' sort order, so integer
        # comparisons agree with object comparisons everywhere
        state_table = tuple(sorted(discovered))
        state_ids = {state: i for i, state in enumerate(state_table)}
        final_of = [0] * len(discovered)
        for discovery_id, state in enumerate(discovered):
            final_of[discovery_id] = state_ids[state]
        message_table = tuple(sorted({message for _, message, _ in edges}))
        message_ids = {m: i for i, m in enumerate(message_table)}
        id_edges = sorted(
            (final_of[src], message_ids[message], final_of[tgt])
            for src, message, tgt in edges
        )
        # (the edge sort above equals sorting InterleavedTransition
        # objects, so the CSR order is the historical transition order)
        interned = _finish_interning(
            state_table, message_table, message_ids, id_edges
        )
        stop_sets = [frozenset(inst.stop) for inst in instances]
        stop_ids = frozenset(
            i
            for i, s in enumerate(state_table)
            if all(s[j] in stop_sets[j] for j in positions)
        )
        perf.add("interleave_states_expanded", len(state_table))
        perf.add("interleave_transitions", len(id_edges))
        return InterleavedFlow(
            components=instances,
            initial_ids=[state_ids[s] for s in set(initial_states)],
            stop_ids=stop_ids,
            interned=interned,
        )


def interleave_flows(
    flows: Sequence[Flow], copies: int = 1
) -> InterleavedFlow:
    """Convenience wrapper: index *copies* instances of each flow
    (legally, via :func:`repro.core.indexing.index_flows`) and
    interleave them all."""
    if copies < 1:
        raise InterleavingError(f"copies must be >= 1, got {copies}")
    expanded: List[Flow] = []
    for flow in flows:
        expanded.extend([flow] * copies)
    return interleave(index_flows(expanded))
