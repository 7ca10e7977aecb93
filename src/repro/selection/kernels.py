"""Vectorized localization kernels and the cross-shard table registry.

The per-event inner loop of the serving stack is the localization DP:
every FEED chunk the debug server accepts walks
:meth:`~repro.selection.localization.PathLocalizer.advance_frontier`
one symbol at a time through Python dicts -- per-edge hashing, per-edge
dict churn, and a heap-based invisible-closure walk per symbol.  This
module compiles the interleaved flow's CSR adjacency into **transition
operators** so that a frontier becomes a sorted ``(state IDs, weights)``
vector pair over the *live* states and consuming one observed symbol is
a fixed, small number of gather/scatter-add kernel calls:

* **per-symbol operators** -- for every visible message ID (and for
  every plain message, the union over its instances) the ``(source,
  target)`` state-ID pairs of the edges it labels, sorted by source:
  the matched step locates each live state's edge run by binary
  search, expands the runs with one repeat/cumsum gather, and reduces
  duplicate targets with one scatter-add -- O(live states + touched
  edges), never O(product states);
* **the invisible-closure matrix** -- the transitive path counts
  ``paths(i -> j)`` along non-traced edges, precomputed once per
  ``(scenario, visible set)`` as source-sorted triplets, so closure
  expansion is the same row-gather/scatter-add instead of a heap
  relaxation per symbol;
* **chunk-batched stepping** -- :meth:`PathLocalizer.advance_many
  <repro.selection.localization.PathLocalizer.advance_many>` feeds a
  whole FEED chunk through the kernels in one call, amortizing the
  sparse-map/vector conversions over the chunk.

When :mod:`numpy` is available the kernels run on ``int64`` arrays;
otherwise a pure-Python fallback runs the same compiled tables with
dict frontiers and precompiled closure ranges (exact big-int
arithmetic, no third-party imports).  Equality with the reference
engine is **bit-identical** by construction: all weights are integers,
integer addition is order-independent, and the numpy path is guarded
by an exact compile-time overflow bound -- any step whose weights
could overflow ``int64`` is transparently promoted to the pure-Python
kernels (counted as ``localize_kernel_promotions``).

Compiled tables are immutable after construction and shared across
sessions and shard lanes through a content-addressed
:class:`TableRegistry` keyed by the ``(scenario, visible-set)``
fingerprint -- previously every
:class:`~repro.stream.session.SessionManager` (one per server shard)
rebuilt identical DP tables.  The registry exports hit/miss/byte
counters for the service metrics plane.  On the numpy backend it also
persists each table set's arrays in the runtime artifact cache under
the same fingerprint (checksummed), so a fresh process loads them
instead of recompiling.

Engine selection is controlled by the ``REPRO_LOCALIZE_ENGINE``
environment variable (``dense``, the default, or ``reference`` -- the
escape hatch back to the historical dict engine) or explicitly per
:class:`~repro.selection.localization.PathLocalizer`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import threading
import zlib
from array import array
from collections import OrderedDict
from concurrent.futures import Future
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import perf
from repro.core.interleave import InterleavedFlow
from repro.core.message import IndexedMessage, Message
from repro.errors import SelectionError
from repro.runtime.cache import CORRUPT, DISK, ArtifactCache, default_cache

try:  # numpy is optional: the pure-Python kernels are the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _force_python
    _np = None

#: Engine names :func:`resolve_engine_name` accepts.
ENGINES = ("dense", "reference")

#: Environment variable selecting the default localization engine.
ENGINE_ENV = "REPRO_LOCALIZE_ENGINE"

_INT64_MAX = 2**63 - 1

#: Test hook: set to ``True`` to force the pure-Python kernels even
#: when numpy is importable (the CI fallback leg simply has no numpy).
#: Flip it *before* compiling tables -- a table is pinned to the
#: backend it was compiled under.
_force_python = False


def have_numpy() -> bool:
    """Whether the numpy kernel backend is available (and not forced
    off by the test hook)."""
    return _np is not None and not _force_python


def resolve_engine_name(explicit: Optional[str] = None) -> str:
    """The engine a localizer should use: *explicit* when given, else
    the ``REPRO_LOCALIZE_ENGINE`` environment variable, else ``dense``
    when numpy is available and ``reference`` otherwise.

    Without numpy the dense engine falls back to pure-Python kernels
    that are bit-identical but slower than the reference DP on typical
    frontiers, so defaulting to it would be a silent regression; it
    stays reachable via ``engine="dense"`` or the environment variable.

    Raises :class:`~repro.errors.SelectionError` on unknown names, so a
    typo in the environment fails loudly at construction rather than
    silently picking a default.
    """
    name = explicit if explicit is not None else os.environ.get(ENGINE_ENV)
    if name is None or name == "":
        return "dense" if have_numpy() else "reference"
    if name not in ENGINES:
        raise SelectionError(
            f"unknown localization engine {name!r}; choose "
            f"{' or '.join(ENGINES)} (via {ENGINE_ENV} or engine=)"
        )
    return name


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def table_fingerprint(
    interleaved: InterleavedFlow, visible_mid: Sequence[bool]
) -> str:
    """Content hash of ``(scenario, visible set)``.

    Hashes the interned CSR arrays, the message table's identity (name,
    index, width, parent -- everything that affects matching), the
    initial/stop sets, and the per-message visibility vector.  Two
    localizers over structurally identical products with the same
    traced set produce the same fingerprint regardless of process,
    hash seed, or object identity -- which is what lets every server
    shard share one compiled table set.
    """
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    digest = hashlib.sha256()
    digest.update(
        repr(
            tuple(
                (m.index, m.message.name, m.message.width, m.message.parent)
                for m in interleaved.indexed_messages
            )
        ).encode("utf-8")
    )
    for arr in (
        offsets,
        msg_ids,
        targets,
        tuple(interleaved.initial_ids),
        tuple(sorted(interleaved.stop_ids)),
    ):
        digest.update(array("q", arr).tobytes())
        digest.update(b"|")
    digest.update(bytes(bytearray(1 if v else 0 for v in visible_mid)))
    return digest.hexdigest()


#: Version of the persisted table payload (:meth:`CompiledTables.
#: payload`); bump it whenever the payload's layout or meaning changes.
TABLE_FORMAT = 1

_PAYLOAD_FIELDS = (
    "byteorder",
    "num_states",
    "step_growth",
    "closure_growth",
    "mids",
    "plain_mids",
)


def _payload_crc(payload: Mapping[str, object]) -> int:
    """``zlib.crc32`` over a table payload's fields, array lengths and
    array bytes -- read through buffer views, so no array is copied."""
    arrays = payload["arrays"]
    fields = tuple(payload[name] for name in _PAYLOAD_FIELDS) + (
        tuple(memoryview(arr).nbytes for arr in arrays),
    )
    crc = zlib.crc32(repr(fields).encode("ascii"))
    for arr in arrays:
        crc = zlib.crc32(arr, crc)
    return crc


# ----------------------------------------------------------------------
# compiled operators
# ----------------------------------------------------------------------
def _sorted_edges(
    pairs: List[Tuple[int, int]],
) -> Tuple[List[int], List[int], int]:
    """Sort ``(source, target)`` pairs: ``(sources, targets, growth)``,
    where ``growth`` is the largest number of edges sharing a target
    (the exact per-step weight amplification the overflow guard
    uses)."""
    pairs = sorted(pairs)
    targets = [t for _, t in pairs]
    multiplicity: Dict[int, int] = {}
    for t in targets:
        multiplicity[t] = multiplicity.get(t, 0) + 1
    return (
        [s for s, _ in pairs],
        targets,
        max(multiplicity.values(), default=0),
    )


def _indexable(values):
    """*values* for per-element reads by the pure-Python kernels: a
    list as is, an array through a zero-copy :class:`memoryview` (whose
    items are plain ints)."""
    return values if isinstance(values, list) else memoryview(values)


def _run_bounds(sources) -> Dict[int, Tuple[int, int]]:
    """Each source's contiguous run in a sorted source sequence (a list
    or an array's memoryview): ``{source: (lo, hi)}``."""
    ranges: Dict[int, Tuple[int, int]] = {}
    lo = 0
    for i in range(1, len(sources) + 1):
        if i == len(sources) or sources[i] != sources[lo]:
            ranges[sources[lo]] = (lo, i)
            lo = i
    return ranges


class _Operator:
    """One observable symbol's visible edges, sorted by source state.

    ``src``/``tgt`` are read-only ``int64`` arrays on the numpy backend
    and lists on the pure-Python one.  The pure-Python kernels walk
    ``ranges`` (source -> run bounds) and ``tgt_list``, which
    :meth:`CompiledTables._ensure_python_fallback` derives from the
    arrays on first use.
    """

    __slots__ = ("src", "tgt", "tgt_list", "ranges")

    def __init__(self, src, tgt) -> None:
        self.src = src
        self.tgt = tgt
        self.tgt_list: Optional[Sequence[int]] = None
        self.ranges: Optional[Dict[int, Tuple[int, int]]] = None

    def __len__(self) -> int:
        return len(self.src)

    @property
    def nbytes(self) -> int:
        return 16 * len(self.src)


class _StepResult:
    """One kernel step's output frontier.

    ``matched``/``closed`` are sparse vectors in the backend's
    representation: ``(ids, weights)`` sorted int64 array pairs on
    numpy, plain dicts on the pure-Python kernels.  ``size`` is the
    number of live states in ``closed`` (every stored weight is
    positive, so it equals the reference engine's ``len(closed)``).
    """

    __slots__ = ("matched", "closed", "size")

    def __init__(self, matched, closed, size: int) -> None:
        self.matched = matched
        self.closed = closed
        self.size = size


def _expand_runs(lo, counts, total: int):
    """Indices selecting, for every row ``i``, the half-open run
    ``[lo[i], lo[i] + counts[i])`` -- the vectorized equivalent of a
    per-row inner loop (repeat/cumsum index expansion)."""
    cum = _np.cumsum(counts)
    return (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(cum - counts, counts)
        + _np.repeat(lo, counts)
    )


def _reduce_by_id(ids, weights):
    """Sum *weights* grouped by *ids*: sorted unique ids plus int64
    sums (exact -- ``np.add.at`` accumulates in int64, never float)."""
    uniq, inverse = _np.unique(ids, return_inverse=True)
    sums = _np.zeros(uniq.size, dtype=_np.int64)
    _np.add.at(sums, inverse, weights)
    return uniq, sums


#: Gather sizes from which the bincount-based reduction beats
#: ``np.unique`` (whose argsort dominates wide closure expansions).
_BINCOUNT_MIN = 4096

#: Above this many addends the split-float reduction can no longer
#: guarantee exact float64 sums (2^21 addends x 2^32 <= 2^53).
_BINCOUNT_MAX = 1 << 21

_SPLIT_MASK = (1 << 31) - 1

#: Bound on the per-table step memo (content-keyed ``(frontier,
#: symbol) -> result`` cache shared across sessions and shards).
_MEMO_SLOTS = 1024


class CompiledTables:
    """The compiled localization tables of one ``(scenario, visible
    set)``.

    Immutable after construction (numpy arrays are marked read-only),
    so one instance is safely shared across every session and shard
    lane localizing the same scenario.  The one constructor takes the
    arrays: :func:`compile_tables` builds them (the heavy part is the
    invisible-closure transitive path-count matrix, computed once there
    instead of being re-walked per observed symbol by the reference
    engine), :meth:`from_payload` reads them back from the runtime
    cache.

    *mid_ops* maps a message ID to its operator's ``(src, tgt)``;
    *plain_ops* does the same for the merged operator of each plain
    message, keyed by the first message ID of that message.  *closure*
    is the ``(src, tgt, weight)`` triplet of the closure matrix.  The
    arrays are read-only ``int64`` numpy arrays, or lists on the
    pure-Python backend.  *step_growth* and *closure_growth* bound one
    advance's weight amplification (the exact int64-overflow guard).
    """

    def __init__(
        self,
        messages: Sequence[IndexedMessage],
        num_states: int,
        mid_ops: Mapping[int, Tuple[object, object]],
        plain_ops: Mapping[int, Tuple[object, object]],
        closure: Tuple[object, object, object],
        step_growth: int,
        closure_growth: int,
    ) -> None:
        self.num_states = num_states
        self.op_by_mid: Dict[int, _Operator] = {
            mid: _Operator(src, tgt) for mid, (src, tgt) in mid_ops.items()
        }
        self._plain_ops: Dict[int, _Operator] = {
            mid: _Operator(src, tgt) for mid, (src, tgt) in plain_ops.items()
        }
        self.op_by_plain: Dict[Message, _Operator] = {
            messages[mid].message: op for mid, op in self._plain_ops.items()
        }
        self._csrc, self._ctgt, self._cweight = closure
        self._numpy = not isinstance(self._ctgt, list)
        self.closure_entries = len(self._ctgt)

        # exact int64-overflow guard: one advance multiplies the peak
        # weight by at most step_growth (matched scatter-add) and then
        # by closure_growth (worst closure column sum plus the
        # identity term)
        self.step_growth = step_growth
        self.closure_growth = closure_growth
        growth = max(1, step_growth) * closure_growth
        self.int64_limit = (
            _INT64_MAX // growth if growth <= _INT64_MAX else 0
        )

        self.nbytes = (
            sum(op.nbytes for op in self._operators())
            + 24 * self.closure_entries
        )

        # the pure-Python kernels' closure structures (and each
        # operator's tgt_list/ranges), derived on first use by
        # _ensure_python_fallback
        self._python_lock = threading.Lock()
        self._ctgt_list: Optional[Sequence[int]] = None
        self._cweight_list: Optional[Sequence[int]] = None
        self._cranges: Optional[Dict[int, Tuple[int, int]]] = None

        # content-keyed step memo: sessions localizing the same
        # scenario share not just the tables but the hot DP steps --
        # concurrent streams overlap heavily on the wide early
        # frontiers, which are exactly the expensive ones.  Keys are
        # the raw frontier bytes plus the operator's identity, so a
        # hit is exact by construction; results are frozen read-only.
        self._memo_lock = threading.Lock()
        self._memo: "OrderedDict[Tuple[int, bytes, bytes], _StepResult]" = (
            OrderedDict()
        )
        perf.add("localize_table_bytes", self.nbytes)

    def _operators(self) -> List[_Operator]:
        return [*self.op_by_mid.values(), *self._plain_ops.values()]

    def _ensure_python_fallback(self) -> None:
        """Derive the pure-Python kernels' structures from the arrays,
        once, under the table's lock.  On the numpy backend only a step
        whose weights could overflow int64 runs those kernels, so a
        table that never needs them never builds them; and they read
        the arrays through memoryviews, so only the run-bound dicts
        take memory."""
        if self._cranges is not None:
            return
        with self._python_lock:
            if self._cranges is not None:
                return
            for op in self._operators():
                op.tgt_list = _indexable(op.tgt)
                op.ranges = _run_bounds(_indexable(op.src))
            self._ctgt_list = _indexable(self._ctgt)
            self._cweight_list = _indexable(self._cweight)
            # published last: the unlocked check above reads it
            self._cranges = _run_bounds(_indexable(self._csrc))

    # ------------------------------------------------------------------
    # persistence (numpy backend only)
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, object]:
        """The tables as plain data for the runtime cache.

        The arrays go in as :class:`pickle.PickleBuffer` views, so
        pickling writes them straight from the tables' memory and
        unpickling yields :class:`bytes` -- no class instances, and no
        copy of the arrays on either side.  ``crc`` is a ``zlib.crc32``
        over every field and array (:func:`_payload_crc`).
        """
        arrays = [self._csrc, self._ctgt, self._cweight]
        for op in self._operators():
            arrays += [op.src, op.tgt]
        payload: Dict[str, object] = {
            "byteorder": sys.byteorder,
            "num_states": self.num_states,
            "step_growth": self.step_growth,
            "closure_growth": self.closure_growth,
            "mids": list(self.op_by_mid),
            "plain_mids": list(self._plain_ops),
            "arrays": [pickle.PickleBuffer(arr) for arr in arrays],
        }
        payload["crc"] = _payload_crc(payload)
        return payload

    @classmethod
    def from_payload(
        cls, interleaved: InterleavedFlow, payload: object
    ) -> Optional["CompiledTables"]:
        """The tables a :meth:`payload` describes, or ``None`` when it
        does not check out (byte order, shape or checksum)."""
        try:
            if (
                payload["byteorder"] != sys.byteorder
                or payload["num_states"] != interleaved.num_states
                or payload["crc"] != _payload_crc(payload)
            ):
                return None
            arrays = []
            for buffer in payload["arrays"]:
                arr = _np.frombuffer(buffer, dtype=_np.int64)
                arr.flags.writeable = False
                arrays.append(arr)
            mids, plain = payload["mids"], payload["plain_mids"]
            if len(arrays) != 3 + 2 * (len(mids) + len(plain)):
                return None
            pairs = list(zip(arrays[3::2], arrays[4::2]))
            return cls(
                interleaved.indexed_messages,
                payload["num_states"],
                dict(zip(mids, pairs[: len(mids)])),
                dict(zip(plain, pairs[len(mids):])),
                (arrays[0], arrays[1], arrays[2]),
                payload["step_growth"],
                payload["closure_growth"],
            )
        except (KeyError, IndexError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # vector plumbing
    # ------------------------------------------------------------------
    def scatter(self, weights: Mapping[int, int]):
        """A kernel frontier vector from a sparse ``{state ID:
        weight}`` mapping -- a sorted int64 array pair when the numpy
        backend may run, a plain dict otherwise."""
        if self._numpy and self.int64_limit:
            if all(w <= self.int64_limit for w in weights.values()):
                items = sorted(weights.items())
                ids = _np.asarray([i for i, _ in items], dtype=_np.int64)
                vals = _np.asarray([w for _, w in items], dtype=_np.int64)
                return (ids, vals)
        return dict(weights)

    @staticmethod
    def harvest(vec) -> Dict[int, int]:
        """The sparse ``{state ID: weight}`` dict of a kernel vector
        (ascending state IDs on the numpy backend -- deterministic and
        hash-seed free)."""
        if isinstance(vec, dict):
            return dict(vec)
        ids, vals = vec
        return dict(zip((int(i) for i in ids), (int(w) for w in vals)))

    # ------------------------------------------------------------------
    # the kernels
    # ------------------------------------------------------------------
    def advance(self, closed_vec, op: Optional[_Operator]) -> _StepResult:
        """One localization step: gather the live states' edge runs
        through *op*, reduce duplicate targets, then expand the
        invisible closure.

        ``closed_vec`` is the previous frontier's closure vector; a
        ``None``/empty operator (the symbol labels no product edge)
        yields the dead frontier.  The numpy path runs while the exact
        overflow guard allows it; otherwise the step is promoted to
        the pure-Python kernels (same tables, big-int weights).
        """
        if op is None or len(op) == 0:
            if isinstance(closed_vec, dict):
                return _StepResult({}, {}, 0)
            empty = _np.empty(0, dtype=_np.int64)
            return _StepResult((empty, empty), (empty, empty), 0)
        if not isinstance(closed_vec, dict):
            ids, vals = closed_vec
            if vals.size == 0:
                return _StepResult(closed_vec, closed_vec, 0)
            if int(vals.max()) <= self.int64_limit:
                key = (id(op), ids.tobytes(), vals.tobytes())
                with self._memo_lock:
                    hit = self._memo.get(key)
                    if hit is not None:
                        self._memo.move_to_end(key)
                if hit is not None:
                    perf.add("localize_step_memo_hits")
                    return hit
                perf.add("localize_step_memo_misses")
                result = self._advance_numpy(ids, vals, op)
                for pair in (result.matched, result.closed):
                    pair[0].flags.writeable = False
                    pair[1].flags.writeable = False
                with self._memo_lock:
                    self._memo[key] = result
                    while len(self._memo) > _MEMO_SLOTS:
                        self._memo.popitem(last=False)
                return result
            perf.add("localize_kernel_promotions")
            closed_vec = dict(
                zip((int(i) for i in ids), (int(w) for w in vals))
            )
        return self._advance_python(closed_vec, op)

    def _reduce(self, ids, weights):
        """Sum *weights* grouped by *ids*, exactly, picking the faster
        strategy for the gather size.

        Small gathers use :func:`_reduce_by_id`; wide ones (the
        closure expansion of a wide frontier) use two ``bincount``
        passes over 31-bit weight halves carried as float64 -- exact
        because each half's partial sums stay below 2^53 for up to
        2^21 addends, and the recombined ``(hi << 31) + lo`` cannot
        overflow when the true sum fits int64 (which the compile-time
        overflow guard already ensures).
        """
        if _BINCOUNT_MIN <= ids.size <= _BINCOUNT_MAX:
            lo_sum = _np.bincount(
                ids,
                weights=(weights & _SPLIT_MASK).astype(_np.float64),
                minlength=self.num_states,
            )
            hi_sum = _np.bincount(
                ids,
                weights=(weights >> 31).astype(_np.float64),
                minlength=self.num_states,
            )
            nz = _np.nonzero(lo_sum + hi_sum)[0]
            sums = (hi_sum[nz].astype(_np.int64) << 31) + lo_sum[nz].astype(
                _np.int64
            )
            return nz, sums
        return _reduce_by_id(ids, weights)

    def _advance_numpy(self, ids, vals, op: _Operator) -> _StepResult:
        lo = _np.searchsorted(op.src, ids, side="left")
        hi = _np.searchsorted(op.src, ids, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            empty = _np.empty(0, dtype=_np.int64)
            if perf.enabled():
                perf.add("localize_kernel_edges", int(ids.size))
            return _StepResult((empty, empty), (empty, empty), 0)
        sel = _expand_runs(lo, counts, total)
        m_ids, m_vals = self._reduce(op.tgt[sel], _np.repeat(vals, counts))
        # closure expansion over the matched states' precomputed rows
        clo = _np.searchsorted(self._csrc, m_ids, side="left")
        chi = _np.searchsorted(self._csrc, m_ids, side="right")
        ccounts = chi - clo
        ctotal = int(ccounts.sum())
        if ctotal:
            csel = _expand_runs(clo, ccounts, ctotal)
            c_ids, c_vals = self._reduce(
                _np.concatenate((m_ids, self._ctgt[csel])),
                _np.concatenate(
                    (m_vals, self._cweight[csel] * _np.repeat(m_vals, ccounts))
                ),
            )
        else:
            c_ids, c_vals = m_ids, m_vals
        if perf.enabled():
            perf.add("localize_kernel_edges", total + ctotal)
        return _StepResult((m_ids, m_vals), (c_ids, c_vals), int(c_ids.size))

    def _advance_python(
        self, closed_vec: Dict[int, int], op: _Operator
    ) -> _StepResult:
        self._ensure_python_fallback()
        matched: Dict[int, int] = {}
        edges = 0
        tgt = op.tgt_list
        for s, w in closed_vec.items():
            run = op.ranges.get(s)
            if run is not None:
                edges += run[1] - run[0]
                for e in range(run[0], run[1]):
                    t = tgt[e]
                    matched[t] = matched.get(t, 0) + w
        closed = dict(matched)
        ctgt = self._ctgt_list
        cweight = self._cweight_list
        for s, w in matched.items():
            run = self._cranges.get(s)
            if run is not None:
                edges += run[1] - run[0]
                for e in range(run[0], run[1]):
                    t = ctgt[e]
                    closed[t] = closed.get(t, 0) + w * cweight[e]
        if perf.enabled():
            perf.add("localize_kernel_edges", edges)
        return _StepResult(matched, closed, len(closed))


def compile_tables(
    interleaved: InterleavedFlow, visible_mid: Sequence[bool]
) -> CompiledTables:
    """Compile the localization tables of ``(interleaved, visible
    set)`` -- what :class:`TableRegistry` does when neither memory nor
    the runtime cache holds them."""
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    n = len(offsets) - 1

    # visible edges grouped by message ID
    by_mid: Dict[int, List[Tuple[int, int]]] = {}
    invisible: List[List[int]] = [[] for _ in range(n)]
    for sid in range(n):
        for e in range(offsets[sid], offsets[sid + 1]):
            mid = msg_ids[e]
            if visible_mid[mid]:
                by_mid.setdefault(mid, []).append((sid, targets[e]))
            else:
                invisible[sid].append(targets[e])
    # merged operators for plain (un-indexed) observations: the union
    # of every instance's edges, keyed by the message's first ID
    table = interleaved.indexed_messages
    first_mid: Dict[Message, int] = {}
    plain_pairs: Dict[int, List[Tuple[int, int]]] = {}
    for mid, pairs in by_mid.items():
        key = first_mid.setdefault(table[mid].message, mid)
        plain_pairs.setdefault(key, []).extend(pairs)

    # invisible-closure path counts: source-sorted triplets of
    # paths(i -> j) over non-traced edges (j != i; the identity term
    # is implicit in the ``closed = matched + ...`` application),
    # built by a reverse-topological DP
    order = interleaved.topological_ids()
    rows: List[Optional[Dict[int, int]]] = [None] * n
    csrc: List[int] = []
    ctgt: List[int] = []
    cweight: List[int] = []
    for sid in reversed(order):
        row: Dict[int, int] = {}
        for t in invisible[sid]:
            row[t] = row.get(t, 0) + 1
            inner = rows[t]
            if inner:
                for j, w in inner.items():
                    row[j] = row.get(j, 0) + w
        rows[sid] = row
    col_sums: Dict[int, int] = {}
    for sid in range(n):
        row = rows[sid]
        if not row:
            continue
        for j in sorted(row):
            csrc.append(sid)
            ctgt.append(j)
            cweight.append(row[j])
            col_sums[j] = col_sums.get(j, 0) + row[j]
    del rows

    # closure weights beyond int64 (pathological products) keep the
    # tables on the pure-Python kernels
    numpy = have_numpy() and max(cweight, default=0) <= _INT64_MAX

    def frozen(values: List[int]):
        if not numpy:
            return values
        arr = _np.asarray(values, dtype=_np.int64)
        arr.flags.writeable = False
        return arr

    step_growth = 0
    mid_ops: Dict[int, Tuple[object, object]] = {}
    plain_ops: Dict[int, Tuple[object, object]] = {}
    for grouped, ops in ((by_mid, mid_ops), (plain_pairs, plain_ops)):
        for mid, pairs in grouped.items():
            src, tgt, growth = _sorted_edges(pairs)
            ops[mid] = (frozen(src), frozen(tgt))
            step_growth = max(step_growth, growth)

    tables = CompiledTables(
        table,
        n,
        mid_ops,
        plain_ops,
        (frozen(csrc), frozen(ctgt), frozen(cweight)),
        step_growth,
        1 + max(col_sums.values(), default=0),
    )
    perf.add("localize_table_compiles")
    return tables


# ----------------------------------------------------------------------
# the cross-shard registry
# ----------------------------------------------------------------------
class TableRegistry:
    """Content-addressed cache of :class:`CompiledTables`.

    Keyed by :func:`table_fingerprint`, bounded LRU.  Every
    :class:`~repro.selection.localization.PathLocalizer` running the
    dense engine resolves its tables here, so the debug server's
    per-shard :class:`~repro.stream.session.SessionManager` lanes (and
    any number of concurrent sessions) share one read-only table set
    per scenario instead of each rebuilding it.  ``stats()`` feeds the
    service metrics plane (``STATS`` frame, ``/metrics``, ``repro
    profile --json``).

    On the numpy backend the registry is backed by the runtime
    artifact cache (:func:`~repro.runtime.cache.default_cache`): a
    miss first loads the tables' :meth:`CompiledTables.payload` from
    the entry ``localize-tables-<TABLE_FORMAT>-<fingerprint>``
    (``disk_hits``) and compiles only when there is none, storing what
    it compiled.  An entry that fails its checksum, byte-order or
    shape check is counted in ``disk_rejects``, recompiled and
    rewritten.
    """

    def __init__(self, max_tables: int = 32) -> None:
        if max_tables < 1:
            raise SelectionError(
                f"max_tables must be >= 1, got {max_tables}"
            )
        self._lock = threading.Lock()
        self._tables: "OrderedDict[str, CompiledTables]" = OrderedDict()
        #: Builds in flight, by fingerprint: a cold caller publishes one
        #: here under the lock, so concurrent cold callers wait for its
        #: tables instead of each loading or compiling a private copy.
        self._building: Dict[str, "Future[CompiledTables]"] = {}
        self._max_tables = max_tables
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0
        self._disk_rejects = 0

    def get(
        self, interleaved: InterleavedFlow, visible_mid: Sequence[bool]
    ) -> CompiledTables:
        """The compiled tables for ``(interleaved, visible set)`` --
        cached by content hash, loaded or built (and published) on
        first use.

        Each fingerprint is loaded or compiled once: callers arriving
        while it builds block on the in-flight build (counted as hits,
        and as ``localize_table_waits``) and get the same object; a
        build that raises wakes them with its error."""
        key = table_fingerprint(interleaved, visible_mid)
        owner = False
        with self._lock:
            cached = self._tables.get(key)
            if cached is not None:
                self._tables.move_to_end(key)
                self._hits += 1
                perf.add("localize_table_hits")
                return cached
            build = self._building.get(key)
            if build is not None:
                self._hits += 1
            else:
                build = self._building[key] = Future()
                self._misses += 1
                owner = True
        if not owner:
            perf.add("localize_table_waits")
            return build.result()
        perf.add("localize_table_misses")
        cache = default_cache() if have_numpy() else None
        entry = f"localize-tables-{TABLE_FORMAT}-{key}"
        built = None
        try:
            if cache is not None:
                built = self._load(cache, entry, interleaved)
            compiled = built is None
            if compiled:
                with perf.timed("localize_compile"):
                    built = compile_tables(interleaved, visible_mid)
        except BaseException as exc:
            with self._lock:
                del self._building[key]
            build.set_exception(exc)
            raise
        with self._lock:
            del self._building[key]
            self._tables[key] = built
            while len(self._tables) > self._max_tables:
                self._tables.popitem(last=False)
                self._evictions += 1
        build.set_result(built)
        # stored after the waiters are released; a failed write (say,
        # a read-only cache directory) only costs the next process a
        # compile
        if compiled and cache is not None and built._numpy:
            cache.put(entry, built.payload(), memory=False)
        return built

    def _load(
        self, cache: ArtifactCache, entry: str, interleaved: InterleavedFlow
    ) -> Optional[CompiledTables]:
        """The tables persisted under *entry* in *cache*, or ``None``."""
        with perf.timed("localize_table_load"):
            outcome, payload = cache.lookup(entry, memory=False)
            tables = (
                CompiledTables.from_payload(interleaved, payload)
                if outcome == DISK
                else None
            )
        if tables is not None:
            with self._lock:
                self._disk_hits += 1
            perf.add("localize_table_disk_hits")
        elif outcome in (DISK, CORRUPT):
            with self._lock:
                self._disk_rejects += 1
            perf.add("localize_table_disk_rejects")
        return tables

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()

    def stats(self) -> Dict[str, object]:
        """Hit/miss/byte counters for the observability plane."""
        with self._lock:
            tables = list(self._tables.values())
            hits, misses, evictions = self._hits, self._misses, self._evictions
            disk_hits, disk_rejects = self._disk_hits, self._disk_rejects
        return {
            "tables": len(tables),
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "disk_hits": disk_hits,
            "disk_rejects": disk_rejects,
            "bytes": sum(t.nbytes for t in tables),
            "closure_entries": sum(t.closure_entries for t in tables),
            "step_memo_entries": sum(len(t._memo) for t in tables),
            "backend": "numpy" if have_numpy() else "python",
        }


#: Process-wide registry every dense localizer shares by default.
_DEFAULT_REGISTRY = TableRegistry()


def default_registry() -> TableRegistry:
    """The process-wide shared :class:`TableRegistry`."""
    return _DEFAULT_REGISTRY
