"""Dense localization kernels vs the reference engine.

The contract under test is bit-identical equality on every prefix:
frontiers, prefix/exact counts, batch outcomes, and error progress
must match the historical dict-walk engine exactly, on the numpy
kernels, the pure-Python kernels, and through the overflow-promotion
path.  All randomness is seeded -- nothing here depends on
PYTHONHASHSEED.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import perf
from repro.core.flow import Flow, Transition
from repro.core.interleave import interleave_flows
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.errors import FrontierOverflowError, SelectionError
from repro.runtime import cache as cache_module
from repro.selection import kernels
from repro.selection.kernels import (
    TableRegistry,
    resolve_engine_name,
    table_fingerprint,
)
from repro.selection.localization import PathLocalizer


@pytest.fixture
def traced(cc_flow) -> MessageCombination:
    return MessageCombination(
        [cc_flow.message_by_name("ReqE"), cc_flow.message_by_name("GntE")]
    )


def diamond_flow() -> Flow:
    """A visible entry, an invisible diamond, a visible exit.

    ``s0 -a-> s1``, then ``s1 -b-> s2 -c-> s4`` / ``s1 -d-> s3 -e->
    s4``, then ``s4 -f-> s5``.  With only ``a`` and ``f`` traced the
    diamond gives the closure genuine path *counts* (weight 2 at
    ``s4``) -- which the toy cache-coherence example never produces --
    while the initial frontier stays at weight 1 (nothing invisible
    leaves ``s0``).
    """
    a = Message("a", 2, source="P", destination="Q")
    b = Message("b", 3, source="Q", destination="P")
    c = Message("c", 1, source="P", destination="R")
    d = Message("d", 4, source="R", destination="P")
    e = Message("e", 2, source="P", destination="S")
    f = Message("f", 3, source="S", destination="P")
    return Flow(
        name="Diamond",
        states=["s0", "s1", "s2", "s3", "s4", "s5"],
        initial=["s0"],
        stop=["s5"],
        transitions=[
            Transition("s0", a, "s1"),
            Transition("s1", b, "s2"),
            Transition("s2", c, "s4"),
            Transition("s1", d, "s3"),
            Transition("s3", e, "s4"),
            Transition("s4", f, "s5"),
        ],
    )


@pytest.fixture
def diamond_pair():
    flow = diamond_flow()
    interleaved = interleave_flows([flow], copies=2)
    traced = MessageCombination(
        [flow.message_by_name("a"), flow.message_by_name("f")]
    )
    return interleaved, traced


def engines(interleaved, traced):
    """A (dense, reference) localizer pair over a private registry."""
    dense = PathLocalizer(
        interleaved, traced, engine="dense", registry=TableRegistry()
    )
    reference = PathLocalizer(interleaved, traced, engine="reference")
    return dense, reference


def random_projection(interleaved, localizer, rng):
    """The visible projection of one random complete path."""
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    table = interleaved.indexed_messages
    sid = rng.choice(sorted(interleaved.initial_ids))
    observed = []
    while offsets[sid] != offsets[sid + 1]:
        e = rng.randrange(offsets[sid], offsets[sid + 1])
        symbol = table[msg_ids[e]]
        if localizer.is_visible(symbol):
            observed.append(symbol)
        sid = targets[e]
    return observed


def assert_frontier_equal(left, right):
    assert left.matched == right.matched
    assert left.closed == right.closed
    assert left.length == right.length
    assert left.size == right.size


def cold_callers(registry, interleaved, traced, threads):
    """*threads* threads calling ``registry.get`` at once, behind a
    barrier: ``(the tables each got, the perf counters)``."""
    visible = PathLocalizer(
        interleaved, traced, engine="reference"
    )._visible_mid
    barrier = threading.Barrier(threads)
    got = [None] * threads

    def cold(index):
        barrier.wait()
        got[index] = registry.get(interleaved, visible)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with perf.collect() as counters:
            workers = [
                threading.Thread(target=cold, args=(i,))
                for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return got, counters


def assert_promotion_stays_exact(interleaved, dense, reference):
    """Force the diamond's second step onto the pure-Python kernels
    and check it against the reference engine."""
    by_name = {m.name: m for m in interleaved.messages}
    observed = [
        IndexedMessage(by_name["a"], 1),
        IndexedMessage(by_name["f"], 1),
    ]
    tables = dense._compiled_tables()
    # pretend int64 can only hold weight 1: the first step's closure
    # reaches the diamond join with weight 2, so the second step must
    # promote to the pure-Python kernels
    tables.int64_limit = 1
    with perf.collect() as counters:
        outcome = dense.advance_many(dense.initial_frontier(), observed)
    expect = reference.advance_many(reference.initial_frontier(), observed)
    assert counters.get("localize_kernel_promotions") >= 1
    assert_frontier_equal(outcome.frontier, expect.frontier)
    assert dense.prefix_count(outcome.frontier) == reference.prefix_count(
        expect.frontier
    )


class TestEngineResolution:
    def test_default_tracks_backend(self, monkeypatch):
        monkeypatch.delenv(kernels.ENGINE_ENV, raising=False)
        expected = "dense" if kernels.have_numpy() else "reference"
        assert resolve_engine_name() == expected
        monkeypatch.setattr(kernels, "_force_python", True)
        # without numpy the pure-Python dense kernels lose to the
        # reference DP, so the default flips
        assert resolve_engine_name() == "reference"
        assert resolve_engine_name("dense") == "dense"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENGINE_ENV, "dense")
        assert resolve_engine_name("reference") == "reference"

    def test_env_escape_hatch(self, monkeypatch, cc_interleaved, traced):
        monkeypatch.setenv(kernels.ENGINE_ENV, "reference")
        assert PathLocalizer(cc_interleaved, traced).engine == "reference"

    def test_empty_env_is_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENGINE_ENV, "")
        expected = "dense" if kernels.have_numpy() else "reference"
        assert resolve_engine_name() == expected

    def test_unknown_engine_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(kernels.ENGINE_ENV, "turbo")
        with pytest.raises(SelectionError, match="turbo"):
            resolve_engine_name()
        with pytest.raises(SelectionError, match="dense or reference"):
            resolve_engine_name("fast")


class TestEngineEquality:
    @pytest.mark.parametrize("seed", range(8))
    def test_stepwise_frontiers_match(self, cc_interleaved, traced, seed):
        dense, reference = engines(cc_interleaved, traced)
        rng = random.Random(seed)
        observed = random_projection(cc_interleaved, dense, rng)
        fd, fr = dense.initial_frontier(), reference.initial_frontier()
        assert_frontier_equal(fd, fr)
        for symbol in observed:
            fd = dense.advance_frontier(fd, symbol)
            fr = reference.advance_frontier(fr, symbol)
            assert_frontier_equal(fd, fr)
            assert dense.prefix_count(fd) == reference.prefix_count(fr)
            assert dense.exact_count(fd) == reference.exact_count(fr)

    @pytest.mark.parametrize("seed", range(4))
    def test_plain_message_observations_match(
        self, cc_interleaved, traced, seed
    ):
        dense, reference = engines(cc_interleaved, traced)
        rng = random.Random(seed)
        observed = [
            s.message
            for s in random_projection(cc_interleaved, dense, rng)
        ]
        for cut in range(len(observed) + 1):
            for mode in ("prefix", "exact"):
                assert (
                    dense.localize(observed[:cut], mode=mode)
                    == reference.localize(observed[:cut], mode=mode)
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_closure_matches(self, diamond_pair, seed):
        # path counts above 1 flow through the closure matrix
        interleaved, traced = diamond_pair
        dense, reference = engines(interleaved, traced)
        rng = random.Random(seed)
        observed = random_projection(interleaved, dense, rng)
        fd, fr = dense.initial_frontier(), reference.initial_frontier()
        saw_weight = False
        for symbol in observed:
            fd = dense.advance_frontier(fd, symbol)
            fr = reference.advance_frontier(fr, symbol)
            assert_frontier_equal(fd, fr)
            if fr.closed and max(fr.closed.values()) > 1:
                saw_weight = True
        assert saw_weight  # the diamond closure has path counts > 1

    def test_dead_frontier_stays_dead_and_equal(
        self, cc_flow, cc_interleaved, traced
    ):
        dense, reference = engines(cc_interleaved, traced)
        gnt = cc_flow.message_by_name("GntE")
        # GntE before any ReqE kills every path
        dead_obs = [IndexedMessage(gnt, 1), IndexedMessage(gnt, 2)]
        od = dense.advance_many(dense.initial_frontier(), dead_obs)
        orf = reference.advance_many(reference.initial_frontier(), dead_obs)
        assert_frontier_equal(od.frontier, orf.frontier)
        assert od.frontier.is_dead
        assert od.consumed == orf.consumed == 2
        assert dense.prefix_count(od.frontier) == 0


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk", (1, 2, 3, 100))
    def test_batches_equal_stepwise(
        self, cc_interleaved, traced, chunk
    ):
        dense, reference = engines(cc_interleaved, traced)
        observed = random_projection(
            cc_interleaved, dense, random.Random(1)
        )
        stepwise = reference.initial_frontier()
        peak = stepwise.size
        for symbol in observed:
            stepwise = reference.advance_frontier(stepwise, symbol)
            peak = max(peak, stepwise.size)
        frontier = dense.initial_frontier()
        consumed = 0
        batch_peak = frontier.size
        for lo in range(0, len(observed), chunk):
            outcome = dense.advance_many(
                frontier, observed[lo:lo + chunk]
            )
            frontier = outcome.frontier
            consumed += outcome.consumed
            batch_peak = max(batch_peak, outcome.peak_size)
        assert_frontier_equal(frontier, stepwise)
        assert consumed == len(observed)
        assert batch_peak == peak

    def test_empty_batch_is_identity(self, cc_interleaved, traced):
        dense, _ = engines(cc_interleaved, traced)
        start = dense.initial_frontier()
        outcome = dense.advance_many(start, ())
        assert outcome.frontier is start
        assert outcome.consumed == 0
        assert outcome.peak_size == start.size


class TestBatchErrors:
    def test_untraced_symbol_carries_progress(
        self, cc_flow, cc_interleaved, traced
    ):
        req = cc_flow.message_by_name("ReqE")
        untraced = cc_flow.message_by_name("Ack")
        batch = [IndexedMessage(req, 1), IndexedMessage(untraced, 1)]
        outcomes = {}
        for name, loc in zip(
            ("dense", "reference"), engines(cc_interleaved, traced)
        ):
            with pytest.raises(SelectionError, match="not in the traced") as e:
                loc.advance_many(loc.initial_frontier(), batch)
            outcomes[name] = e.value
        assert outcomes["dense"].consumed == 1
        assert outcomes["reference"].consumed == 1
        assert_frontier_equal(
            outcomes["dense"].frontier, outcomes["reference"].frontier
        )
        assert (
            outcomes["dense"].peak_size == outcomes["reference"].peak_size
        )

    def test_overflow_freezes_before_the_bad_step(
        self, cc_flow, cc_interleaved, traced
    ):
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        batch = [req, gnt]  # plain: the frontier grows 1 -> 2 -> 4
        dense, reference = engines(cc_interleaved, traced)
        # find a bound the second step breaks but the first respects
        f = reference.initial_frontier()
        first = reference.advance_frontier(f, batch[0])
        second = reference.advance_frontier(first, batch[1])
        bound = second.size - 1
        assert first.size <= bound
        for loc in (dense, reference):
            with pytest.raises(FrontierOverflowError, match="grew to") as e:
                loc.advance_many(
                    loc.initial_frontier(), batch, max_frontier=bound
                )
            assert e.value.consumed == 1
            assert_frontier_equal(e.value.frontier, first)


class TestBackendsAndPromotion:
    def test_pure_python_kernels_match(
        self, monkeypatch, cc_interleaved, traced
    ):
        monkeypatch.setattr(kernels, "_force_python", True)
        dense, reference = engines(cc_interleaved, traced)
        assert not kernels.have_numpy()
        observed = random_projection(
            cc_interleaved, dense, random.Random(3)
        )
        outcome = dense.advance_many(dense.initial_frontier(), observed)
        expect = reference.advance_many(
            reference.initial_frontier(), observed
        )
        assert_frontier_equal(outcome.frontier, expect.frontier)
        assert dense._compiled_tables().int64_limit >= 0

    @pytest.mark.skipif(
        not kernels.have_numpy(), reason="needs the numpy backend"
    )
    def test_overflow_guard_promotes_and_stays_exact(self, diamond_pair):
        interleaved, traced = diamond_pair
        dense, reference = engines(interleaved, traced)
        assert_promotion_stays_exact(interleaved, dense, reference)

    @pytest.mark.skipif(
        not kernels.have_numpy(), reason="needs the numpy backend"
    )
    def test_overflow_guard_promotes_on_a_loaded_table(
        self, diamond_pair, fresh_cache
    ):
        interleaved, traced = diamond_pair
        engines(interleaved, traced)[0].warm()  # compiles and stores
        dense, reference = engines(interleaved, traced)
        tables = dense._compiled_tables()
        assert dense._registry.stats()["disk_hits"] == 1
        # the pure-Python structures are derived on the first promotion
        assert tables._cranges is None
        assert_promotion_stays_exact(interleaved, dense, reference)
        assert tables._cranges is not None


@pytest.mark.usefixtures("fresh_cache")
class TestTableRegistry:
    def test_tables_shared_by_fingerprint(self, cc_interleaved, traced):
        registry = TableRegistry()
        first = PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=registry
        )
        second = PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=registry
        )
        assert first._compiled_tables() is second._compiled_tables()
        stats = registry.stats()
        assert stats["tables"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["bytes"] > 0
        assert stats["backend"] in ("numpy", "python")

    def test_warm_resolves_through_registry(self, cc_interleaved, traced):
        registry = TableRegistry()
        PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=registry
        ).warm()
        PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=registry
        ).warm()
        assert registry.stats()["misses"] == 1
        assert registry.stats()["hits"] == 1

    def test_concurrent_cold_callers_compile_once(
        self, cc_interleaved, traced
    ):
        registry = TableRegistry()
        threads = 8
        got, counters = cold_callers(registry, cc_interleaved, traced, threads)
        assert registry.stats()["misses"] == 1
        assert counters.get("localize_table_compiles") == 1
        assert all(tables is got[0] for tables in got)
        assert registry.stats()["hits"] == threads - 1

    @pytest.mark.skipif(
        not kernels.have_numpy(), reason="needs the numpy backend"
    )
    def test_concurrent_cold_callers_on_a_warm_disk_load_once(
        self, cc_interleaved, traced
    ):
        PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=TableRegistry()
        ).warm()  # compiles and stores
        registry = TableRegistry()
        threads = 8
        got, counters = cold_callers(registry, cc_interleaved, traced, threads)
        assert registry.stats()["misses"] == 1
        assert registry.stats()["disk_hits"] == 1
        assert counters.get("localize_table_disk_hits") == 1
        assert counters.get("localize_table_compiles") == 0
        assert "localize_compile" not in counters.timings
        assert all(tables is got[0] for tables in got)
        assert registry.stats()["hits"] == threads - 1

    def test_failed_build_wakes_its_waiters(
        self, cc_interleaved, traced, monkeypatch
    ):
        registry = TableRegistry()
        visible = PathLocalizer(
            cc_interleaved, traced, engine="reference"
        )._visible_mid
        started = threading.Event()
        release = threading.Event()

        def broken(*_args):
            started.set()
            release.wait(timeout=10.0)
            raise MemoryError("no room for the tables")

        monkeypatch.setattr(kernels, "compile_tables", broken)
        errors = []

        def call():
            try:
                registry.get(cc_interleaved, visible)
            except MemoryError as exc:
                errors.append(exc)

        builder = threading.Thread(target=call)
        builder.start()
        assert started.wait(timeout=10.0)
        waiter = threading.Thread(target=call)
        waiter.start()
        # the waiter is counted (as a hit) before it blocks on the build
        deadline = time.monotonic() + 10.0
        while registry.stats()["hits"] < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        builder.join(timeout=10.0)
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert len(errors) == 2
        assert len(registry) == 0

    def test_python_backend_persists_nothing(
        self, fresh_cache, cc_interleaved, traced, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_force_python", True)
        for _ in range(2):
            registry = TableRegistry()
            with perf.collect() as counters:
                PathLocalizer(
                    cc_interleaved, traced, engine="dense", registry=registry
                ).warm()
            assert counters.get("localize_table_compiles") == 1
            assert registry.stats()["disk_hits"] == 0
        assert list(fresh_cache.glob("*.pkl")) == []

    def test_fingerprint_is_content_addressed(self, cc_flow, traced):
        # two structurally identical products fingerprint identically
        left = interleave_flows([cc_flow], copies=2)
        right = interleave_flows([cc_flow], copies=2)
        visible = tuple(
            m.message in set(traced)
            for m in left.indexed_messages
        )
        assert table_fingerprint(left, visible) == table_fingerprint(
            right, visible
        )
        # a different visible set changes the fingerprint
        flipped = tuple(not v for v in visible)
        assert table_fingerprint(left, visible) != table_fingerprint(
            left, flipped
        )

    def test_lru_eviction(self, cc_flow, cc_interleaved, traced):
        registry = TableRegistry(max_tables=1)
        all_traced = MessageCombination(list(cc_flow.messages))
        PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=registry
        ).warm()
        PathLocalizer(
            cc_interleaved, all_traced, engine="dense", registry=registry
        ).warm()
        stats = registry.stats()
        assert stats["tables"] == 1
        assert stats["evictions"] == 1
        assert len(registry) == 1
        registry.clear()
        assert len(registry) == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(SelectionError, match="max_tables"):
            TableRegistry(max_tables=0)


#: A fresh interpreter: warm the dense engine on scenario 1 (two
#: instances, every other message traced), then check it against the
#: reference engine at every prefix of 20 random paths.
FRESH_HOST = """
import json, random
from repro import perf
from repro.selection.kernels import default_registry
from repro.selection.localization import PathLocalizer
from repro.soc.t2.scenarios import scenario

u = scenario(1, instances=2).interleaved()
traced = sorted(u.messages, key=lambda m: m.name)[::2]
with perf.collect() as counters:
    dense = PathLocalizer(u, traced, engine="dense").warm()
reference = PathLocalizer(u, traced, engine="reference")
offsets, msg_ids, targets = u.csr_adjacency()
rng = random.Random(11)
prefixes, mismatches = 0, 0
for _ in range(20):
    sid = rng.choice(sorted(u.initial_ids))
    fd, fr = dense.initial_frontier(), reference.initial_frontier()
    while offsets[sid] != offsets[sid + 1]:
        e = rng.randrange(offsets[sid], offsets[sid + 1])
        symbol = u.indexed_messages[msg_ids[e]]
        sid = targets[e]
        if not dense.is_visible(symbol):
            continue
        fd = dense.advance_many(fd, [symbol]).frontier
        fr = reference.advance_many(fr, [symbol]).frontier
        prefixes += 1
        if (fd.matched, fd.closed, fd.size, dense.prefix_count(fd)) != (
            fr.matched, fr.closed, fr.size, reference.prefix_count(fr)
        ):
            mismatches += 1
print(json.dumps({
    "compiles": counters.get("localize_table_compiles"),
    "disk_hits": default_registry().stats()["disk_hits"],
    "prefixes": prefixes,
    "mismatches": mismatches,
}))
"""


def table_contents(tables):
    """Every array (as lists) and overflow-guard scalar of *tables*."""

    def arrays(op):
        return (list(op.src), list(op.tgt))

    return {
        "num_states": tables.num_states,
        "closure": (
            list(tables._csrc), list(tables._ctgt), list(tables._cweight)
        ),
        "mid_ops": {m: arrays(op) for m, op in tables.op_by_mid.items()},
        "plain_ops": {m: arrays(op) for m, op in tables.op_by_plain.items()},
        "guard": (
            tables.step_growth, tables.closure_growth, tables.int64_limit
        ),
        "nbytes": tables.nbytes,
    }


@pytest.mark.skipif(
    not kernels.have_numpy(), reason="tables persist on numpy only"
)
@pytest.mark.usefixtures("fresh_cache")
class TestPersistedTables:
    def visible(self, interleaved, traced):
        return PathLocalizer(
            interleaved, traced, engine="reference"
        )._visible_mid

    def entry(self, directory):
        path, = directory.glob("localize-tables-*.pkl")
        return path

    def test_loaded_tables_equal_compiled(self, diamond_pair):
        interleaved, traced = diamond_pair
        visible = self.visible(interleaved, traced)
        compiled = TableRegistry().get(interleaved, visible)
        loaded = TableRegistry().get(interleaved, visible)
        assert loaded is not compiled
        assert table_contents(loaded) == table_contents(compiled)
        assert not any(
            arr.flags.writeable
            for arr in (loaded._csrc, loaded._ctgt, loaded._cweight)
        )

    def test_fresh_process_loads_instead_of_compiling(self, fresh_cache):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src,
               "REPRO_CACHE_DIR": str(fresh_cache)}
        runs = [
            json.loads(subprocess.run(
                [sys.executable, "-c", FRESH_HOST],
                capture_output=True, text=True, check=True, env=env,
            ).stdout)
            for _ in range(2)
        ]
        assert (runs[0]["compiles"], runs[0]["disk_hits"]) == (1, 0)
        assert (runs[1]["compiles"], runs[1]["disk_hits"]) == (0, 1)
        for run in runs:
            assert run["prefixes"] > 0
            assert run["mismatches"] == 0

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_bad_entry_is_rejected_recompiled_and_rewritten(
        self, fresh_cache, cc_interleaved, traced, damage
    ):
        visible = self.visible(cc_interleaved, traced)
        compiled = TableRegistry().get(cc_interleaved, visible)
        path = self.entry(fresh_cache)
        good = path.read_bytes()
        if damage == "flip":
            # a byte of array data: the entry still unpickles, and only
            # the checksum can tell
            at = good.find(compiled._ctgt.tobytes())
            assert compiled.closure_entries and at > 0
            data = bytearray(good)
            data[at] ^= 0xFF
            path.write_bytes(bytes(data))
        else:
            path.write_bytes(good[: len(good) // 2])
        registry = TableRegistry()
        with perf.collect() as counters:
            rebuilt = registry.get(cc_interleaved, visible)
        stats = registry.stats()
        assert (stats["disk_hits"], stats["disk_rejects"]) == (0, 1)
        assert counters.get("localize_table_disk_rejects") == 1
        assert counters.get("localize_table_compiles") == 1
        # only an entry that does not unpickle is the cache's own error;
        # a flipped byte is caught by the checksum
        load_errors = cache_module.default_cache().stats.load_errors
        assert load_errors == (1 if damage == "truncate" else 0)
        assert table_contents(rebuilt) == table_contents(compiled)
        # rewritten: the next cold registry loads it
        assert path.read_bytes() == good
        again = TableRegistry()
        again.get(cc_interleaved, visible)
        assert again.stats()["disk_hits"] == 1

    def test_unwritable_cache_still_compiles(
        self, fresh_cache, cc_interleaved, traced, monkeypatch
    ):
        fresh_cache.mkdir()
        fresh_cache.chmod(0o555)

        def denied(*_args, **_kwargs):
            # what a read-only directory answers, even to root
            raise PermissionError(13, "Read-only file system")

        monkeypatch.setattr(cache_module.tempfile, "mkstemp", denied)
        visible = self.visible(cc_interleaved, traced)
        try:
            for _ in range(2):
                registry = TableRegistry()
                with perf.collect() as counters:
                    assert registry.get(cc_interleaved, visible)
                assert counters.get("localize_table_compiles") == 1
                assert registry.stats()["disk_hits"] == 0
            assert list(fresh_cache.iterdir()) == []
        finally:
            fresh_cache.chmod(0o755)

    def test_cache_cli_counts_and_clears_tables(
        self, fresh_cache, cc_interleaved, traced, capsys
    ):
        from repro.cli import main

        visible = self.visible(cc_interleaved, traced)
        TableRegistry().get(cc_interleaved, visible)
        assert main(["cache", "stats", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["disk_entries"] == 1
        assert snapshot["disk_bytes"] == self.entry(fresh_cache).stat().st_size
        assert main(["cache", "clear"]) == 0
        assert "cleared 1 cached artifact(s)" in capsys.readouterr().out
        assert list(fresh_cache.glob("*.pkl")) == []


class TestStepMemo:
    @pytest.mark.skipif(
        not kernels.have_numpy(), reason="needs the numpy backend"
    )
    def test_identical_steps_hit_the_memo(self, cc_interleaved, traced):
        dense, _ = engines(cc_interleaved, traced)
        observed = random_projection(
            cc_interleaved, dense, random.Random(5)
        )
        start = dense.initial_frontier()
        with perf.collect() as counters:
            first = dense.advance_many(start, observed)
            second = dense.advance_many(start, observed)
        assert counters.get("localize_step_memo_misses") == len(observed)
        assert counters.get("localize_step_memo_hits") == len(observed)
        assert_frontier_equal(first.frontier, second.frontier)

    @pytest.mark.skipif(
        not kernels.have_numpy(), reason="needs the numpy backend"
    )
    def test_memo_shared_across_sessions(self, cc_interleaved, traced):
        # two localizers over one registry share hot steps, not just
        # tables -- the cross-session serving win
        registry = TableRegistry()
        first = PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=registry
        )
        second = PathLocalizer(
            cc_interleaved, traced, engine="dense", registry=registry
        )
        observed = random_projection(
            cc_interleaved, first, random.Random(7)
        )
        first.advance_many(first.initial_frontier(), observed)
        with perf.collect() as counters:
            second.advance_many(second.initial_frontier(), observed)
        assert counters.get("localize_step_memo_hits") == len(observed)
        assert registry.stats()["step_memo_entries"] > 0


class TestWindowMemo:
    def test_repeated_windows_reuse_the_table(
        self, cc_flow, cc_interleaved, traced
    ):
        localizer = PathLocalizer(cc_interleaved, traced)
        req = cc_flow.message_by_name("ReqE")
        window = (IndexedMessage(req, 1),)
        first = localizer.window_count(window)
        with perf.collect() as counters:
            second = localizer.window_count(list(window))
        assert first == second
        assert counters.get("localize_window_memo_hits") == 1
        # the memoized replay must not redo the composed DP
        assert counters.get("localize_dp_steps") == 0
