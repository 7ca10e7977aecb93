"""The persisted scenario-selection bundle.

The bundle pickles the interleaved product as its interned tables only
(see :mod:`repro.core.interleave`), and its cache key carries the
pickled shape (``SELECTION_FORMAT``).  These tests pin that:

* a bundle entry of the old object-form shape, written under the old
  key, is never looked up -- a fresh process recomputes beside it;
* an old-shape entry found under the current key is refused on load,
  discarded and recomputed, never returned;
* a fresh host on a warm cache loads the sc3x2 bundle without expanding
  a product state, selects exactly what a fresh compute selects, and
  localizes bit-identically to the reference engine at every prefix.
"""

from __future__ import annotations

import copyreg
import io
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro import __version__
from repro.core.interleave import InterleavedFlow
from repro.experiments.common import (
    BUFFER_WIDTH,
    scenario_selection,
    selection_key,
)
from repro.runtime.artifacts import artifact_key, message_fingerprint
from repro.runtime.cache import default_cache


def old_key(number: int, instances: int, scenario) -> str:
    """The bundle key as it was before it carried ``format``."""
    return artifact_key(
        "scenario-selection",
        scenario=number,
        instances=instances,
        buffer_width=BUFFER_WIDTH,
        method="exhaustive",
        subgroup_policy="proportional",
        version=__version__,
        pool=message_fingerprint(tuple(scenario.message_pool)),
        subgroups=message_fingerprint(scenario.subgroup_pool),
    )


class _ObjectFormPickler(pickle.Pickler):
    """Pickles every product in the old object-form shape: the instance
    dict with eager ``states``/``transitions``."""

    def reducer_override(self, obj):
        if not isinstance(obj, InterleavedFlow):
            return NotImplemented
        state = {
            "components": obj.components, "states": obj.states,
            "initial": obj.initial, "stop": obj.stop,
            "transitions": obj.transitions, "_interned": obj._interned,
        }
        return copyreg.__newobj__, (InterleavedFlow,), state


def object_form_bytes(bundle) -> bytes:
    buffer = io.BytesIO()
    _ObjectFormPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(bundle)
    return buffer.getvalue()


def summary(bundle) -> dict:
    """What a selection decides, exactly (floats as reprs; the traced
    set by name, since its iteration order follows string hashing)."""
    return {
        name: {
            "traced": sorted(m.name for m in result.traced),
            "gain": repr(result.gain),
            "coverage": repr(result.coverage),
        }
        for name, result in (("with", bundle.with_packing),
                             ("without", bundle.without_packing))
    }


def run_fresh(script: str, cache_dir) -> dict:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "REPRO_CACHE_DIR": str(cache_dir),
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env, timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


SELECT = """
import json
from repro import perf
from repro.experiments.common import scenario_selection
from repro.runtime.cache import default_cache
with perf.collect() as counters:
    bundle = scenario_selection({number}, instances={instances})
stats = default_cache().stats
print(json.dumps({{
    "disk_hits": stats.disk_hits, "misses": stats.misses,
    "load_errors": stats.load_errors,
    "expanded": counters.counters.get("interleave_states_expanded", 0),
    "summary": {{
        name: {{"traced": sorted(m.name for m in r.traced),
                "gain": repr(r.gain), "coverage": repr(r.coverage)}}
        for name, r in (("with", bundle.with_packing),
                        ("without", bundle.without_packing))
    }},
}}))
"""


def test_key_carries_the_pickled_shape():
    sc = scenario_selection(1).scenario
    assert selection_key(1, 1, BUFFER_WIDTH, "exhaustive", sc) != \
        old_key(1, 1, sc)


def test_old_entry_under_old_key_is_never_read(fresh_cache):
    bundle = scenario_selection(1)
    current = fresh_cache / (
        selection_key(1, 1, BUFFER_WIDTH, "exhaustive", bundle.scenario)
        + ".pkl"
    )
    current.unlink()  # only the old entry is left on disk
    stale = fresh_cache / f"{old_key(1, 1, bundle.scenario)}.pkl"
    stale.write_bytes(object_form_bytes(bundle))
    before = stale.read_bytes()
    run = run_fresh(SELECT.format(number=1, instances=1), fresh_cache)
    assert (run["misses"], run["disk_hits"], run["load_errors"]) == (1, 0, 0)
    assert run["expanded"] > 0  # recomputed
    assert run["summary"] == summary(bundle)
    assert stale.read_bytes() == before  # untouched: never opened
    assert current.exists()


def test_old_shape_entry_under_current_key_is_recomputed(fresh_cache):
    reference = scenario_selection(1)
    key = selection_key(1, 1, BUFFER_WIDTH, "exhaustive", reference.scenario)
    entry = fresh_cache / f"{key}.pkl"
    entry.write_bytes(object_form_bytes(reference))
    with pytest.raises(Exception, match="incompatible version"):
        pickle.loads(entry.read_bytes())
    from repro.runtime.cache import set_default_cache

    set_default_cache(None)  # forget the in-memory bundle
    bundle = scenario_selection(1)
    stats = default_cache().stats
    assert (stats.load_errors, stats.misses, stats.disk_hits) == (1, 1, 0)
    assert summary(bundle) == summary(reference)
    # the discarded entry was rewritten in the current shape
    assert summary(pickle.loads(entry.read_bytes())) == summary(reference)


@pytest.fixture(scope="module")
def sc3x2():
    """The sc3x2 bundle, computed (or loaded) once into the session's
    artifact cache; yields it with that cache's directory."""
    bundle = scenario_selection(3, instances=2)
    return bundle, default_cache().directory


def test_sc3x2_bundle_pickle_is_compact(sc3x2):
    bundle, _ = sc3x2
    data = pickle.dumps(bundle, pickle.HIGHEST_PROTOCOL)
    assert len(data) < 3.5e6  # 2.9 MB measured; 11.0 MB in object form
    assert b"InterleavedTransition" not in data


FRESH_SERVE = """
import json, random
from repro import perf
from repro.runtime.cache import default_cache
from repro.selection.localization import PathLocalizer
from repro.server import ServeContext

with perf.collect() as counters:
    ctx = ServeContext.from_scenario(3, instances=2)
stats = dict(default_cache().stats.as_dict())
u = ctx.interleaved
dense = PathLocalizer(u, ctx.traced, engine="dense")
reference = PathLocalizer(u, ctx.traced, engine="reference")
offsets, msg_ids, targets = u.csr_adjacency()
rng = random.Random(5)
prefixes = mismatches = 0
for _ in range(3):
    sid = rng.choice(u.initial_ids)
    fd, fr = dense.initial_frontier(), reference.initial_frontier()
    while offsets[sid] != offsets[sid + 1]:
        e = rng.randrange(offsets[sid], offsets[sid + 1])
        symbol = u.message_at(msg_ids[e])
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
    "disk_hits": stats["disk_hits"], "misses": stats["misses"],
    "expanded": counters.counters.get("interleave_states_expanded", 0),
    "traced": sorted(m.name for m in ctx.traced),
    "prefixes": prefixes, "mismatches": mismatches,
}))
"""


def test_fresh_host_loads_sc3x2_bundle_and_localizes(sc3x2):
    bundle, directory = sc3x2
    run = run_fresh(FRESH_SERVE, directory)
    assert (run["disk_hits"], run["misses"], run["expanded"]) == (1, 0, 0)
    assert run["traced"] == sorted(m.name for m in bundle.with_packing.traced)
    assert run["prefixes"] > 0 and run["mismatches"] == 0
    selected = run_fresh(SELECT.format(number=3, instances=2), directory)
    assert (selected["disk_hits"], selected["expanded"]) == (1, 0)
    assert selected["summary"] == summary(bundle)
