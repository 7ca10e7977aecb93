"""Shared fixtures: the paper's running example and small helper flows."""

from __future__ import annotations

import os

import pytest

from repro.core.flow import Flow, Transition
from repro.core.indexing import index_flows
from repro.core.interleave import interleave, interleave_flows
from repro.core.message import Message
from repro.examples_builtin import toy_cache_coherence_flow


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the runtime artifact cache at a per-session temp dir so
    tests never read or pollute the user's ``~/.cache/repro``."""
    from repro.runtime.cache import set_default_cache

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("repro-cache")
    )
    set_default_cache(None)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
    set_default_cache(None)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty runtime artifact cache for one test.

    Points ``REPRO_CACHE_DIR`` at a new temp dir and resets the
    process-wide cache, so localization tables an earlier test
    persisted cannot turn a counted compile into a disk load.  Yields
    the directory.
    """
    from repro.runtime.cache import set_default_cache

    directory = tmp_path / "repro-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    set_default_cache(None)
    yield directory
    set_default_cache(None)


@pytest.fixture
def cc_flow() -> Flow:
    """The cache-coherence flow of Figure 1a."""
    return toy_cache_coherence_flow()


@pytest.fixture
def cc_interleaved(cc_flow):
    """Two legally indexed instances of the flow, interleaved (Figure 2)."""
    return interleave_flows([cc_flow], copies=2)


@pytest.fixture
def branching_flow() -> Flow:
    """A small flow with a branch, for non-linear-path tests.

    ``s0 --a--> s1 --b--> s3`` and ``s0 --c--> s2 --d--> s3``.
    """
    a = Message("a", 2, source="P", destination="Q")
    b = Message("b", 3, source="Q", destination="P")
    c = Message("c", 1, source="P", destination="R")
    d = Message("d", 4, source="R", destination="P")
    return Flow(
        name="Branch",
        states=["s0", "s1", "s2", "s3"],
        initial=["s0"],
        stop=["s3"],
        transitions=[
            Transition("s0", a, "s1"),
            Transition("s1", b, "s3"),
            Transition("s0", c, "s2"),
            Transition("s2", d, "s3"),
        ],
    )
