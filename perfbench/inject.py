"""Artificial layer slowdowns for the benchmark's self-test.

``PERFBENCH_DELAY="repro.stream.ingest:IncrementalTraceParser.feed=0.002"``
wraps that public function so every call sleeps the given seconds
first.  The benchmark's processes (``run.py``, ``serve.py``,
``embedded.py`` and the set-up probe) apply it at start-up;
``PERFBENCH_SERVER_DELAY`` (same form) is applied by ``serve.py``
only, to slow the server without the in-process replay.  Without the
variables nothing is patched.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

ENV = "PERFBENCH_DELAY"
SERVER_ENV = "PERFBENCH_SERVER_DELAY"


def apply_from_env(variable: str = ENV) -> None:
    spec = os.environ.get(variable)
    if not spec:
        return
    target, seconds = spec.rsplit("=", 1)
    module_name, qualname = target.split(":", 1)
    owner_name, attr = qualname.rsplit(".", 1)
    owner = getattr(importlib.import_module(module_name), owner_name)
    original = getattr(owner, attr)
    delay = float(seconds)

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    setattr(owner, attr, slowed)
