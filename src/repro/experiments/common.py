"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro import __version__
from repro.runtime.artifacts import artifact_key, message_fingerprint
from repro.runtime.cache import default_cache
from repro.selection.selector import MessageSelector, SelectionResult
from repro.soc.t2.scenarios import UsageScenario, usage_scenarios

#: Trace buffer width used throughout the paper's experiments.
BUFFER_WIDTH = 32

#: Version of the bundle's pickled shape, part of its cache key.  2:
#: the interleaved product is pickled as its interned tables only, so
#: an entry of the object-form shape (1) is never looked up.
SELECTION_FORMAT = 2


@dataclass(frozen=True)
class ScenarioSelection:
    """A scenario with its with- and without-packing selections."""

    scenario: UsageScenario
    selector: MessageSelector
    with_packing: SelectionResult
    without_packing: SelectionResult


def selection_key(
    number: int,
    instances: int,
    buffer_width: int,
    method: str,
    scenario: UsageScenario,
) -> str:
    """Content-addressed cache key for one scenario selection.

    The key carries *every* input the selection depends on -- scenario
    number, instance count, buffer width, Step-2 engine, the library
    version, the bundle's pickled shape (:data:`SELECTION_FORMAT`), and
    a structural fingerprint of the scenario's message pool and
    sub-groups -- so selections made under different options (e.g.
    different buffer widths) can never alias, in this process or on
    disk.
    """
    return artifact_key(
        "scenario-selection",
        scenario=number,
        instances=instances,
        buffer_width=buffer_width,
        method=method,
        subgroup_policy="proportional",
        version=__version__,
        format=SELECTION_FORMAT,
        pool=message_fingerprint(tuple(scenario.message_pool)),
        subgroups=message_fingerprint(scenario.subgroup_pool),
    )


def scenario_selection(
    number: int,
    instances: int = 1,
    buffer_width: int = BUFFER_WIDTH,
    method: str = "exhaustive",
) -> ScenarioSelection:
    """Selection results for one scenario, via the artifact cache.

    Interleaving and selection are deterministic, so the bundle is
    content-addressed: repeated calls in one process return the same
    object (LRU front), and a warm ``REPRO_CACHE_DIR`` makes fresh
    processes skip the product construction and Step-1/2 search
    entirely.
    """
    scenario = usage_scenarios(instances=instances)[number]
    key = selection_key(number, instances, buffer_width, method, scenario)

    def compute() -> ScenarioSelection:
        selector = MessageSelector(
            scenario.interleaved(),
            buffer_width,
            subgroups=scenario.subgroup_pool,
        )
        # the paper's formulation: exhaustive Step-1/2 argmax (feasible
        # for the <= 12-message scenario pools; coverage breaks gain ties)
        return ScenarioSelection(
            scenario=scenario,
            selector=selector,
            with_packing=selector.select(method=method, packing=True),
            without_packing=selector.select(method=method, packing=False),
        )

    return default_cache().get_or_compute(key, compute)


def scenario_selections(instances: int = 1) -> Dict[int, ScenarioSelection]:
    """Selections for all three scenarios."""
    return {n: scenario_selection(n, instances) for n in (1, 2, 3)}


def warm_cache(
    instances: int = 1, numbers: Sequence[int] = (1, 2, 3)
) -> Dict[int, ScenarioSelection]:
    """Precompute (or load) the scenario selections -- the expensive
    artifacts every table, sweep, and campaign starts from."""
    return {n: scenario_selection(n, instances) for n in numbers}


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an ASCII table (the benches print paper-shaped tables)."""
    materialized: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+".join("-" * (w + 2) for w in widths)
    line = f"+{line}+"

    def fmt(cells: Sequence[str]) -> str:
        padded = [f" {c:<{w}} " for c, w in zip(cells, widths)]
        return "|" + "|".join(padded) + "|"

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line)
    parts.append(fmt(headers))
    parts.append(line)
    for row in materialized:
        parts.append(fmt(row))
    parts.append(line)
    return "\n".join(parts)


def percent(value: float, digits: int = 2) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"
