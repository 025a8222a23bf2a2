"""Seeded query mixes: the closed-loop tier mix and the open-loop serve mix.

Every window start is drawn as a fresh float, so no two ops share a memo
key and the read engine runs cold on every op of ``query_tiers``.  The
same seed gives the same ops in the same order.

Windows are expressed in *units*: one unit is a twenty-fourth of the
ingested span (an hour for the city-day), so the smoke size queries the
same tier layout on a compressed day.  After set-up the span splits into
``[0, 12u)`` held only by the cloud, ``[12u, 18u)`` also by fog layer 2 and
``[18u, 24u)`` also by fog layer 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

FOG1, FOG2, CLOUD = "fog_layer_1", "fog_layer_2", "cloud"

#: A window starts this far (in units) above a tier's eviction cutoff, so
#: the tier's oldest retained reading is already behind it on every node.
MARGIN = 0.25

#: kind -> (group, lowest start, highest start, width, scoping Op field,
#: serving tiers); starts and width in units.  Point ops touch one section
#: chain, scatter ops all of them.
SHAPES: Dict[str, Tuple[str, float, float, float, Optional[str], FrozenSet[str]]] = {
    "section_fog1": ("point", 18 + MARGIN, 23, 1, "section_id", frozenset({FOG1})),
    "section_fog2": ("point", 12 + MARGIN, 17, 1, "section_id", frozenset({FOG2})),
    "section_cloud": ("point", 0, 11, 1, "section_id", frozenset({CLOUD})),
    "section_span": ("point", 10.5, 11.5, 8, "section_id", frozenset({FOG1, FOG2, CLOUD})),
    "sensor_fog1": ("point", 18 + MARGIN, 23, 1, "sensor_id", frozenset({FOG1})),
    "sensor_cloud": ("point", 0, 11, 1, "sensor_id", frozenset({CLOUD})),
    "category_fog1": ("scatter", 18 + MARGIN, 23, 1, "category", frozenset({FOG1})),
    "category_cloud": ("scatter", 0, 11, 1, "category", frozenset({CLOUD})),
    "city_fog1": ("scatter", 18 + MARGIN, 23.75, 0.25, None, frozenset({FOG1})),
    "city_cloud": ("scatter", 0, 11.75, 0.25, None, frozenset({CLOUD})),
}
POINT_KINDS: Tuple[str, ...] = tuple(k for k, shape in SHAPES.items() if shape[0] == "point")
SCATTER_KINDS: Tuple[str, ...] = tuple(k for k, shape in SHAPES.items() if shape[0] == "scatter")
KINDS: Tuple[str, ...] = POINT_KINDS + SCATTER_KINDS


@dataclass(frozen=True)
class Op:
    """One query of the tier mix, with the tiers that must serve it."""

    kind: str
    group: str  # "point" | "scatter" | "summarize"
    since: float
    until: float
    section_id: Optional[str] = None
    sensor_id: Optional[str] = None
    category: Optional[str] = None
    tiers: Optional[FrozenSet[str]] = None  # None: not asserted (summaries span tiers)

    def run(self, client):
        if self.group == "summarize":
            return client.summarize(since=self.since, until=self.until)
        return client.query(
            since=self.since,
            until=self.until,
            section_id=self.section_id,
            sensor_id=self.sensor_id,
            category=self.category,
        )


def tier_mix(
    seed: int,
    rep: int,
    unit: float,
    sections: Sequence[str],
    sensors: Sequence[str],
    categories: Sequence[str],
    point_ops: int,
    scatter_ops: int,
    summarize_ops: int,
) -> List[Op]:
    """The shuffled closed-loop mix of one ``query_tiers`` rep."""
    rng = random.Random(seed * 1_000_003 + rep)
    pools = {"section_id": sections, "sensor_id": sensors, "category": categories}

    def draw(kind: str) -> Op:
        group, low, high, width, scope, tiers = SHAPES[kind]
        since = rng.uniform(low, high) * unit
        target = {scope: rng.choice(pools[scope])} if scope else {}
        return Op(kind, group, since, since + width * unit, tiers=tiers, **target)

    # Kinds in equal shares, exactly: the mix's cost must not depend on how
    # a seed happened to split the ops between cheap and expensive kinds.
    ops = [draw(POINT_KINDS[index % len(POINT_KINDS)]) for index in range(point_ops)]
    ops += [draw(SCATTER_KINDS[index % len(SCATTER_KINDS)]) for index in range(scatter_ops)]
    for _ in range(summarize_ops):
        since = rng.uniform(0, 23) * unit
        ops.append(Op("summarize", "summarize", since, since + unit))
    rng.shuffle(ops)
    return ops


#: Serve-mix kinds and their shares (hot dashboard / cold point / cold scatter).
SERVE_KINDS: Tuple[Tuple[str, float], ...] = (("hot", 0.6), ("point", 0.3), ("scatter", 0.1))

#: Sections the hot share keeps asking for (a dashboard's fixed panels).
DASHBOARD_SECTIONS = 8


def serve_mix(seed: int, rep: int, count: int) -> List[Tuple[str, float, float]]:
    """``(kind, u, v)`` draws for the open-loop client, *count* of them.

    The window itself is placed at issue time (it trails the live virtual
    clock); ``u`` and ``v`` are the uniform draws that place it and pick
    the section, so the draw sequence — not the wall clock — is seeded.
    """
    rng = random.Random(seed * 1_000_003 + 500_000 + rep)
    kinds = [kind for kind, _ in SERVE_KINDS]
    weights = [share for _, share in SERVE_KINDS]
    return [
        (rng.choices(kinds, weights)[0], rng.random(), rng.random())
        for _ in range(count)
    ]
