"""Hierarchical F2C data access: serve every query from the nearest tier.

The paper's architecture is two-sided: data moves *up* (acquisition → fog
layer 1 → fog layer 2 → cloud) and consumers read *down*, served from the
closest layer that still holds the requested window — real-time windows
from the section's own fog layer-1 node, recent history from the district's
fog layer-2 node, and everything older from the cloud.
:class:`QueryService` implements that resolution over a deployed
:class:`~repro.core.architecture.F2CDataManagement`:

* a query names a *scope* (sensor, section, category, or the whole city)
  and a half-open time window ``since <= t < until``;
* per fog layer-1 chain the service picks the nearest tier whose store
  still covers the window (a tier that has never evicted holds its full
  local history; one that has is trusted only back to its oldest retained
  timestamp) and falls through to fog layer 2 and the cloud otherwise;
* city- and category-wide queries scatter-gather across every section's
  chain; at a broad tier a chain's area is one partition of the store
  (:mod:`repro.storage.timeseries` keeps rows per acquiring fog node), so
  each per-chain sub-query is two bisects and a slice;
* results carry per-tier attribution (:class:`TierSlice` sources and a
  rows-by-tier summary) and the service keeps served-from counters;
* on a durable deployment (:attr:`~repro.api.config.PipelineConfig.durable_dir`)
  a broad tier whose in-memory store has aged a window out can still answer
  it from its cold :class:`~repro.storage.segments.SegmentLog`: the service
  hydrates a shadow store by replaying the log (decoding one frame per
  segment, lazily, only when a cold window is actually asked for) and serves
  the whole slice from it — row-identical to the in-memory engine, same
  per-tier attribution, cached (in a byte-bounded LRU of its own, capacity
  :attr:`~repro.api.config.PipelineConfig.cold_store_cache_bytes`) until
  the log's contents change or the budget evicts it;
* hot windows are memoized in a **byte-accounted LRU** (capacity set by
  :attr:`~repro.api.config.PipelineConfig.query_cache_bytes`); an entry is
  charged, in O(1), what dropping it frees — its columns alias the store's
  objects, so that is a per-row constant.  The owning client invalidates
  the memo on every ingest/synchronise, and evictions are
  surfaced through :meth:`stats` / the client's health report;
* wide historical windows can be answered approximately through
  :meth:`summarize`, which counts the window's ``(category, sensor)`` keys
  exactly and folds each distinct key once into constant-size sketches
  (:class:`~repro.aggregation.sketches.CountMinSketch` /
  :class:`~repro.aggregation.sketches.DistinctCounter`, whose per-key
  cells are cached, so a key seen before costs one lookup) with the same
  per-tier attribution, so a city-wide question does not have to
  materialize every cloud row for the consumer.

A cold query copies each served row once: a store scan slices its window
out of the store's columns and the result adopts those slices (the first
tier slice *is* the result's columns, later ones are appended to it).
Results (cold and memoized alike) share *frozen* read-only columns — no
defensive copy per hit; :meth:`QueryResult.batch` copies lazily when a
caller adopts the rows.

Attribution conventions: per-result ``rows_by_tier`` and the service-level
``rows_by_tier`` / ``queries_by_tier`` counters are all *sparse* — a tier
appears once it has served rows (resp. been consulted), never as a
pre-seeded zero.

In a sharded run the supervisor's fog layer-1 stores are empty (the data
was acquired in worker processes), which the architecture reports via
:meth:`~repro.core.architecture.F2CDataManagement.fog1_store_is_authoritative`;
queries then resolve to fog layer 2 / cloud, exactly as a remote consumer
would experience it.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.aggregation.sketches import CountMinSketch, DistinctCounter
from repro.common.errors import RoutingError, ValidationError
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.architecture import F2CDataManagement

#: Tier names, nearest first (the order resolution walks them).
TIER_FOG_1 = "fog_layer_1"
TIER_FOG_2 = "fog_layer_2"
TIER_CLOUD = "cloud"
TIERS: Tuple[str, ...] = (TIER_FOG_1, TIER_FOG_2, TIER_CLOUD)


@dataclass(frozen=True)
class TierSlice:
    """One consulted (node, tier) and the rows it contributed."""

    node_id: str
    tier: str
    section_id: Optional[str]
    rows: int


@dataclass(frozen=True)
class QueryResult:
    """A columnar query answer with per-tier attribution.

    ``columns`` holds the merged rows: section chains in canonical city
    order, each chain's tier slices oldest first, and within a slice the
    store's window order (acquiring fog node, then timestamp, then
    arrival).  ``sources`` records every consulted chain's serving node
    and tier; ``rows_by_tier`` sums rows per tier (sparse: only tiers that
    served rows appear).
    ``cache_hit`` is true when the service answered from its memo.

    Service-produced results are backed by *frozen* (read-only) columns
    shared with the memo; mutating them raises.  :meth:`batch` hands out a
    batch over a private mutable copy, made lazily only then.
    """

    since: float
    until: float
    columns: ReadingColumns
    sources: Tuple[TierSlice, ...]
    rows_by_tier: Dict[str, int] = field(default_factory=dict)
    cache_hit: bool = False

    def __len__(self) -> int:
        return len(self.columns)

    def batch(self) -> ReadingBatch:
        """The result as a :class:`ReadingBatch` the caller may mutate.

        Frozen (service-shared) columns are copied here, lazily — callers
        that never adopt the rows never pay for a copy.
        """
        columns = self.columns
        if columns.frozen:
            columns = columns.copy()
        return ReadingBatch.from_columns(columns)

    def readings(self) -> List[Reading]:
        """Materialized :class:`Reading` objects (API-boundary convenience)."""
        return self.columns.to_readings()

    def tiers(self) -> Tuple[str, ...]:
        """The distinct tiers that served rows, nearest first."""
        used = {source.tier for source in self.sources if source.rows}
        return tuple(tier for tier in TIERS if tier in used)


@dataclass(frozen=True)
class QuerySummary:
    """A constant-size approximate answer for a (wide) window.

    Instead of the window's rows, carries one mergeable
    :class:`~repro.aggregation.sketches.CountMinSketch` (per-sensor reading
    frequencies) and one
    :class:`~repro.aggregation.sketches.DistinctCounter` (distinct active
    sensors) per category, plus the exact row/tier attribution the
    equivalent exact query would have reported.  A city-wide historical
    question costs the consumer a few KB regardless of how many cloud rows
    the window spans.
    """

    since: float
    until: float
    rows: int
    rows_by_tier: Dict[str, int]
    sources: Tuple[TierSlice, ...]
    frequency: Dict[str, CountMinSketch]
    distinct: Dict[str, DistinctCounter]

    def categories(self) -> List[str]:
        """The categories observed in the window, sorted."""
        return sorted(self.frequency)

    def distinct_sensors(self, category: str) -> float:
        """Estimated number of distinct sensors that reported in *category*."""
        counter = self.distinct.get(category)
        return counter.estimate() if counter is not None else 0.0

    def reading_count(self, category: str, sensor_id: str) -> int:
        """Estimated readings of *sensor_id* in *category* (never undercounts)."""
        sketch = self.frequency.get(category)
        return sketch.estimate(sensor_id) if sketch is not None else 0

    def size_bytes(self) -> int:
        """Approximate serialized size of the summary's sketches."""
        return sum(sketch.size_bytes() for sketch in self.frequency.values()) + sum(
            counter.size_bytes() for counter in self.distinct.values()
        )

    def tiers(self) -> Tuple[str, ...]:
        """The distinct tiers that served rows, nearest first."""
        used = {source.tier for source in self.sources if source.rows}
        return tuple(tier for tier in TIERS if tier in used)


def _check_window(since: float, until: float) -> None:
    """Refuse a NaN window bound (±inf are the unbounded defaults)."""
    if math.isnan(since) or math.isnan(until):
        raise ValidationError(f"window bounds must not be NaN, got [{since}, {until})")


class QueryService:
    """Nearest-tier query resolution over one F2C deployment."""

    #: Default memo capacity (bytes) when no config names one.
    DEFAULT_CACHE_BYTES = 8 * 1024 * 1024

    #: Default hydrated cold-store capacity (bytes) when no config names one.
    DEFAULT_COLD_STORE_BYTES = 64 * 1024 * 1024

    # Byte accounting for the memo: an entry is charged what it *pins*.  Its
    # columns alias the store's objects, so dropping it frees nine list slots
    # per row and the float boxed out of the store's ``array('d')`` timestamps,
    # plus a fixed result shell (held to ``tracemalloc`` by test_query_cache.py).
    _CACHE_ENTRY_OVERHEAD = 512
    _CACHE_ROW_COST = 9 * 8 + 24
    _CACHE_SOURCE_COST = 64

    #: Per-segment key-count cache bound (segments, LRU).  Each entry is a
    #: counter over one chain segment's distinct keys — a few KB.
    _SKETCH_CACHE_MAX_SEGMENTS = 256

    def __init__(
        self,
        system: "F2CDataManagement",
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cold_store_bytes: int = DEFAULT_COLD_STORE_BYTES,
    ) -> None:
        self.system = system
        #: key -> (memoized result, accounted cost); ordered oldest-hit first.
        self._cache: "OrderedDict[tuple, Tuple[QueryResult, int]]" = OrderedDict()
        self._cache_bytes = 0
        self.cache_capacity_bytes = max(0, int(cache_bytes))
        self.cache_evictions = 0
        #: sensor id -> fog layer-1 node id, for sensors with no explicit
        #: assignment (resolved via the broad tiers' sensor map or the
        #: probe loop); invalidated together with the window memo.
        self._sensor_chain: Dict[str, str] = {}
        #: (node, window, fog1, category) -> exact (category, sensor) counts of
        #: one synced broad-tier segment, reused by :meth:`summarize`.
        self._sketch_cache: "OrderedDict[tuple, Counter]" = OrderedDict()
        self.sketch_cache_hits = 0
        #: node_id -> (log state key, hydrated shadow store, accounted
        #: bytes): the cold serving stores, rebuilt only when the backing
        #: segment log's contents change (the state key covers appends and
        #: drops), so they survive :meth:`invalidate` — an ingest that did
        #: not touch the log cannot stale them.  Byte-bounded LRU (measured
        #: footprint — these columns are owned): a whole segment log hydrated
        #: into memory is the most expensive thing the service caches, so
        #: under a long-running serve loop with TTL eviction the shadow
        #: stores must not grow without limit.
        self._cold_stores: "OrderedDict[str, Tuple[tuple, object, int]]" = OrderedDict()
        self._cold_store_bytes = 0
        self.cold_store_capacity_bytes = max(0, int(cold_store_bytes))
        self.cold_store_evictions = 0
        self.cold_segment_queries = 0
        self.cold_store_builds = 0
        self.queries_served = 0
        self.summaries_served = 0
        self.cache_hits = 0
        self.rows_by_tier: Dict[str, int] = {}
        self.queries_by_tier: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Cache control
    # ------------------------------------------------------------------ #
    def invalidate(self) -> int:
        """Drop every memoized window; returns how many entries were dropped.

        Called by the owning client whenever data moves (ingest or an
        upward sync): both change what a window contains *and* which tier
        is nearest for it.  The sensor→chain memo drops too (routing can
        change with new data).  Invalidation is not eviction — it does not
        bump :attr:`cache_evictions`.
        """
        dropped = len(self._cache)
        self._cache.clear()
        self._cache_bytes = 0
        self._sensor_chain.clear()
        self._sketch_cache.clear()
        return dropped

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def cache_bytes(self) -> int:
        """Accounted bytes currently held by the memo."""
        return self._cache_bytes

    def _memoize(self, key: tuple, result: QueryResult) -> None:
        """Insert a result into the LRU, evicting oldest entries over budget."""
        capacity = self.cache_capacity_bytes
        if capacity <= 0:
            return
        cost = (
            self._CACHE_ENTRY_OVERHEAD
            + len(result.columns) * self._CACHE_ROW_COST
            + len(result.sources) * self._CACHE_SOURCE_COST
        )
        if cost > capacity:
            # An oversized result would evict the whole memo and still not
            # fit; serving it uncached is strictly better.
            return
        # The memo keeps its own rows_by_tier dict (callers may mutate
        # theirs); the columns are frozen and safely shared.
        memo = QueryResult(
            result.since, result.until, result.columns, result.sources, dict(result.rows_by_tier)
        )
        self._cache[key] = (memo, cost)
        self._cache_bytes += cost
        cache = self._cache
        while self._cache_bytes > capacity:
            _, (_, evicted_cost) = cache.popitem(last=False)
            self._cache_bytes -= evicted_cost
            self.cache_evictions += 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        sensor_id: Optional[str] = None,
        section_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> QueryResult:
        """Answer (scope, window) from the nearest tier holding the window.

        Scope: *sensor_id* resolves to the sensor's section chain,
        *section_id* to that section's chain, neither to a scatter-gather
        across every section; *category* narrows any scope.  The window is
        half-open (``since <= t < until``); an inverted window is simply
        empty; a NaN bound raises :class:`~repro.common.errors.ValidationError`.
        Repeated queries are memoized (LRU, byte-bounded) until
        :meth:`invalidate`.
        """
        _check_window(since, until)
        key = (since, until, sensor_id, section_id, category)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            self.queries_served += 1
            self.cache_hits += 1
            cached = entry[0]
            # No columnar copy: the columns are frozen and shared.  Only
            # the small mutable dict is duplicated per hit.
            return QueryResult(
                cached.since,
                cached.until,
                cached.columns,
                cached.sources,
                dict(cached.rows_by_tier),
                cache_hit=True,
            )

        scatter = sensor_id is None and section_id is None
        plans = self._chain_plans(since, until, sensor_id, section_id)

        out = None
        sources: List[TierSlice] = []
        rows_by_tier: Dict[str, int] = {}
        for fog1, slices in plans:
            for node, tier, sub_since, sub_until in slices:
                part = self._query_at(node, tier, fog1, sub_since, sub_until, sensor_id, category)
                rows = len(part)
                if rows:
                    # A scan's columns are fresh, so the first slice is the
                    # result and later ones are appended to it.
                    if out is None:
                        out = part
                    else:
                        out.extend_columns(part)
                    rows_by_tier[tier] = rows_by_tier.get(tier, 0) + rows
                if rows or not scatter:
                    # Scatter-gather over 73 empty sections would drown the
                    # attribution in zero-row slices; targeted queries keep
                    # their (possibly empty) chain so callers see the tier
                    # that answered.
                    sources.append(TierSlice(node.node_id, tier, fog1.section_id, rows))

        result = QueryResult(
            since=since,
            until=until,
            columns=(out if out is not None else ReadingColumns()).freeze(),
            sources=tuple(sources),
            rows_by_tier=rows_by_tier,
        )
        self._memoize(key, result)
        self.queries_served += 1
        self._account(sources, rows_by_tier)
        return result

    def summarize(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        section_id: Optional[str] = None,
        category: Optional[str] = None,
        *,
        width: int = 256,
        depth: int = 4,
        precision: int = 10,
    ) -> QuerySummary:
        """Approximate (scope, window) as constant-size per-category sketches.

        Resolves tiers exactly like :meth:`query` (same chain walk, same
        attribution) but sums each segment's exact ``(category, sensor)``
        counts instead of accumulating columns and builds one count-min
        sketch + distinct counter per category with a single
        ``add(sensor, count)`` per distinct key — count-min is
        linear and the register max idempotent, so every cell equals a
        per-row fold's.  The answer stays a few KB however wide the window
        is.  *width*/*depth*/*precision* size the sketches (see
        :mod:`repro.aggregation.sketches`).  Whole summaries are not
        memoized, but each synced broad-tier segment's key counts are
        (until :meth:`invalidate`).  A NaN bound raises
        :class:`~repro.common.errors.ValidationError`.
        """
        _check_window(since, until)
        scatter = section_id is None
        plans = self._chain_plans(since, until, None, section_id)

        counts: Counter = Counter()
        sources: List[TierSlice] = []
        rows_by_tier: Dict[str, int] = {}
        total = 0
        for fog1, slices in plans:
            for node, tier, sub_since, sub_until in slices:
                segment_counts = self._segment_sketches(
                    node, tier, fog1, sub_since, sub_until, category
                )
                rows = segment_counts.total()
                if rows:
                    total += rows
                    rows_by_tier[tier] = rows_by_tier.get(tier, 0) + rows
                    # The cached counter is never mutated, only summed from.
                    counts.update(segment_counts)
                if rows or not scatter:
                    sources.append(TierSlice(node.node_id, tier, fog1.section_id, rows))

        frequency: Dict[str, CountMinSketch] = {}
        distinct: Dict[str, DistinctCounter] = {}
        for (row_category, sensor_id), count in counts.items():
            sketch = frequency.get(row_category)
            if sketch is None:
                sketch = frequency[row_category] = CountMinSketch(width, depth)
                distinct[row_category] = DistinctCounter(precision)
            sketch.add(sensor_id, count)
            distinct[row_category].add(sensor_id)

        self.summaries_served += 1
        self._account(sources, rows_by_tier)
        return QuerySummary(
            since=since,
            until=until,
            rows=total,
            rows_by_tier=rows_by_tier,
            sources=tuple(sources),
            frequency=frequency,
            distinct=distinct,
        )

    def _segment_sketches(
        self,
        node,
        tier: str,
        fog1,
        sub_since: float,
        sub_until: float,
        category: Optional[str],
    ) -> Counter:
        """One chain segment reduced to exact ``(category, sensor)`` counts.

        Broad-tier (fog layer 2 / cloud) segments are cached by
        ``(node, window, chain, category)``: their contents only change
        when data moves, at which point :meth:`invalidate` drops the cache,
        so a repeated :meth:`summarize` over a synced window sums one
        cached counter per segment instead of re-scanning every row.  Fog
        layer-1 segments are always computed fresh (their stores churn
        with every ingest round).
        """
        key = None
        if tier != TIER_FOG_1:
            key = (node.node_id, sub_since, sub_until, fog1.node_id, category)
            cached = self._sketch_cache.get(key)
            if cached is not None:
                self._sketch_cache.move_to_end(key)
                self.sketch_cache_hits += 1
                return cached
        part = self._query_at(node, tier, fog1, sub_since, sub_until, None, category)
        counts = Counter(zip(part.categories, part.sensor_ids))
        if key is not None:
            self._sketch_cache[key] = counts
            while len(self._sketch_cache) > self._SKETCH_CACHE_MAX_SEGMENTS:
                self._sketch_cache.popitem(last=False)
        return counts

    # ------------------------------------------------------------------ #
    # Resolution internals
    # ------------------------------------------------------------------ #
    def _account(self, sources: List[TierSlice], rows_by_tier: Dict[str, int]) -> None:
        """Fold one answer's attribution into the service counters (sparse)."""
        queries_by_tier = self.queries_by_tier
        for tier in {source.tier for source in sources}:
            queries_by_tier[tier] = queries_by_tier.get(tier, 0) + 1
        service_rows = self.rows_by_tier
        for tier, rows in rows_by_tier.items():
            service_rows[tier] = service_rows.get(tier, 0) + rows

    def _chain_plans(
        self,
        since: float,
        until: float,
        sensor_id: Optional[str],
        section_id: Optional[str],
    ) -> List[tuple]:
        """The fog layer-1 chains in scope, each with its window slices."""
        system = self.system
        if section_id is not None:
            fog1_nodes = [system.fog1_for_section(section_id)]  # validates the id
        elif sensor_id is not None:
            fog1_nodes = [self._node_for_sensor(sensor_id)]
        else:
            fog1_nodes = system.fog1_chain()  # canonical city-section order
        # A scatter's chains share their fog layer-2 nodes and the cloud, and
        # ``since`` is fixed: probe each node once per plan, not per chain.
        probes: Dict[str, tuple] = {}
        return [(fog1, self._chain_slices(fog1, since, until, probes)) for fog1 in fog1_nodes]

    def _node_for_sensor(self, sensor_id: str):
        """The fog layer-1 chain owning *sensor_id*'s data.

        Explicit assignment wins.  Otherwise the broad tiers' sensor →
        partition maps answer in O(#broad nodes) lookups: every synced
        reading is stored under its acquiring fog node, so the cloud (or a
        fog layer-2 node) can name the chain directly.  Only a sensor whose
        data never synced upward still needs the fog layer-1 probe loop; last, the
        stable CRC-32 spreading names the chain — the same order of
        precedence the write path routes with.  Resolved chains are
        memoized until :meth:`invalidate`.
        """
        system = self.system
        section = system.section_of_sensor(sensor_id)
        if section is not None:
            return system.fog1_for_section(section)
        cached = self._sensor_chain.get(sensor_id)
        if cached is not None:
            return system.fog1_node(cached)
        node = self._resolve_sensor_chain(sensor_id)
        self._sensor_chain[sensor_id] = node.node_id
        return node

    def _resolve_sensor_chain(self, sensor_id: str):
        system = self.system
        for broad in (system.cloud, *system.fog2_nodes()):
            fog_id = broad.storage.fog_of_series(sensor_id)
            if fog_id is not None:
                try:
                    return system.fog1_node(fog_id)
                except RoutingError:  # pragma: no cover - foreign/synthetic fog id
                    break  # fall back to the probe loop
        for fog1 in system.fog1_chain():
            if fog1.storage.has_series(sensor_id):
                return fog1
        return system.fog1_for_section(system.spread_section(sensor_id))

    def _chain_slices(
        self, fog1, since: float, until: float, probes: Optional[Dict[str, tuple]] = None
    ):
        """Partition the window across *fog1*'s chain, nearest tier first.

        Walks fog L1 → fog L2 → cloud.  A tier that covers the (remaining)
        window serves all of it and terminates the walk; a tier that only
        retains a newer tail — it evicted back to ``oldest`` but holds rows
        the broader tiers may not have received yet (pending upward sync) —
        serves ``[oldest, upper)`` and passes ``[since, oldest)`` down the
        chain.  Each tier keeps *every* row from its oldest retained
        timestamp onward (eviction only drops prefixes) and the broader
        tiers hold everything that was ever synced up, so the returned
        slices are a duplicate-free, loss-free partition of the window.

        *probes* memoizes each node's ``(covers since, oldest retained)``
        for this *since* across the chains of one plan.  Returns ``(node,
        tier, sub_since, sub_until)`` tuples in ascending time order.
        """
        system = self.system
        if probes is None:
            probes = {}
        fog2 = system.fog2_node(system.parent_of(fog1.node_id))
        chain = []
        if system.fog1_store_is_authoritative(fog1.node_id):
            chain.append((fog1, TIER_FOG_1))
        chain.append((fog2, TIER_FOG_2))
        slices = []
        upper = until
        for node, tier in chain:
            if upper <= since:
                break
            probe = probes.get(node.node_id)
            if probe is None:
                covers = self._covers_node(node, since)
                probe = probes[node.node_id] = (
                    covers, None if covers else self._oldest_retained(node)
                )
            covers, oldest = probe
            if covers:
                slices.append((node, tier, since, upper))
                break
            if oldest is not None and since < oldest < upper:
                slices.append((node, tier, oldest, upper))
                upper = oldest
        else:
            if upper > since:
                slices.append((system.cloud, TIER_CLOUD, since, upper))
        slices.reverse()
        return slices

    @staticmethod
    def _covers(storage, since: float) -> bool:
        """Whether a tier's *in-memory* store holds everything from *since* on.

        A tier that never evicted holds its full local history (upward
        drains copy, they do not remove), so it covers any window; one
        that has evicted is trusted only back to its oldest retained
        timestamp.
        """
        if storage.evicted_count == 0:
            return True
        oldest = storage.store.oldest_timestamp()
        return oldest is not None and oldest <= since

    def _covers_node(self, node, since: float) -> bool:
        """Whether *node* can answer [*since*, …) — hot store or cold log.

        The hot-store rule is :meth:`_covers`.  A durable tier additionally
        covers windows its segment log still holds: the log records every
        batch the tier ever stored, so until TTL eviction drops segments it
        holds the tier's full history, and after drops it is trusted back
        to its oldest live segment.
        """
        if self._covers(node.storage, since):
            return True
        log = node.segment_log
        if log is None or not log.segment_count:
            return False
        if log.dropped_segments == 0:
            return True
        oldest = log.oldest_time()
        return oldest is not None and oldest <= since

    def _oldest_retained(self, node) -> Optional[float]:
        """Oldest timestamp *node* can still serve, across hot store and log."""
        oldest = node.storage.store.oldest_timestamp()
        log = node.segment_log
        if log is not None and log.segment_count:
            seg_oldest = log.oldest_time()
            if seg_oldest is not None and (oldest is None or seg_oldest < oldest):
                oldest = seg_oldest
        return oldest

    def _serving_store(self, node, since: float):
        """The store answering [*since*, …) at *node* — usually the hot one.

        Falls back to the hydrated cold store only when the in-memory store
        has evicted past *since* and the node keeps a segment log; a
        non-durable node always serves (possibly incompletely) from memory,
        exactly as before.
        """
        storage = node.storage
        if self._covers(storage, since):
            return storage
        log = node.segment_log
        if log is None:
            return storage
        self.cold_segment_queries += 1
        return self._cold_store(node.node_id, log)

    def _cold_store(self, node_id: str, log):
        """A shadow store hydrated from *log*, rebuilt only when it changes.

        Replaying the full log in append order reproduces the hot store's
        ingest order exactly (the log records precisely what the tier
        stored, at the moment it stored it), so window queries against the
        shadow are row-identical — including row order and the fog/category
        attribution carried in the extended frames — to what the in-memory
        engine would have answered before eviction.  Frames are decoded
        here, one per segment (a sync point, ingested part by part as the
        tier received it), only when a cold window is actually served.

        Hydrated stores live in a byte-accounted LRU (capacity
        :attr:`cold_store_capacity_bytes`, measured with
        :meth:`ReadingColumns.memory_bytes` — a hydrated store *owns* what
        it decoded): least-recently-served nodes are evicted over budget,
        and a single hydration larger than the whole budget is served
        uncached — the same rule the memo applies to oversized results.
        """
        state = (log.segment_count, log.appended_rows, log.dropped_segments)
        cached = self._cold_stores.get(node_id)
        if cached is not None:
            if cached[0] == state:
                self._cold_stores.move_to_end(node_id)
                return cached[1]
            # The log changed under the cached shadow: reclaim its bytes
            # before rebuilding (replacement, not eviction).
            del self._cold_stores[node_id]
            self._cold_store_bytes -= cached[2]
        from repro.storage.tiered import TieredStore

        store = TieredStore(name=f"{node_id}:cold")
        cost = self._CACHE_ENTRY_OVERHEAD
        for _child_id, _sync_time, columns in log.replay():
            store.ingest_columns(columns, mark_for_upward=False)
            cost += columns.memory_bytes()
        self.cold_store_builds += 1
        capacity = self.cold_store_capacity_bytes
        if capacity <= 0 or cost > capacity:
            return store
        self._cold_stores[node_id] = (state, store, cost)
        self._cold_store_bytes += cost
        cold_stores = self._cold_stores
        while self._cold_store_bytes > capacity:
            _, (_, _, evicted_cost) = cold_stores.popitem(last=False)
            self._cold_store_bytes -= evicted_cost
            self.cold_store_evictions += 1
        return store

    def _query_at(self, node, tier, fog1, since, until, sensor_id, category) -> ReadingColumns:
        """One tier's rows for one chain's scope, as columns."""
        # At the broad tiers the chain's area is the store's partition for
        # the acquiring fog node's id; at fog layer 1 the store *is* the area.
        fog_filter = None if tier == TIER_FOG_1 else fog1.node_id
        batch = self._serving_store(node, since).query_window(
            since=since,
            until=until,
            category=category,
            sensor_id=sensor_id,
            fog_node_id=fog_filter,
        )
        return batch.columns

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Served-from counters (folded into the client's health report).

        ``queries_by_tier`` / ``rows_by_tier`` are sparse: a tier appears
        once it has been consulted (resp. served rows), matching the
        per-result ``rows_by_tier`` convention.  ``cache_evictions`` counts
        LRU budget evictions only — :meth:`invalidate` drops are not
        evictions.
        """
        return {
            "served": self.queries_served,
            "summaries": self.summaries_served,
            "cache_hits": self.cache_hits,
            "cache_size": len(self._cache),
            "cache_bytes": self._cache_bytes,
            "cache_capacity_bytes": self.cache_capacity_bytes,
            "cache_evictions": self.cache_evictions,
            "sketch_cache_size": len(self._sketch_cache),
            "sketch_cache_hits": self.sketch_cache_hits,
            "cold_segment_queries": self.cold_segment_queries,
            "cold_store_builds": self.cold_store_builds,
            "cold_stores": len(self._cold_stores),
            "cold_store_bytes": self._cold_store_bytes,
            "cold_store_capacity_bytes": self.cold_store_capacity_bytes,
            "cold_store_evictions": self.cold_store_evictions,
            "queries_by_tier": dict(self.queries_by_tier),
            "rows_by_tier": dict(self.rows_by_tier),
        }
