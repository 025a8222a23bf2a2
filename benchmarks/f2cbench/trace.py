"""Span tracing from outside the program.

The traced run wraps the program's public per-call and per-batch functions
(never a per-row one) from here, so ``src/`` carries no instrumentation.
A span is ``[name, start, end, parent, rep]``; spans stay in memory until
the run ends.  A layer's self time is its spans' duration minus the part
their child spans cover, so the self times of everything under one root
span sum to that root's duration.

Counts are taken at the same boundaries (rows in/out, bytes encoded, ...)
so ratios are measured where the work happens.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_NAME, _START, _END, _PARENT, _REP = range(5)

#: ``counter(counts, args, result)`` — folds one call into the count table.
Counter = Callable[[Dict[str, float], tuple, Any], None]


class _ThreadSpans:
    """One thread's spans; parents index into the same list."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.spans: List[list] = []
        self.stack: List[int] = []


#: ``rep`` value of spans recorded during set-up.
SETUP_REP = -1

_INHERITED = object()


class Tracer:
    """Records spans around wrapped callables inside harness-opened roots.

    Recording is on only inside :meth:`root` while the tracer is
    :attr:`armed`, so every span has a root ancestor on its thread and the
    self times under the roots sum to the roots' durations.
    """

    def __init__(self) -> None:
        self.armed = False
        self.enabled = False
        self.rep = SETUP_REP
        #: Wall seconds spent inside roots, clocked outside the root span —
        #: what the summed self times are checked against.
        self.rooted_wall_s = 0.0
        self.counts: Dict[str, float] = defaultdict(float)
        self._threads: List[_ThreadSpans] = []
        self._local = threading.local()
        self._register = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _thread(self) -> _ThreadSpans:
        mine = getattr(self._local, "spans", None)
        if mine is None:
            mine = self._local.spans = _ThreadSpans(threading.current_thread().name)
            with self._register:
                self._threads.append(mine)
        return mine

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A region of the harness (a rep's timed loop, set-up, recovery)."""
        if not self.armed:
            yield
            return
        begin = time.perf_counter()
        outer, self.enabled = self.enabled, True
        try:
            with self.span(name):
                yield
        finally:
            self.enabled = outer
            if self.rep != SETUP_REP:
                self.rooted_wall_s += time.perf_counter() - begin

    def _open(self, name: str) -> Tuple[List[int], list]:
        mine = self._thread()
        stack = mine.stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep]
        stack.append(len(mine.spans))
        mine.spans.append(record)
        record[_START] = time.perf_counter()
        return stack, record

    @staticmethod
    def _close(stack: List[int], record: list) -> None:
        record[_END] = time.perf_counter()
        stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the harness itself (one per query op)."""
        if not self.enabled:
            yield
            return
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(*opened)

    def _wrapper(self, original: Callable, name, counter: Optional[Counter]) -> Callable:
        tracer = self
        named = name if callable(name) else None

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            opened = tracer._open(named(args) if named is not None else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(*opened)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap(self, owner: Any, attr: str, name, counter: Optional[Counter] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *name* is the span name, or ``name(args) -> str`` to pick it per
        call (one wrapped store method serves three tiers).  Class and
        static methods keep their binding.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self._wrapper(original.__func__, name, counter))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._wrapper(original.__func__, name, counter))
        else:
            replacement = self._wrapper(original, name, counter)
        # An inherited method is shadowed on *owner* only, and unshadowed after.
        self._patches.append((owner, attr, original if attr in vars(owner) else _INHERITED))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reading the trace
    # ------------------------------------------------------------------ #
    def span_count(self) -> int:
        return sum(len(thread.spans) for thread in self._threads)

    def layers(self, setup: bool = False, main_thread_only: bool = False) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds.

        *setup* selects the spans recorded during set-up instead of the
        reps'.  The self-time sum rule holds per thread, so the check
        against :attr:`rooted_wall_s` reads the main thread alone (the
        serve loop's spans run beside the client's root, not under it).
        """
        threads = self._threads[:1] if main_thread_only else self._threads
        return layer_table([thread.spans for thread in threads], setup)

    def durations(self, name: str) -> List[float]:
        """Seconds of every rep span called *name*."""
        return [
            span[_END] - span[_START]
            for thread in self._threads
            for span in thread.spans
            if span[_NAME] == name and span[_REP] != SETUP_REP
        ]

    def edges(self) -> Dict[str, Dict[str, float]]:
        """Collapsed call tree: ``"parent>child" -> calls, total seconds``."""
        table: Dict[str, Dict[str, float]] = {}
        for thread in self._threads:
            spans = thread.spans
            for span in spans:
                parent = spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else "<root>"
                entry = table.setdefault(f"{parent}>{span[_NAME]}", {"calls": 0, "total_s": 0.0})
                entry["calls"] += 1
                entry["total_s"] += span[_END] - span[_START]
        return table


def layer_table(span_lists: List[List[list]], setup: bool = False) -> Dict[str, Dict[str, float]]:
    """Fold span lists into ``name -> {calls, total_s, self_s}``.

    Self time is a span's duration minus its direct children's durations
    (children nest inside their parent on one thread, so direct children
    never overlap each other).
    """
    table: Dict[str, Dict[str, float]] = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[_PARENT]
            if parent >= 0:
                child_time[parent] += span[_END] - span[_START]
        for index, span in enumerate(spans):
            if (span[_REP] == SETUP_REP) != setup:
                continue
            duration = span[_END] - span[_START]
            entry = table.setdefault(span[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
    return table


# ---------------------------------------------------------------------- #
# The layer boundaries of this repository
# ---------------------------------------------------------------------- #
def _tier_of(store_name: str) -> str:
    if store_name.startswith("fog1/"):
        return "fog1"
    if store_name.startswith("fog2/"):
        return "fog2"
    return "cloud"


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public call at each layer boundary (see README, per-layer table)."""
    from repro.api.pipeline import IngestSession
    from repro.api.query import QueryService
    from repro.api.serving import ServeHandle
    from repro.core.architecture import F2CDataManagement
    from repro.core.movement import DataMovementScheduler
    from repro.core.nodes import FogNodeLevel1, FogNodeLevel2
    from repro.dlc.acquisition import AcquisitionBlock
    from repro.dlc.preservation import PreservationBlock
    from repro.messaging.broker import Broker
    from repro.runtime import shards
    from repro.sensors.readings import ReadingColumns
    from repro.storage.segments import SegmentLog
    from repro.storage.tiered import TieredStore

    def add(key: str, amount: Callable[[tuple, Any], float]) -> Counter:
        def counter(counts, args, result):
            counts[key] += amount(args, result)

        return counter

    def many(*counters: Counter) -> Counter:
        def counter(counts, args, result):
            for one in counters:
                one(counts, args, result)

        return counter

    def tier_rows(counts, args, result):
        counts[f"tiered.{_tier_of(args[0].name)}_rows"] += result

    def scan_rows(counts, args, result):
        # query_window returns one batch, query_window_partitioned a dict of them.
        batches = result.values() if isinstance(result, dict) else (result,)
        rows = sum(len(batch) for batch in batches)
        counts["query.rows_returned"] += rows
        name = args[0].name
        if not name.endswith(":cold"):
            counts[f"query.tier_rows.{_tier_of(name)}"] += rows

    tracer.wrap(
        shards, "build_shard_rounds", "sensors.generate",
        add("sensors.readings", lambda a, r: sum(len(readings) for _, readings in r)),
    )
    tracer.wrap(IngestSession, "ingest", "pipeline.ingest")
    tracer.wrap(
        ReadingColumns, "encode_frame", "serialization.encode",
        add("serialization.encode_bytes", lambda a, r: len(r)),
    )
    tracer.wrap(
        ReadingColumns, "encode_frame_extended", "serialization.encode",
        add("serialization.encode_bytes", lambda a, r: len(r)),
    )
    tracer.wrap(ReadingColumns, "decode_frame", "serialization.decode")
    tracer.wrap(Broker, "publish", "broker.publish")
    tracer.wrap(Broker, "drain_inbox", "broker.drain")
    tracer.wrap(
        AcquisitionBlock, "run", "acquisition.run",
        many(
            add("acquisition.rows_in", lambda a, r: len(a[1])),
            add("acquisition.rows_out", lambda a, r: len(r[0])),
        ),
    )
    tracer.wrap(
        TieredStore, "ingest_batch", lambda a: f"tiered.{_tier_of(a[0].name)}_ingest", tier_rows
    )
    tracer.wrap(
        TieredStore, "ingest_columns", lambda a: f"tiered.{_tier_of(a[0].name)}_ingest", tier_rows
    )
    tracer.wrap(TieredStore, "query_window", "query.scan", scan_rows)
    tracer.wrap(TieredStore, "query_window_partitioned", "query.scan", scan_rows)
    tracer.wrap(DataMovementScheduler, "sync_fog1_to_fog2", "movement.fog1_to_fog2")
    tracer.wrap(DataMovementScheduler, "sync_fog2_to_cloud", "movement.fog2_to_cloud")
    tracer.wrap(PreservationBlock, "run", "preservation.run")
    evicted = add("retention.evicted_rows", lambda a, r: r)
    tracer.wrap(FogNodeLevel1, "enforce_retention", "retention.enforce", evicted)
    tracer.wrap(FogNodeLevel2, "enforce_retention", "retention.enforce", evicted)
    tracer.wrap(
        SegmentLog, "append", "segments.append",
        add("segments.append_bytes", lambda a, r: r.length if r is not None else 0),
    )
    tracer.wrap(SegmentLog, "commit", "segments.commit")
    # replay() is a generator: its work happens per segment inside read().
    tracer.wrap(
        SegmentLog, "read", "segments.replay",
        add("segments.replay_rows", lambda a, r: len(r)),
    )
    tracer.wrap(
        F2CDataManagement, "receive_worker_columns", "supervisor.absorb",
        add("supervisor.absorb_rows", lambda a, r: len(a[2])),
    )
    tracer.wrap(F2CDataManagement, "merge_edge_transfers", "supervisor.absorb")
    tracer.wrap(QueryService, "query", "query.engine")
    tracer.wrap(
        QueryService, "summarize", "sketches.fold",
        add("sketches.rows_folded", lambda a, r: r.rows),
    )
    tracer.wrap(ServeHandle, "submit_query", "serving.submit")
