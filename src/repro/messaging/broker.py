"""The in-process MQTT-like broker.

Semantics implemented (the subset the F2C data plane relies on): QoS 0
("at most once") delivery into per-client **inboxes**.  A client
subscribes topic filters; every published message matching at least one
of them is parked in the client's inbox once, and the client drains the
inbox in bulk (:meth:`Broker.drain_inbox`) — a fog node acquires a whole
backlog per flush instead of paying per-message overheads.  Delivery is
synchronous (the message lands in the inbox inside ``publish``), which
keeps the simulation deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.messaging.topics import match_levels, validate_topic


@dataclass(frozen=True)
class Message:
    """A published message."""

    topic: str
    payload: bytes
    message_id: int = 0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.payload, (bytes, bytearray)):
            raise ConfigurationError("payload must be bytes")

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class _Subscription:
    client_id: str
    topic_filter: str
    filter_levels: Tuple[str, ...]


class Broker:
    """An in-process publish/subscribe broker with per-client inboxes.

    Topic-routing state is cached per distinct published topic up to
    ``_TOPIC_CACHE_LIMIT`` entries (city telemetry uses a small, fixed
    section × sensor-type topic set); beyond that the caches reset rather
    than grow without bound.

    Inboxes are **bounded** when the broker is built with *inbox_limit*: a
    client whose inbox is full sheds further matching messages (QoS 0
    overload behaviour) instead of growing without bound under a
    long-running serve loop.  Every shed is counted — per client and in
    total (:meth:`stats`), never silent.  Likewise, a client that
    unsubscribes loses its parked inbox (counted as shed), and messages
    published between that unsubscribe and a later re-subscribe — which no
    inbox existed to hold — are counted as shed too, so
    ``published-to-client = delivered + shed`` holds across the client's
    whole subscribe/unsubscribe history.
    """

    _TOPIC_CACHE_LIMIT = 65_536

    def __init__(self, name: str = "broker", inbox_limit: Optional[int] = None) -> None:
        if inbox_limit is not None and inbox_limit < 1:
            raise ConfigurationError(
                f"inbox_limit must be a positive message count (or None), got {inbox_limit}"
            )
        self.name = name
        self._inbox_limit = inbox_limit
        self._subscriptions: List[_Subscription] = []
        self._inboxes: Dict[str, List[Message]] = {}
        # Topic routing cache: city telemetry reuses a small set of topics
        # (one per section × sensor type), so memoizing "which clients
        # match this topic" turns publish from O(#subscriptions) wildcard
        # matching into a dict hit.  A cached topic is by construction an
        # already-validated one, so the hot publish path pays exactly one
        # dict lookup per message — validation and matching both run only on
        # the miss path.  Each entry holds the distinct matching clients (a
        # client whose several filters match gets one inbox copy) and the
        # gap clients (unsubscribers, see _gap_filters) whose dropped
        # filters match the topic, so shed accounting rides the same dict
        # hit.  The cache is invalidated whenever the subscription set
        # changes — which is also the only time _gap_filters changes.
        self._match_cache: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
        # client id -> the filter levels it dropped on unsubscribe while
        # still unsubscribed.  Messages matching these have no inbox to land
        # in; they are counted as shed until the client re-subscribes
        # (which clears its gap entry).
        self._gap_filters: Dict[str, List[Tuple[str, ...]]] = {}
        self._message_ids = itertools.count(1)
        self._published_count = 0
        self._delivered_count = 0
        self._published_bytes = 0
        self._shed_messages = 0
        self._shed_by_client: Dict[str, int] = {}
        # Chaos-injection state (see corrupt_next / partition): pending
        # payload corruptions and the clients currently cut off.  Both are
        # deterministic — corruption positions come from a seeded RNG, and
        # partition losses ride the same counted-shed path as inbox
        # overflow, so every injected fault remains fully accounted.
        self._corrupt_pending = 0
        self._corrupt_rng: Optional[random.Random] = None
        self._corrupted_count = 0
        self._partitioned: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Subscription management
    # ------------------------------------------------------------------ #
    def subscribe(self, client_id: str, topic_filter: str) -> None:
        """Park messages matching *topic_filter* in *client_id*'s inbox.

        A re-subscribe closes the client's unsubscribe gap: from here on
        matching messages land in a live inbox again.
        """
        validate_topic(topic_filter, allow_wildcards=True)
        self._subscriptions.append(
            _Subscription(client_id, topic_filter, tuple(topic_filter.split("/")))
        )
        self._match_cache.clear()
        self._gap_filters.pop(client_id, None)

    def unsubscribe(self, client_id: str, topic_filter: Optional[str] = None) -> int:
        """Remove a client's subscriptions (all of them, or one filter).

        A client that loses its last subscription also loses its parked
        inbox — those messages can never be delivered and are counted as
        shed, as are messages matching the dropped filters published before
        the client re-subscribes (see :meth:`stats`).
        """
        removed = [
            s
            for s in self._subscriptions
            if s.client_id == client_id and (topic_filter is None or s.topic_filter == topic_filter)
        ]
        self._subscriptions = [s for s in self._subscriptions if s not in removed]
        self._match_cache.clear()
        # A client with no remaining subscriptions can never receive its
        # parked messages; shed the inbox (counted, never silent) rather
        # than report ghosts, and remember the dropped filters so messages
        # published during the unsubscribe gap are counted as shed too.
        if not any(s.client_id == client_id for s in self._subscriptions):
            inbox = self._inboxes.pop(client_id, None)
            if inbox:
                self._count_shed(client_id, len(inbox))
            if removed:
                gaps = self._gap_filters.setdefault(client_id, [])
                for subscription in removed:
                    if subscription.filter_levels not in gaps:
                        gaps.append(subscription.filter_levels)
        return len(removed)

    def subscriptions_for(self, client_id: str) -> List[str]:
        return [s.topic_filter for s in self._subscriptions if s.client_id == client_id]

    # ------------------------------------------------------------------ #
    # Chaos injection (scenario engine hooks)
    # ------------------------------------------------------------------ #
    def corrupt_next(self, count: int, seed: int = 0) -> None:
        """Arm deterministic corruption of the next *count* published payloads.

        Each armed payload has one byte XOR-flipped at a position drawn from
        a ``random.Random(seed)`` stream, so the same (scenario, seed) pair
        always mangles the same bytes.  Receivers treat the frame/CSV as
        undecodable and count it in ``dropped_payloads`` — the corruption is
        a *counted* loss, never a silent one.  Empty payloads still consume
        an armed slot (there is nothing to flip).
        """
        if count < 0:
            raise ConfigurationError(f"corrupt count must be non-negative, got {count}")
        self._corrupt_pending += count
        if self._corrupt_rng is None:
            self._corrupt_rng = random.Random(seed)

    def partition(self, client_id: str) -> None:
        """Cut *client_id* off from the broker (network partition).

        Matching messages published while partitioned are shed-and-counted
        through the same path as bounded-inbox overflow, so the conservation
        equation ``published-to-client = delivered + shed`` keeps holding.
        """
        self._partitioned.add(client_id)

    def heal(self, client_id: str) -> None:
        """Reconnect a previously :meth:`partition`-ed client."""
        self._partitioned.discard(client_id)

    def _maybe_corrupt(self, payload: bytes) -> bytes:
        if self._corrupt_pending <= 0:
            return payload
        self._corrupt_pending -= 1
        self._corrupted_count += 1
        if not payload:
            return payload
        rng = self._corrupt_rng
        assert rng is not None
        position = rng.randrange(len(payload))
        mangled = bytearray(payload)
        mangled[position] ^= 0xFF
        return bytes(mangled)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(self, topic: str, payload: bytes, timestamp: float = 0.0) -> Message:
        """Publish *payload* on *topic* into every matching client's inbox."""
        cached = self._match_cache.get(topic)
        if cached is None:
            # Miss path: validate once, then match once — a cache hit means
            # the topic was already validated, so the hot path skips both.
            validate_topic(topic, allow_wildcards=False)
            if len(self._match_cache) >= self._TOPIC_CACHE_LIMIT:
                # Workloads publishing unbounded distinct topics (per-message
                # suffixes) must not leak; dropping the cache just costs a
                # re-validate/re-match on the next publish of each topic.
                self._match_cache.clear()
            topic_levels = topic.split("/")
            clients = tuple(
                dict.fromkeys(
                    s.client_id
                    for s in self._subscriptions
                    if match_levels(s.filter_levels, topic_levels)
                )
            )
            gap_clients = tuple(
                client_id
                for client_id, filters in self._gap_filters.items()
                if any(match_levels(levels, topic_levels) for levels in filters)
            )
            cached = self._match_cache[topic] = (clients, gap_clients)
        clients, gap_clients = cached
        for client_id in gap_clients:
            # The message would have been parked for this client, but it
            # unsubscribed and has not re-subscribed: no inbox exists.
            # Count the miss instead of losing it silently.
            self._count_shed(client_id)
        if self._corrupt_pending:
            payload = self._maybe_corrupt(bytes(payload))
        message = Message(
            topic=topic,
            payload=bytes(payload),
            message_id=next(self._message_ids),
            timestamp=timestamp,
        )
        self._published_count += 1
        self._published_bytes += message.size_bytes
        for client_id in clients:
            self._deliver(client_id, message)
        return message

    def _count_shed(self, client_id: str, count: int = 1) -> None:
        self._shed_messages += count
        self._shed_by_client[client_id] = self._shed_by_client.get(client_id, 0) + count

    def _deliver(self, client_id: str, message: Message) -> None:
        if client_id in self._partitioned:
            # A partitioned client is unreachable: the message is shed and
            # counted (QoS 0 loss), exactly like bounded-inbox overflow.
            self._count_shed(client_id)
            return
        inbox = self._inboxes.setdefault(client_id, [])
        limit = self._inbox_limit
        if limit is not None and len(inbox) >= limit:
            # Bounded inbox: overload sheds (QoS 0) and is counted — the
            # parked backlog never grows without bound.
            self._count_shed(client_id)
            return
        inbox.append(message)
        self._delivered_count += 1

    # ------------------------------------------------------------------ #
    # Inboxes
    # ------------------------------------------------------------------ #
    def drain_inbox(self, client_id: str) -> List[Message]:
        """Return and clear the queued messages of a subscriber."""
        inbox = self._inboxes.get(client_id)
        if not inbox:
            return []
        self._inboxes[client_id] = []
        return inbox

    def inbox_size(self, client_id: str) -> int:
        """Number of messages currently queued for a subscriber."""
        return len(self._inboxes.get(client_id, ()))

    def inbox_clients(self) -> List[str]:
        """Clients that currently have queued messages."""
        return [client_id for client_id, inbox in self._inboxes.items() if inbox]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def published_count(self) -> int:
        return self._published_count

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    @property
    def published_bytes(self) -> int:
        return self._published_bytes

    @property
    def shed_count(self) -> int:
        """Messages shed (bounded-inbox overflow, unsubscribe drops, gaps)."""
        return self._shed_messages

    @property
    def inbox_limit(self) -> Optional[int]:
        """Per-client inbox bound (messages); ``None`` means unbounded."""
        return self._inbox_limit

    def stats(self) -> Dict[str, object]:
        """Delivery/overload counters (folded into the client's health).

        ``shed_messages`` sums every counted loss: bounded-inbox overflow,
        messages to a partitioned client, inboxes dropped at unsubscribe,
        and messages published in a client's unsubscribe→re-subscribe
        gap.  ``inbox_depth`` is the
        total backlog currently parked across all inboxes.
        """
        return {
            "published": self._published_count,
            "delivered": self._delivered_count,
            "published_bytes": self._published_bytes,
            "shed_messages": self._shed_messages,
            "shed_by_client": dict(self._shed_by_client),
            "inbox_limit": self._inbox_limit,
            "inbox_depth": sum(len(inbox) for inbox in self._inboxes.values()),
            "gap_clients": sorted(self._gap_filters),
            "corrupted_messages": self._corrupted_count,
            "partitioned_clients": sorted(self._partitioned),
        }
