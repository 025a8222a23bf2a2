"""The in-process MQTT-like broker.

Semantics implemented (the subset the F2C data plane relies on):

* **QoS 0** ("at most once") — the broker delivers the message to the
  subscribers registered at publish time and forgets it.
* **QoS 1** ("at least once") — the broker additionally keeps the message in
  a per-subscriber outbox until the subscriber acknowledges it, and can
  redeliver unacknowledged messages.
* **Retained messages** — the broker keeps the last retained message per
  topic and replays it to new subscribers whose filter matches.

Delivery is synchronous (the subscriber callback runs inside ``publish``),
which keeps the simulation deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, RoutingError
from repro.messaging.topics import match_levels, topic_matches, validate_topic


@dataclass(frozen=True)
class Message:
    """A published message."""

    topic: str
    payload: bytes
    qos: int = 0
    retain: bool = False
    message_id: int = 0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.qos not in (0, 1):
            raise ConfigurationError(f"unsupported QoS level: {self.qos}")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise ConfigurationError("payload must be bytes")

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


MessageHandler = Callable[[Message], None]


@dataclass
class _Subscription:
    client_id: str
    topic_filter: str
    handler: MessageHandler
    qos: int = 0
    batched: bool = False
    filter_levels: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.filter_levels:
            self.filter_levels = tuple(self.topic_filter.split("/"))


class Broker:
    """An in-process publish/subscribe broker with MQTT-like semantics.

    Topic-routing state is cached per distinct published topic up to
    ``_TOPIC_CACHE_LIMIT`` entries (city telemetry uses a small, fixed
    section × sensor-type topic set); beyond that the caches reset rather
    than grow without bound.

    Subscriptions come in two delivery modes:

    * **immediate** (default) — the handler runs synchronously inside
      ``publish``, one call per message (classic MQTT callback style);
    * **batched** — matching messages are parked in a per-client inbox and
      delivered later in bulk via :meth:`drain_inbox` /
      :meth:`flush_inboxes`.  This is the high-throughput path: consumers
      that process a whole inbox at once (e.g. a fog node running its
      acquisition block per batch) avoid paying per-message overheads.

    Inboxes are **bounded** when the broker is built with *inbox_limit*: a
    batched client whose inbox is full sheds further matching messages (QoS
    0 overload behaviour) instead of growing without bound under a
    long-running serve loop.  Every shed is counted — per client and in
    total (:meth:`stats`), never silent.  Likewise, a batched client that
    unsubscribes loses its parked inbox (counted as shed), and messages
    published between that unsubscribe and a later re-subscribe — which no
    inbox existed to hold — are counted as shed too, so
    ``published-to-batched = delivered + shed`` holds across the client's
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
        self._retained: Dict[str, Message] = {}
        self._pending_acks: Dict[Tuple[str, int], Message] = {}
        self._inboxes: Dict[str, List[Message]] = {}
        # Topic routing cache: city telemetry reuses a small set of topics
        # (one per section × sensor type), so memoizing "which subscriptions
        # match this topic" turns publish from O(#subscriptions) wildcard
        # matching into a dict hit.  A cached topic is by construction an
        # already-validated one, so the hot publish path pays exactly one
        # dict lookup per message — validation and matching both run only on
        # the miss path.  Each entry also carries the gap clients (batched
        # unsubscribers, see _gap_filters) whose dropped filters match the
        # topic, so shed accounting rides the same dict hit.  The cache is
        # invalidated whenever the subscription set changes — which is also
        # the only time _gap_filters changes.
        self._match_cache: Dict[str, Tuple[List[_Subscription], Tuple[str, ...]]] = {}
        # client id -> the batched filter levels it dropped on unsubscribe
        # while still unsubscribed.  Messages matching these have no inbox
        # to land in; they are counted as shed until the client
        # re-subscribes batched (which clears its gap entry).
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
    def subscribe(
        self,
        client_id: str,
        topic_filter: str,
        handler: MessageHandler,
        qos: int = 0,
        batched: bool = False,
    ) -> None:
        """Register *handler* for messages matching *topic_filter*.

        Retained messages matching the filter are replayed immediately.
        With ``batched=True`` matching messages are queued in the client's
        inbox instead of being handed to *handler* inside ``publish``; the
        handler is still invoked (per message) by :meth:`flush_inboxes`, and
        bulk consumers can bypass it entirely with :meth:`drain_inbox`.
        """
        validate_topic(topic_filter, allow_wildcards=True)
        if qos not in (0, 1):
            raise ConfigurationError(f"unsupported QoS level: {qos}")
        if batched and qos != 0:
            raise ConfigurationError("batched subscriptions support QoS 0 only")
        subscription = _Subscription(
            client_id=client_id, topic_filter=topic_filter, handler=handler, qos=qos, batched=batched
        )
        self._subscriptions.append(subscription)
        self._match_cache.clear()
        if batched:
            # A batched re-subscribe closes the client's unsubscribe gap:
            # from here on matching messages land in a live inbox again.
            self._gap_filters.pop(client_id, None)
        for topic, message in self._retained.items():
            if topic_matches(topic_filter, topic):
                self._deliver(subscription, message)

    def unsubscribe(self, client_id: str, topic_filter: Optional[str] = None) -> int:
        """Remove a client's subscriptions (all of them, or one filter).

        A batched client that loses its last batched subscription also
        loses its parked inbox — those messages can never be delivered and
        are counted as shed, as are messages matching the dropped batched
        filters published before the client re-subscribes (see
        :meth:`stats`).
        """
        removed_batched = [
            s.filter_levels
            for s in self._subscriptions
            if s.client_id == client_id
            and s.batched
            and (topic_filter is None or s.topic_filter == topic_filter)
        ]
        before = len(self._subscriptions)
        self._subscriptions = [
            s
            for s in self._subscriptions
            if not (s.client_id == client_id and (topic_filter is None or s.topic_filter == topic_filter))
        ]
        self._match_cache.clear()
        # A client with no remaining batched subscriptions can never receive
        # its parked messages; shed the inbox (counted, never silent) rather
        # than report ghosts, and remember the dropped filters so messages
        # published during the unsubscribe gap are counted as shed too.
        if not any(s.client_id == client_id and s.batched for s in self._subscriptions):
            inbox = self._inboxes.pop(client_id, None)
            if inbox:
                self._count_shed(client_id, len(inbox))
            if removed_batched:
                gaps = self._gap_filters.setdefault(client_id, [])
                for levels in removed_batched:
                    if levels not in gaps:
                        gaps.append(levels)
        return before - len(self._subscriptions)

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
    def publish(
        self,
        topic: str,
        payload: bytes,
        qos: int = 0,
        retain: bool = False,
        timestamp: float = 0.0,
    ) -> Message:
        """Publish *payload* on *topic* and deliver to matching subscribers."""
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
            matching = [s for s in self._subscriptions if match_levels(s.filter_levels, topic_levels)]
            gap_clients = tuple(
                client_id
                for client_id, filters in self._gap_filters.items()
                if any(match_levels(levels, topic_levels) for levels in filters)
            )
            cached = self._match_cache[topic] = (matching, gap_clients)
        matching, gap_clients = cached
        for client_id in gap_clients:
            # The message would have been parked for this batched client,
            # but it unsubscribed and has not re-subscribed: no inbox
            # exists.  Count the miss instead of losing it silently.
            self._count_shed(client_id)
        if self._corrupt_pending:
            payload = self._maybe_corrupt(bytes(payload))
        message = Message(
            topic=topic,
            payload=bytes(payload),
            qos=qos,
            retain=retain,
            message_id=next(self._message_ids),
            timestamp=timestamp,
        )
        self._published_count += 1
        self._published_bytes += message.size_bytes
        if retain:
            self._retained[topic] = message
        enqueued_clients = None
        for subscription in matching:
            if subscription.batched:
                # One inbox copy per client per message, even when several of
                # the client's batched filters match (a bulk consumer must
                # not see duplicates).
                if enqueued_clients is None:
                    enqueued_clients = set()
                elif subscription.client_id in enqueued_clients:
                    continue
                enqueued_clients.add(subscription.client_id)
            self._deliver(subscription, message)
        return message

    def publish_columns(
        self,
        topic: str,
        columns,
        qos: int = 0,
        retain: bool = False,
        timestamp: float = 0.0,
        frame_format: Optional[str] = None,
    ) -> Message:
        """Publish a whole :class:`~repro.sensors.readings.ReadingColumns`
        batch as one column-frame payload (the wire fast path: one frame per
        node-round instead of one CSV payload per reading).

        *frame_format* selects the frame layout (``"binary-v2"`` — the
        dictionary-compressed layout that assumes both ends share the
        deployment vocabulary — or ``"json"``); ``None`` means binary.
        Receivers detect the layout per payload, so publishers can switch
        formats without coordinating.
        """
        return self.publish(
            topic,
            columns.encode_frame(format=frame_format),
            qos=qos,
            retain=retain,
            timestamp=timestamp,
        )

    def _count_shed(self, client_id: str, count: int = 1) -> None:
        self._shed_messages += count
        self._shed_by_client[client_id] = self._shed_by_client.get(client_id, 0) + count

    def _deliver(self, subscription: _Subscription, message: Message) -> None:
        if subscription.client_id in self._partitioned:
            # A partitioned client is unreachable: the message is shed and
            # counted (QoS 0 loss), exactly like bounded-inbox overflow.
            self._count_shed(subscription.client_id)
            return
        if subscription.batched:
            inbox = self._inboxes.setdefault(subscription.client_id, [])
            limit = self._inbox_limit
            if limit is not None and len(inbox) >= limit:
                # Bounded inbox: overload sheds (QoS 0) and is counted —
                # the parked backlog never grows without bound.
                self._count_shed(subscription.client_id)
                return
            inbox.append(message)
            self._delivered_count += 1
            return
        effective_qos = min(subscription.qos, message.qos)
        if effective_qos >= 1:
            self._pending_acks[(subscription.client_id, message.message_id)] = message
        subscription.handler(message)
        self._delivered_count += 1

    # ------------------------------------------------------------------ #
    # Batched delivery (inboxes)
    # ------------------------------------------------------------------ #
    def drain_inbox(self, client_id: str) -> List[Message]:
        """Return and clear the queued messages of a batched subscriber."""
        inbox = self._inboxes.get(client_id)
        if not inbox:
            return []
        self._inboxes[client_id] = []
        return inbox

    def inbox_size(self, client_id: str) -> int:
        """Number of messages currently queued for a batched subscriber."""
        return len(self._inboxes.get(client_id, ()))

    def inbox_clients(self) -> List[str]:
        """Clients that currently have queued messages."""
        return [client_id for client_id, inbox in self._inboxes.items() if inbox]

    def flush_inboxes(self, client_id: Optional[str] = None) -> int:
        """Deliver queued messages through the batched subscriptions' handlers.

        Returns the number of messages actually handed to a handler.  Parked
        messages whose batched subscription has since been removed are
        dropped (QoS 0) and counted as shed.  Bulk consumers that want a
        single callback per inbox should use :meth:`drain_inbox` instead.
        """
        flushed = 0
        targets = [client_id] if client_id is not None else list(self._inboxes.keys())
        for target in targets:
            # The client's batched subscriptions are fixed for the duration
            # of the flush: filter them once and match with the precomputed
            # filter levels instead of re-validating topic strings per
            # (message, subscription) pair.
            subscriptions = [
                s for s in self._subscriptions if s.client_id == target and s.batched
            ]
            if not subscriptions:
                # Documented QoS 0 behaviour: parked messages whose batched
                # subscription is gone are dropped, not kept — but the drop
                # is counted, never silent.
                dropped = self.drain_inbox(target)
                if dropped:
                    self._count_shed(target, len(dropped))
                continue
            for message in self.drain_inbox(target):
                handled = False
                topic_levels = message.topic.split("/")
                for subscription in subscriptions:
                    if match_levels(subscription.filter_levels, topic_levels):
                        # Every matching handler runs, mirroring immediate
                        # delivery with overlapping filters.
                        subscription.handler(message)
                        handled = True
                if handled:
                    flushed += 1
        return flushed

    # ------------------------------------------------------------------ #
    # QoS 1 acknowledgement
    # ------------------------------------------------------------------ #
    def acknowledge(self, client_id: str, message_id: int) -> None:
        """Acknowledge a QoS 1 delivery; unknown acks raise ``RoutingError``."""
        key = (client_id, message_id)
        if key not in self._pending_acks:
            raise RoutingError(f"no pending delivery for client={client_id} id={message_id}")
        del self._pending_acks[key]

    def unacknowledged(self, client_id: Optional[str] = None) -> List[Message]:
        """Messages delivered at QoS 1 that have not been acknowledged yet."""
        return [
            message
            for (owner, _), message in self._pending_acks.items()
            if client_id is None or owner == client_id
        ]

    def redeliver(self, client_id: str) -> int:
        """Redeliver all unacknowledged QoS 1 messages to *client_id*.

        Returns the number of messages redelivered.  Redelivery goes through
        the client's current subscriptions, so a client that unsubscribed
        receives nothing (and keeps the messages pending).
        """
        redelivered = 0
        for (owner, _), message in list(self._pending_acks.items()):
            if owner != client_id:
                continue
            for subscription in self._subscriptions:
                if subscription.client_id == client_id and topic_matches(
                    subscription.topic_filter, message.topic
                ):
                    subscription.handler(message)
                    redelivered += 1
                    break
        return redelivered

    # ------------------------------------------------------------------ #
    # Retained messages & statistics
    # ------------------------------------------------------------------ #
    def retained_message(self, topic: str) -> Optional[Message]:
        return self._retained.get(topic)

    def clear_retained(self, topic: Optional[str] = None) -> None:
        if topic is None:
            self._retained.clear()
        else:
            self._retained.pop(topic, None)

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
        inboxes dropped at unsubscribe, parked messages flushed after their
        subscription was removed, and messages published in a batched
        client's unsubscribe→re-subscribe gap.  ``inbox_depth`` is the
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
