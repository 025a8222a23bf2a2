"""Tests for the in-process MQTT-like broker: inboxes, shed accounting, chaos hooks."""

import importlib

import pytest

import repro.messaging
from repro.common.errors import ConfigurationError, ValidationError
from repro.messaging.broker import Broker, Message
from tests.conftest import make_reading


@pytest.fixture()
def broker():
    return Broker()


def payloads(broker, client_id):
    """Drain *client_id*'s inbox and return its payloads in arrival order."""
    return [message.payload for message in broker.drain_inbox(client_id)]


class TestPublishSubscribe:
    def test_delivery_to_matching_subscriber(self, broker):
        broker.subscribe("c1", "sensors/#")
        broker.publish("sensors/energy/t1", b"21.5")
        assert payloads(broker, "c1") == [b"21.5"]

    def test_no_delivery_to_non_matching_subscriber(self, broker):
        broker.subscribe("c1", "sensors/noise/#")
        broker.publish("sensors/energy/t1", b"21.5")
        assert payloads(broker, "c1") == []

    def test_multiple_subscribers(self, broker):
        broker.subscribe("c1", "a/#")
        broker.subscribe("c2", "a/b")
        broker.publish("a/b", b"x")
        assert broker.inbox_size("c1") == 1 and broker.inbox_size("c2") == 1
        assert broker.delivered_count == 2

    def test_message_ids_increase(self, broker):
        m1 = broker.publish("a/b", b"1")
        m2 = broker.publish("a/b", b"2")
        assert m2.message_id > m1.message_id

    def test_statistics(self, broker):
        broker.subscribe("c1", "#")
        broker.publish("a/b", b"12345")
        assert broker.published_count == 1
        assert broker.published_bytes == 5

    def test_unsubscribe(self, broker):
        broker.subscribe("c1", "a/#")
        assert broker.unsubscribe("c1") == 1
        broker.publish("a/b", b"x")
        assert payloads(broker, "c1") == []

    def test_unsubscribe_specific_filter(self, broker):
        broker.subscribe("c1", "a/#")
        broker.subscribe("c1", "b/#")
        assert broker.unsubscribe("c1", "a/#") == 1
        assert broker.subscriptions_for("c1") == ["b/#"]

    def test_payload_must_be_bytes(self):
        with pytest.raises(ConfigurationError):
            Message(topic="a/b", payload="not-bytes")  # type: ignore[arg-type]


class TestInboxes:
    def test_subscription_parks_messages(self, broker):
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"1")
        broker.publish("a/c", b"2")
        assert broker.inbox_size("c1") == 2
        assert broker.inbox_clients() == ["c1"]

    def test_drain_inbox_returns_and_clears(self, broker):
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"1")
        broker.publish("a/b", b"2")
        messages = broker.drain_inbox("c1")
        assert [m.payload for m in messages] == [b"1", b"2"]
        assert broker.drain_inbox("c1") == []
        assert broker.inbox_size("c1") == 0

    def test_match_cache_invalidated_by_new_subscription(self, broker):
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"1")  # primes the match cache for a/b
        broker.subscribe("c2", "a/b")
        broker.publish("a/b", b"2")
        assert payloads(broker, "c1") == [b"1", b"2"]
        assert payloads(broker, "c2") == [b"2"]

    def test_match_cache_invalidated_by_unsubscribe(self, broker):
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"1")
        broker.unsubscribe("c1")
        broker.publish("a/b", b"2")
        assert broker.delivered_count == 1
        assert payloads(broker, "c1") == []

    def test_unsubscribe_drops_inbox_and_counts_shed(self, broker):
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"1")
        broker.unsubscribe("c1")
        assert broker.inbox_size("c1") == 0  # ghost inbox dropped
        assert broker.inbox_clients() == []
        assert broker.shed_count == 1  # the parked message, counted not silent
        assert broker.stats()["shed_by_client"] == {"c1": 1}

    def test_topic_cache_capped(self, broker):
        broker._TOPIC_CACHE_LIMIT = 8
        broker.subscribe("c1", "#")
        for i in range(20):
            broker.publish(f"unique/topic-{i}", b"x")
        assert len(broker._match_cache) <= 8
        assert broker.delivered_count == 20  # every message still delivered

    def test_overlapping_filters_enqueue_once(self, broker):
        broker.subscribe("c1", "a/#")
        broker.subscribe("c1", "a/b")
        broker.publish("a/b", b"x")
        assert broker.inbox_size("c1") == 1  # one inbox copy per client
        assert broker.delivered_count == 1


    def test_inbox_keeps_publish_order_across_topics(self, broker):
        broker.subscribe("c1", "a/#")
        for topic, payload in [("a/x", b"1"), ("a/y/z", b"2"), ("a/x", b"3"), ("a", b"4")]:
            broker.publish(topic, payload)
        assert payloads(broker, "c1") == [b"1", b"2", b"3", b"4"]

    def test_parked_message_keeps_its_topic_and_timestamp(self, broker):
        broker.subscribe("c1", "a/#")
        sent = broker.publish("a/b", bytearray(b"42"), timestamp=7.5)
        (parked,) = broker.drain_inbox("c1")
        assert parked == sent
        assert (parked.topic, parked.payload, parked.timestamp) == ("a/b", b"42", 7.5)
        assert type(parked.payload) is bytes

    def test_each_client_drains_its_own_inbox(self, broker):
        broker.subscribe("c1", "a/#")
        broker.subscribe("c2", "a/#")
        broker.publish("a/b", b"x")
        assert payloads(broker, "c1") == [b"x"]
        assert broker.inbox_size("c2") == 1
        assert broker.inbox_clients() == ["c2"]

    def test_draining_an_unknown_client_creates_no_inbox(self, broker):
        assert broker.drain_inbox("nobody") == []
        assert broker.inbox_size("nobody") == 0
        assert broker.inbox_clients() == []
        assert broker.stats()["inbox_depth"] == 0

    def test_publish_without_subscribers_is_counted_but_not_delivered(self, broker):
        broker.publish("a/b", b"123")
        assert (broker.published_count, broker.delivered_count, broker.shed_count) == (1, 0, 0)
        assert broker.published_bytes == 3

    def test_dropping_one_of_two_filters_keeps_the_inbox(self, broker):
        broker.subscribe("c1", "a/#")
        broker.subscribe("c1", "b/#")
        broker.publish("a/x", b"1")
        broker.unsubscribe("c1", "b/#")
        broker.publish("b/x", b"2")  # no longer matched, and no gap: c1 is subscribed
        broker.publish("a/x", b"3")
        assert payloads(broker, "c1") == [b"1", b"3"]
        assert broker.shed_count == 0
        assert broker.stats()["gap_clients"] == []

    def test_inbox_depth_sums_every_client(self, broker):
        broker.subscribe("c1", "a/#")
        broker.subscribe("c2", "a/b")
        broker.publish("a/b", b"1")
        broker.publish("a/c", b"2")
        assert broker.stats()["inbox_depth"] == 3
        broker.drain_inbox("c1")
        assert broker.stats()["inbox_depth"] == 1

    def test_invalid_filter_is_rejected_at_subscribe(self, broker):
        with pytest.raises(ValidationError):
            broker.subscribe("c1", "a/#/b")
        assert broker.subscriptions_for("c1") == []


class TestSectionSubscriptions:
    """A fog layer-1 node's ``city/<slug>/<section>/#`` filter holds only its section."""

    SECTION_FILTER = "city/bcn/d-01/s-01/#"

    @pytest.mark.parametrize(
        "topic,parked",
        [
            ("city/bcn/d-01/s-01/frame", True),
            ("city/bcn/d-01/s-01/energy/temperature", True),
            ("city/bcn/d-01/s-010/frame", False),
            ("city/bcn/d-01/s-02/frame", False),
            ("city/other/d-01/s-01/frame", False),
        ],
    )
    def test_section_filter_routing(self, broker, topic, parked):
        broker.subscribe("fog1/d-01/s-01", self.SECTION_FILTER)
        broker.publish(topic, b"x")
        assert broker.inbox_size("fog1/d-01/s-01") == int(parked)


class TestInboxOnlySurface:
    """The broker has one delivery mode: QoS 0 into inboxes, drained in bulk.

    Handlers, QoS 1 acknowledgement and redelivery, retained messages and
    handler-driven inbox flushing are gone, as is the per-client wrapper
    that drove them.
    """

    @pytest.mark.parametrize(
        "name",
        [
            "acknowledge",
            "unacknowledged",
            "redeliver",
            "retained_message",
            "clear_retained",
            "flush_inboxes",
            "publish_columns",
        ],
    )
    def test_the_broker_has_no_handler_qos1_or_retained_verbs(self, broker, name):
        assert not hasattr(broker, name)

    @pytest.mark.parametrize(
        "keyword,value", [("handler", print), ("qos", 0), ("batched", True)]
    )
    def test_subscribe_takes_no_delivery_options(self, broker, keyword, value):
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            broker.subscribe("c1", "a/#", **{keyword: value})
        assert broker.subscriptions_for("c1") == []

    @pytest.mark.parametrize("keyword,value", [("qos", 0), ("retain", True)])
    def test_publish_takes_no_qos_or_retain(self, broker, keyword, value):
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            broker.publish("a/b", b"x", **{keyword: value})
        assert broker.published_count == 0

    @pytest.mark.parametrize("keyword,value", [("qos", 0), ("retain", False)])
    def test_messages_carry_no_qos_or_retain_flag(self, keyword, value):
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            Message(topic="a/b", payload=b"x", **{keyword: value})

    def test_the_package_exports_no_messaging_client(self):
        assert "MessagingClient" not in repro.messaging.__all__
        assert not hasattr(repro.messaging, "MessagingClient")

    def test_the_client_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.messaging.client")


class TestBoundedInboxes:
    """Bounded inboxes: overflow sheds, and every shed is counted."""

    def test_invalid_inbox_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            Broker(inbox_limit=0)
        with pytest.raises(ConfigurationError):
            Broker(inbox_limit=-5)

    def test_unbounded_by_default(self, broker):
        assert broker.inbox_limit is None
        broker.subscribe("c1", "a/#")
        for i in range(100):
            broker.publish("a/b", str(i).encode())
        assert broker.inbox_size("c1") == 100
        assert broker.shed_count == 0

    def test_full_inbox_sheds_overflow(self):
        broker = Broker(inbox_limit=2)
        broker.subscribe("c1", "a/#")
        for i in range(5):
            broker.publish("a/b", str(i).encode())
        assert broker.inbox_size("c1") == 2
        assert payloads(broker, "c1") == [b"0", b"1"]
        assert broker.shed_count == 3
        assert broker.stats()["shed_by_client"] == {"c1": 3}
        # Conservation over the client's history.
        assert broker.published_count == broker.delivered_count + broker.shed_count

    def test_drain_frees_capacity(self):
        broker = Broker(inbox_limit=1)
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"1")
        broker.drain_inbox("c1")
        broker.publish("a/b", b"2")
        assert broker.inbox_size("c1") == 1
        assert broker.shed_count == 0

    def test_resubscribe_gap_counted_as_shed(self, broker):
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"held")           # parked
        broker.unsubscribe("c1")                 # inbox dropped: 1 shed
        broker.publish("a/b", b"gap-1")          # no inbox exists: shed
        broker.publish("a/b", b"gap-2")          # shed
        assert broker.stats()["gap_clients"] == ["c1"]
        broker.subscribe("c1", "a/#")            # gap closes
        broker.publish("a/b", b"after")          # parked again
        assert payloads(broker, "c1") == [b"after"]
        assert broker.shed_count == 3
        assert broker.stats()["shed_by_client"] == {"c1": 3}
        assert broker.stats()["gap_clients"] == []

    def test_gap_only_counts_matching_topics(self, broker):
        broker.subscribe("c1", "a/#")
        broker.unsubscribe("c1")
        broker.publish("b/c", b"elsewhere")      # never matched c1's filter
        assert broker.shed_count == 0
        broker.publish("a/b", b"missed")
        assert broker.shed_count == 1

    def test_gap_shed_rides_the_match_cache(self, broker):
        broker.subscribe("c1", "a/#")
        broker.unsubscribe("c1")
        broker.publish("a/b", b"1")              # miss path computes gap clients
        broker.publish("a/b", b"2")              # hot path: cached gap entry
        assert broker.shed_count == 2

    def test_stats_shape(self):
        broker = Broker(inbox_limit=4)
        broker.subscribe("c1", "a/#")
        broker.publish("a/b", b"123")
        stats = broker.stats()
        assert stats == {
            "published": 1,
            "delivered": 1,
            "published_bytes": 3,
            "shed_messages": 0,
            "shed_by_client": {},
            "inbox_limit": 4,
            "inbox_depth": 1,
            "gap_clients": [],
            "corrupted_messages": 0,
            "partitioned_clients": [],
        }


class TestChaosInjection:
    """Scenario-engine injection points: partition and payload corruption."""

    def test_partitioned_client_sheds_counted(self, broker):
        broker.subscribe("c1", "a/#")
        broker.partition("c1")
        broker.publish("a/b", b"1")
        broker.publish("a/b", b"2")
        assert payloads(broker, "c1") == []
        assert broker.shed_count == 2
        assert broker.stats()["shed_by_client"] == {"c1": 2}
        assert broker.stats()["partitioned_clients"] == ["c1"]
        assert broker.published_count == broker.delivered_count + broker.shed_count

    def test_heal_restores_delivery(self, broker):
        broker.subscribe("c1", "a/#")
        broker.partition("c1")
        broker.publish("a/b", b"lost")
        broker.heal("c1")
        broker.publish("a/b", b"found")
        assert payloads(broker, "c1") == [b"found"]
        assert broker.shed_count == 1
        assert broker.stats()["partitioned_clients"] == []

    def test_partitioned_client_sheds_once_per_message(self, broker):
        broker.subscribe("c1", "a/#")
        broker.subscribe("c1", "a/b")
        broker.partition("c1")
        broker.publish("a/b", b"x")
        assert broker.inbox_size("c1") == 0
        assert broker.shed_count == 1  # de-duplicated per client, like delivery

    def test_partition_only_affects_target_client(self, broker):
        broker.subscribe("ok", "a/#")
        broker.subscribe("down", "a/#")
        broker.partition("down")
        broker.publish("a/b", b"x")
        assert broker.inbox_size("ok") == 1 and broker.inbox_size("down") == 0

    def test_corrupt_next_flips_one_byte_deterministically(self, broker):
        broker.subscribe("c1", "a/#")
        broker.corrupt_next(1, seed=7)
        broker.publish("a/b", b"hello")
        broker.publish("a/b", b"hello")  # armed count exhausted
        mangled, clean = payloads(broker, "c1")
        assert mangled != b"hello"
        assert len(mangled) == 5
        assert sum(a != b for a, b in zip(mangled, b"hello")) == 1
        assert clean == b"hello"
        assert broker.stats()["corrupted_messages"] == 1
        # Same seed, fresh broker: identical mangled bytes.
        twin = Broker()
        twin.subscribe("c1", "a/#")
        twin.corrupt_next(1, seed=7)
        twin.publish("a/b", b"hello")
        assert payloads(twin, "c1") == [mangled]

    def test_corrupt_empty_payload_consumes_slot(self, broker):
        broker.subscribe("c1", "a/#")
        broker.corrupt_next(1, seed=0)
        broker.publish("a/b", b"")
        broker.publish("a/b", b"clean")
        assert payloads(broker, "c1") == [b"", b"clean"]
        assert broker.stats()["corrupted_messages"] == 1

    def test_corrupt_negative_count_rejected(self, broker):
        with pytest.raises(ConfigurationError):
            broker.corrupt_next(-1)


class TestPublishTopicMemoization:
    """The per-publish topic-string cost (ROADMAP "Remaining per-row costs").

    A published topic must be validated and wildcard-matched exactly once
    while the subscription set is stable; repeat publishes pay one dict
    lookup.  ``F2CDataManagement.publish_frames`` additionally renders each
    section's frame topic once per deployment, not once per round.
    """

    def test_topic_validated_once_across_repeat_publishes(self, broker, monkeypatch):
        import repro.messaging.broker as broker_module

        calls = []
        real_validate = broker_module.validate_topic

        def counting_validate(topic, allow_wildcards=False):
            calls.append(topic)
            return real_validate(topic, allow_wildcards=allow_wildcards)

        monkeypatch.setattr(broker_module, "validate_topic", counting_validate)
        broker.subscribe("c1", "a/#")
        calls.clear()
        for _ in range(50):
            broker.publish("a/b", b"x")
        assert calls == ["a/b"]

    def test_invalid_topic_still_rejected_on_first_publish(self, broker):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            broker.publish("a/+/b", b"x")  # wildcards are not publishable
        with pytest.raises(ValidationError):
            broker.publish("", b"x")

    def test_subscription_change_revalidates_and_rematches(self, broker, monkeypatch):
        import repro.messaging.broker as broker_module

        broker.publish("a/b", b"first")  # caches the topic with no matches
        broker.subscribe("c1", "a/b")
        calls = []
        real_validate = broker_module.validate_topic

        def counting_validate(topic, allow_wildcards=False):
            calls.append((topic, allow_wildcards))
            return real_validate(topic, allow_wildcards=allow_wildcards)

        monkeypatch.setattr(broker_module, "validate_topic", counting_validate)
        broker.publish("a/b", b"second")  # cache was cleared: revalidate + rematch
        broker.publish("a/b", b"third")   # hot again: no validation
        assert calls == [("a/b", False)]
        assert payloads(broker, "c1") == [b"second", b"third"]

    def test_publish_frames_renders_each_section_topic_once(self, small_city, small_catalog):
        from repro.core.architecture import F2CDataManagement

        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        topics = []
        original_publish = Broker.publish

        def recording_publish(self, topic, payload, **kwargs):
            topics.append(topic)
            return original_publish(self, topic, payload, **kwargs)

        readings = [
            make_reading(sensor_id=f"tm-{i}", timestamp=1.0, size_bytes=64)
            for i in range(8)
        ]
        try:
            Broker.publish = recording_publish
            for round_index in range(3):
                system.api_pipeline.publish_frames(
                    broker, readings, city_slug="toyville",
                    default_section="d-01/s-01", timestamp=float(round_index),
                )
        finally:
            Broker.publish = original_publish
        assert topics == ["city/toyville/d-01/s-01/frame"] * 3
        # One rendered string object reused across rounds, not re-built.
        assert len({id(topic) for topic in topics}) == 1
