"""Messaging substrate: an in-process MQTT-like publish/subscribe broker.

Sensor data in real fog deployments typically reaches the fog node over a
lightweight pub/sub protocol such as MQTT.  This environment has no network
access, so the package implements the protocol surface the rest of the
library needs — hierarchical topics with ``+``/``#`` wildcards and QoS 0
delivery into bounded, counted per-client inboxes — as an in-process
broker.  The acquisition block of the F2C architecture consumes sensor
readings through this interface, which keeps the code path identical to a
deployment backed by a real broker.
"""

from repro.messaging.broker import Broker, Message
from repro.messaging.topics import TopicFilter, topic_matches, validate_topic

__all__ = [
    "Broker",
    "Message",
    "TopicFilter",
    "topic_matches",
    "validate_topic",
]
