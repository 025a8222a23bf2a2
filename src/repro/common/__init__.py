"""Shared low-level utilities used by every other subpackage.

The simulation substrate is deliberately deterministic: time is provided by
:class:`~repro.common.clock.SimulatedClock`, identifiers by
:class:`~repro.common.ids.IdGenerator`, and randomness is always funnelled
through explicit ``numpy.random.Generator`` / ``random.Random`` instances so
experiments can be reproduced bit-for-bit.
"""

from repro.common.clock import SimulatedClock, WallClock
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    RoutingError,
    StorageError,
    ValidationError,
)
from repro.common.ids import IdGenerator
from repro.common.units import (
    BYTES_PER_GB,
    BYTES_PER_KB,
    BYTES_PER_MB,
    DataSize,
    format_bytes,
    gigabytes,
    kilobytes,
    megabytes,
)

__all__ = [
    "BYTES_PER_GB",
    "BYTES_PER_KB",
    "BYTES_PER_MB",
    "ConfigurationError",
    "DataSize",
    "IdGenerator",
    "ReproError",
    "RoutingError",
    "SimulatedClock",
    "StorageError",
    "ValidationError",
    "WallClock",
    "format_bytes",
    "gigabytes",
    "kilobytes",
    "megabytes",
]
