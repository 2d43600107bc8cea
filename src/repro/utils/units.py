"""Byte/time unit constants and human readable formatting."""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

_BYTE_UNITS = (
    (TiB, "TiB"),
    (GiB, "GiB"),
    (MiB, "MiB"),
    (KiB, "KiB"),
)


def format_bytes(num_bytes: float) -> str:
    """Render a byte count as a short human readable string (e.g. ``"16.0 GiB"``)."""
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    for factor, suffix in _BYTE_UNITS:
        if num_bytes >= factor:
            return f"{num_bytes / factor:.1f} {suffix}"
    return f"{int(num_bytes)} B"


def format_duration(seconds: float) -> str:
    """Render a duration as a short human readable string."""
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    if seconds >= 60:
        return f"{seconds / 60:.2f} min"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.2f} us"
