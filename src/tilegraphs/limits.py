"""Size caps that keep every exhaustive check desk-scale.

All enumeration entry points take an optional :class:`Limits`; exceeding a
cap raises :class:`~tilegraphs.errors.SizeLimit` rather than truncating.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    max_tile_cells: int = 64
    max_vertices: int = 1024
    max_paths: int = 200_000

    def __post_init__(self):
        if min(self.max_tile_cells, self.max_vertices, self.max_paths) <= 0:
            raise ValueError("size caps must be positive")


DEFAULT_LIMITS = Limits()

# Python refuses to print an int of more than 4,300 digits in decimal.
_PRINTABLE = 10**4300


def _over_cap(base: int, e: int, cap: int, times: int = 1) -> str | None:
    """``None`` if ``times * base ** e`` is within ``cap``; otherwise that
    count as text, in decimal while Python can print it and as the power
    beyond.  A power past both the cap and the printable range is refused
    from its exponent, so it is never built."""
    # base ** e >= 2 ** (e * (bits - 1)), past both once this exponent is.
    if e * (base.bit_length() - 1) <= max(cap.bit_length(), _PRINTABLE.bit_length()):
        count = times * base**e
        if count <= cap:
            return None
        if count < _PRINTABLE:
            return str(count)
    return f"{base}**{e}" if times == 1 else f"{times} * {base}**{e}"
