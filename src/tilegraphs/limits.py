"""Size caps that keep every exhaustive check desk-scale.

All enumeration entry points take an optional :class:`Limits`; exceeding a
cap raises :class:`~tilegraphs.errors.SizeLimit` rather than truncating.
:func:`_check_cap` is the one place such a refusal is decided and worded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimit


@dataclass(frozen=True)
class Limits:
    max_tile_cells: int = 64
    max_vertices: int = 1024
    max_paths: int = 200_000

    def __post_init__(self):
        for cap in (self.max_tile_cells, self.max_vertices, self.max_paths):
            if not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0:
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


def _check_cap(count: int | tuple[int, ...], cap: int, message: str, **fields) -> None:
    """``SizeLimit`` if ``count`` exceeds ``cap``.  ``count`` is an int or a
    power ``(base, e)`` / ``(base, e, times)``, decided and named by
    :func:`_over_cap`.  Only a refusal formats ``message``, with the count
    as ``size``, the ``cap`` and ``fields``."""
    if isinstance(count, tuple):
        base, e, *times = count
        size = _over_cap(base, e, cap, *times)
    else:
        size = count if count > cap else None
    if size is not None:
        raise SizeLimit(message.format(size=size, cap=cap, **fields))
