"""Finite windows of the induced two-dimensional shift of finite type.

A configuration over a finite region is *admissible* when every fully
contained tile window restricts to a vertex; the admissible bi-infinite
configurations form a shift of finite type whose allowed-window set is the
vertex family itself.  On finite windows the correspondence between paths
and configurations is the identity on label maps: a path of degree ``n``
*is* an admissible configuration over ``T(n)``, and conversely.

Square-block counts come from the path identity ``|B_d| = |paths of degree
(d, d)|`` with the closed form ``|A| ** (|P| + 1 + d (c1 + c2))``; the
entropy terms ``log |B_d| / 2**d`` therefore vanish, matching the general
``d**2 / 2**d`` upper bound.  Counts are kept exact up to 512 bits and in
log space beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .data import BasicData
from .errors import InvariantViolation, NotAdmissible, RegionShapeMismatch, SizeLimit
from .graph import Path, Skeleton, all_paths, path_count
from .lattice import Point, contained_translates, p_sub, translate_union
from .limits import DEFAULT_LIMITS, Limits

COUNT_BITS = 512


@dataclass(frozen=True)
class WindowConfig:
    """A labelling of a finite lattice region; coordinates may be signed."""

    labels: tuple[tuple[Point, str], ...]

    @staticmethod
    def make(labels: Mapping[Point, str]) -> "WindowConfig":
        return WindowConfig(tuple(sorted(labels.items())))

    def as_dict(self) -> dict[Point, str]:
        return dict(self.labels)

    @property
    def region(self) -> frozenset[Point]:
        return frozenset(p for p, _ in self.labels)

    def translate(self, b: Point) -> "WindowConfig":
        """The shifted configuration ``i -> self(i + b)``."""
        return WindowConfig.make({p_sub(p, b): s for p, s in self.labels})

    def restrict(self, region) -> "WindowConfig":
        keep = frozenset(region)
        return WindowConfig(tuple((p, s) for p, s in self.labels if p in keep))


@dataclass(frozen=True)
class BlockCensus:
    """Exact-or-logarithmic count of the ``d x d`` blocks."""

    d: int
    count: int | None
    log_count: float
    entropy_term: float


def window_admissible(bd: BasicData, config: WindowConfig) -> bool:
    """True iff every fully contained tile window restricts to a vertex.

    Vacuously true when no translate of the tile fits inside the region.
    """
    offsets = contained_translates(bd.tile, config.region)
    return bd.bad_window(dict(config.labels), offsets) is None


def path_to_config(path: Path) -> WindowConfig:
    """The admissible configuration carried by a path (same label map)."""
    return WindowConfig(path.labels)


def config_to_path(bd: BasicData, config: WindowConfig) -> Path:
    """Read a path of degree ``n`` off a configuration over ``T(n)``.

    The region is normalised by translation so its minimum corner sits at
    the origin, then must equal a translate union ``T(n)`` exactly.

    Raises
    ------
    RegionShapeMismatch
        The (translated) region is no ``T(n)``.
    NotAdmissible
        Some tile window of the configuration is not a vertex.
    """
    region = config.region
    if not region:
        raise RegionShapeMismatch("empty region")
    shift = (min(x for x, _ in region), min(y for _, y in region))
    labels = {p_sub(p, shift): s for p, s in config.labels}
    pts = frozenset(labels)
    tile = bd.tile
    n = (
        max(x for x, _ in pts) - tile.c1,
        max(y for _, y in pts) - tile.c2,
    )
    if n[0] < 0 or n[1] < 0 or translate_union(tile, n).points != pts:
        raise RegionShapeMismatch(
            "region is not a translate union of the tile"
        )
    k = bd.bad_window(labels, contained_translates(tile, pts))
    if k is not None:
        raise NotAdmissible(f"the window at offset {k} is not a vertex")
    return Path.make(tile, n, labels)


def count_blocks(
    bd: BasicData,
    d: int,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
    cross_check_upto: int = 2,
) -> BlockCensus:
    """Number of ``d x d`` blocks via the degree-``(d, d)`` path identity.

    The closed form always returns (as a logarithm once the exact integer
    would exceed 512 bits).  For ``d <= cross_check_upto`` the count is also
    obtained by brute-force path enumeration and compared; a mismatch is an
    invariant violation, and an infeasible brute force raises ``SizeLimit``.
    """
    if d < 1:
        raise ValueError(f"block side must be positive, got {d}")
    if bd.degenerate:
        exponent, base = 0, 1
    else:
        exponent = len(bd.tile.reduced) + 1 + d * (bd.tile.c1 + bd.tile.c2)
        base = len(bd.alphabet)
    log_count = exponent * math.log(base) if base > 1 else 0.0
    count: int | None = None
    if base == 1 or exponent * math.log2(base) <= COUNT_BITS:
        count = base**exponent
        if count.bit_length() > COUNT_BITS:
            count = None
    entropy_term = log_count * 2.0 ** (-d)

    if d <= cross_check_upto:
        observed = len(all_paths(bd, (d, d), skeleton=skeleton, limits=limits))
        if count is not None and observed != count:
            raise InvariantViolation(
                f"closed form gives {count} blocks at d={d}, enumeration "
                f"gives {observed}"
            )
    return BlockCensus(d, count, log_count, entropy_term)


def entropy_sequence(
    bd: BasicData,
    d_max: int,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
    cross_check_upto: int = 2,
) -> list[BlockCensus]:
    """Census rows for ``d = 1 .. d_max``; the entropy terms tend to zero.

    More rows than the path cap raise ``SizeLimit`` before any is counted.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be positive, got {d_max}")
    if d_max > limits.max_paths:
        raise SizeLimit(
            f"entropy census: {d_max} rows exceed the path cap of "
            f"{limits.max_paths}"
        )
    rows = []
    for d in range(1, d_max + 1):
        upto = cross_check_upto
        if d <= upto and path_count(bd, (d, d)) * bd.vertex_count() > limits.max_paths:
            upto = 0  # brute force infeasible at this depth; skip quietly
        rows.append(
            count_blocks(bd, d, skeleton=skeleton, limits=limits, cross_check_upto=upto)
        )
    return rows
