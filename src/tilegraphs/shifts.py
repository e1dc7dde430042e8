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
log space beyond; small rows are checked by counting edge chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .data import BasicData, _vertex_exponent
from .errors import InvariantViolation, NotAdmissible, RegionShapeMismatch
from .graph import (
    BLUE, RED, Path, Skeleton, _count_chains, _path_exponent, build_skeleton
)
from .lattice import Point, contained_translates, p_sub, translate_union
from .limits import DEFAULT_LIMITS, Limits, _check_cap

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
    would exceed 512 bits).  For ``d <= cross_check_upto`` the edge chains
    blue^d red^d and red^d blue^d must end ``|A| ** (d (c1 + c2))`` times
    at each vertex, or ``InvariantViolation``; a side past the path cap
    raises ``SizeLimit``.
    """
    if d < 1:
        raise ValueError(f"block side must be positive, got {d}")
    base = len(bd.alphabet)
    ve, pe = _vertex_exponent(bd.tile), _path_exponent(bd, (d, d))
    if d <= cross_check_upto:
        msg = "block census: side {size} exceeds the path cap of {cap}"
        _check_cap(d, limits.max_paths, msg)
        sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
        starts = dict.fromkeys(range(len(sk.vertices)), 1)
        for first, then in ((BLUE, RED), (RED, BLUE)):
            tables = [sk._out[first]] * d + [sk._out[then]] * d
            ends = _count_chains(starts, tables)  # blocks by source vertex
            if len(ends) != base**ve or set(ends.values()) != {base**pe}:
                raise InvariantViolation(
                    f"{first}^{d} {then}^{d} edge chains end "
                    f"{sorted(set(ends.values()))} times at {len(ends)} vertices, "
                    f"not {base}**{pe} times at {base}**{ve}"
                )
    exponent = ve + pe
    log_count = exponent * math.log(base)
    count: int | None = None
    if exponent * math.log2(base) <= COUNT_BITS:
        count = base**exponent
        if count.bit_length() > COUNT_BITS:
            count = None
    return BlockCensus(d, count, log_count, log_count * 2.0 ** (-d))


def entropy_sequence(
    bd: BasicData,
    d_max: int,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
    cross_check_upto: int = 2,
) -> list[BlockCensus]:
    """Census rows for ``d = 1 .. d_max``; the entropy terms tend to zero.

    More rows than the path cap raise ``SizeLimit`` before any is counted;
    the checked rows share one skeleton.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be positive, got {d_max}")
    msg = "entropy census: {size} rows exceed the path cap of {cap}"
    _check_cap(d_max, limits.max_paths, msg)
    if skeleton is None and cross_check_upto > 0:
        skeleton = build_skeleton(bd, limits)
    return [
        count_blocks(bd, d, skeleton, limits, cross_check_upto)
        for d in range(1, d_max + 1)
    ]
