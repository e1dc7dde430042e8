"""Lattice geometry: tiles, translate unions, overlaps.

Points are plain ``(x, y)`` tuples of non-negative integers, ordered
componentwise.  A *tile* is a finite, nonempty, hereditary subset of the
quadrant: whenever a point is in the tile, so is every point componentwise
below it.  Its *corner extent* ``(c1, c2)`` is the componentwise join of its
points, and its *reduced set* is the tile minus the two extreme corners
``(c1, 0)`` and ``(0, c2)``.

Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DegenerateTile, EmptyTile, NotHereditary
from .limits import DEFAULT_LIMITS, Limits, _check_cap

Point = tuple[int, int]

ORIGIN: Point = (0, 0)
E1: Point = (1, 0)
E2: Point = (0, 1)


def p_add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def p_sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def p_join(a: Point, b: Point) -> Point:
    """Componentwise maximum."""
    return (max(a[0], b[0]), max(a[1], b[1]))


def p_meet(a: Point, b: Point) -> Point:
    """Componentwise minimum."""
    return (min(a[0], b[0]), min(a[1], b[1]))


def p_leq(a: Point, b: Point) -> bool:
    """Componentwise partial order."""
    return a[0] <= b[0] and a[1] <= b[1]


def unit(axis: int) -> Point:
    """Basis vector for ``axis`` in {1, 2}."""
    if axis == 1:
        return E1
    if axis == 2:
        return E2
    raise ValueError(f"axis must be 1 or 2, got {axis!r}")


def box(lo: Point, hi: Point) -> Iterator[Point]:
    """All points ``lo <= p <= hi`` in lexicographic (x-major) order."""
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            yield (x, y)


@dataclass(frozen=True)
class Region:
    """An arbitrary finite set of lattice points (signed coordinates allowed)."""

    points: frozenset[Point]

    @staticmethod
    def of(points: Iterable[Point]) -> "Region":
        return Region(frozenset((int(x), int(y)) for x, y in points))

    @property
    def sorted_points(self) -> list[Point]:
        return sorted(self.points)

    def translate(self, n: Point) -> "Region":
        return Region(frozenset(p_add(p, n) for p in self.points))

    def __contains__(self, p: Point) -> bool:
        return p in self.points

    def __iter__(self) -> Iterator[Point]:
        return iter(self.sorted_points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Tile:
    """A validated hereditary tile; construct through :func:`parse_tile`.
    Equality and the hash read ``points`` alone; the rest is derived."""

    points: frozenset[Point]
    c1: int = field(compare=False)
    c2: int = field(compare=False)
    reduced: frozenset[Point] = field(compare=False)
    degenerate: bool = field(compare=False)
    sorted_points: tuple[Point, ...] = field(repr=False, compare=False)
    sorted_reduced: tuple[Point, ...] = field(repr=False, compare=False)

    @property
    def corner_br(self) -> Point:
        """Bottom-right extreme corner ``c1 * e1``."""
        return (self.c1, 0)

    @property
    def corner_ul(self) -> Point:
        """Upper-left extreme corner ``c2 * e2``."""
        return (0, self.c2)

    def translate(self, n: Point) -> frozenset[Point]:
        return frozenset(p_add(p, n) for p in self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self.points

    def __len__(self) -> int:
        return len(self.points)


def parse_tile(points: Iterable[Point], limits: Limits = DEFAULT_LIMITS) -> Tile:
    """Validate a point set as a tile.

    Parameters
    ----------
    points : iterable of (x, y)
        The candidate cells.
    limits : Limits
        ``max_tile_cells`` bounds the accepted size.

    Returns
    -------
    Tile
        With corner extent, reduced set, and degeneracy flag computed.

    Raises
    ------
    EmptyTile
        If no points are given.
    NotHereditary
        If some point's predecessor is missing; the exception carries a
        witness.
    SizeLimit
        If the tile exceeds ``limits.max_tile_cells``.
    """
    pts = frozenset((int(x), int(y)) for x, y in points)
    if not pts:
        raise EmptyTile("a tile must contain at least one point")
    _check_cap(len(pts), limits.max_tile_cells, "tile has {size} cells, cap is {cap}")
    for (x, y) in sorted(pts):
        if x < 0 or y < 0:
            raise NotHereditary((x, y), "the quadrant")
        # Closure under single-step predecessors is equivalent to full
        # downward closure.
        if x > 0 and (x - 1, y) not in pts:
            raise NotHereditary((x, y), (x - 1, y))
        if y > 0 and (x, y - 1) not in pts:
            raise NotHereditary((x, y), (x, y - 1))

    c1 = max(x for x, _ in pts)
    c2 = max(y for _, y in pts)
    degenerate = len(pts) == 1
    reduced = pts - {(c1, 0), (0, c2)}  # empty on the one-cell tile
    return Tile(
        points=pts,
        c1=c1,
        c2=c2,
        reduced=reduced,
        degenerate=degenerate,
        sorted_points=tuple(sorted(pts)),
        sorted_reduced=tuple(sorted(reduced)),
    )


def reduced_set(tile: Tile) -> Region:
    """The tile minus its two extreme corners.

    Raises
    ------
    DegenerateTile
        For the one-cell tile, whose reduced set is undefined.
    """
    if tile.degenerate:
        raise DegenerateTile("the one-cell tile has no reduced set")
    return Region(tile.reduced)


def translate_union(tile: Tile, n: Point) -> Region:
    """Union of all translates ``tile + m`` over ``0 <= m <= n``."""
    pts = set()
    for m in box(ORIGIN, n):
        pts.update(tile.translate(m))
    return Region(frozenset(pts))


def overlap(tile: Tile, axis: int) -> Region:
    """``T n (T + e_axis)``: the tile cells whose ``axis``-predecessor is a cell.

    By hereditarity this is exactly the set of cells with positive
    ``axis`` coordinate, so it is empty iff the corner extent on that axis
    is zero.
    """
    e = unit(axis)
    return Region(frozenset(p for p in tile.points if p_sub(p, e) in tile.points))


def contained_translates(tile: Tile, region: frozenset[Point]) -> list[Point]:
    """All offsets ``k`` with ``tile + k`` fully inside ``region``, sorted."""
    if not region:
        return []
    xs = [x for x, _ in region]
    ys = [y for _, y in region]
    out = []
    for kx in range(min(xs), max(xs) - tile.c1 + 1):
        for ky in range(min(ys), max(ys) - tile.c2 + 1):
            if all((tx + kx, ty + ky) in region for tx, ty in tile.points):
                out.append((kx, ky))
    return out
