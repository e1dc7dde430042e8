"""The rank-2 graph generated by basic data.

Paths of degree ``n`` are labellings of the translate union ``T(n)`` whose
every tile-window restriction is a vertex.  The window at the origin is the
*range* of the path and the window at offset ``n`` is its *source*; an edge
of degree ``e1`` ("blue") from ``v`` to ``u`` therefore exists iff
``v(m) == u(m - e1)`` on the overlap ``T n (T + e1)``, and likewise in red
for ``e2``.

Composition of paths with matching source and range is total and unique: the
two rectangular regions left uncovered by the operands are filled one corner
cell at a time, each cell forced by the single tile window it completes, in
the order :func:`_fills` gives; :func:`_geometry` adds the cells the second
operand moves, and checks nothing (its test is its oracle).

Inside the library a path of degree ``n`` is the tuple of its symbols in
the slot order of ``T(n)``'s cached layout; a ``Path`` is built by
:func:`_path` only where a public function returns one, and a slice is a
cached slot list (:func:`_slice`).  Batches of paths are columns by cell,
and one executor composes them all, :func:`_join`: ``compose``, every
path enumeration's edge-chain step (:func:`_chain_step`, which writes only
the cells one more edge adds, with the skeleton's one edge table per
colour, gathered from its vertices) and the axiom checks' batches.
Enumerations run breadth first over whole degrees, or, for the witness
search, along the first path one edge at a time before the rest
(:func:`_chain_walk`).

All values here are immutable; building and enumerating paths is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter, ne
from itertools import accumulate, chain, compress, count, repeat
from typing import Iterator, Mapping, Sequence

from .data import (
    BasicData,
    Vertex,
    enumerate_vertices,
    pattern_key,
    vertex_from_labels,
)
from .errors import (
    InconsistentInput,
    InvariantViolation,
    OutOfRange,
    SourceRangeMismatch,
    ValidationError,
)
from .lattice import (
    ORIGIN,
    Point,
    Tile,
    contained_translates,
    overlap,
    p_add,
    p_leq,
    p_sub,
    translate_union,
    unit,
)
from .limits import DEFAULT_LIMITS, Limits, _check_cap

BLUE, RED = "blue", "red"
COLOUR_AXIS = {BLUE: 1, RED: 2}


def _axis(colour: str) -> int:
    """The axis of ``colour``'s edges; ``ValueError`` for any other name."""
    if colour not in (BLUE, RED):
        raise ValueError(f"colour must be 'blue' or 'red', got {colour!r}")
    return COLOUR_AXIS[colour]


@dataclass(frozen=True)
class Path:
    """A degree-``n`` labelling of ``T(n)``; degree ``(0, 0)`` wraps a vertex."""

    tile: Tile
    degree: Point
    labels: tuple[tuple[Point, str], ...]

    @staticmethod
    def make(tile: Tile, degree: Point, labels: Mapping[Point, str]) -> "Path":
        return Path(tile, degree, tuple(sorted(labels.items())))

    @staticmethod
    def from_vertex(tile: Tile, v: Vertex) -> "Path":
        return Path(tile, ORIGIN, v.labels)

    def label(self, point: Point) -> str:
        return dict(self.labels)[point]

    def as_dict(self) -> dict[Point, str]:
        return dict(self.labels)

    def window(self, m: Point) -> Vertex:
        """The tile-window restriction at offset ``m`` (shifted back to the
        tile); ``OutOfRange`` unless ``0 <= m <= d(self)``."""
        if not (p_leq(ORIGIN, m) and p_leq(m, self.degree)):
            raise OutOfRange(f"window offset {m} is not within degree {self.degree}")
        symbols = _symbols(self)
        slots = _slice(self.tile, self.degree, m, ORIGIN)
        labels = dict(zip(self.tile.sorted_points, map(symbols.__getitem__, slots)))
        return vertex_from_labels(self.tile, labels)

    @property
    def range_vertex(self) -> Vertex:
        return self.window(ORIGIN)

    @property
    def source_vertex(self) -> Vertex:
        return self.window(self.degree)


# -- layouts ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Layout:
    """The cells of ``T(n)`` in sorted order (a path's symbols are read slot
    by slot against them) and each cell's slot."""

    cells: tuple[Point, ...]
    slot: dict[Point, int]


@lru_cache(maxsize=256)
def _layout(tile: Tile, n: Point) -> _Layout:
    cells = tuple(translate_union(tile, n).sorted_points)
    return _Layout(cells, {c: i for i, c in enumerate(cells)})


def _path(tile: Tile, n: Point, symbols) -> Path:
    """The degree-``n`` path whose symbols, slot by slot, are ``symbols``."""
    return Path(tile, n, tuple(zip(_layout(tile, n).cells, symbols)))


def _symbols(path: Path) -> tuple[str, ...]:
    """The symbols of ``path`` slot by slot; ``InvariantViolation`` unless
    it labels exactly the sorted cells of ``T(d(path))``."""
    cells = _layout(path.tile, path.degree).cells
    if len(path.labels) == len(cells):
        have, symbols = zip(*path.labels)
        if have == cells:
            return symbols
    raise InvariantViolation(
        f"a path of degree {path.degree} must label exactly the sorted "
        f"cells of T({path.degree})"
    )


@lru_cache(maxsize=64)
def _overlap_pairs(tile: Tile, axis: int) -> tuple[tuple[int, int], ...]:
    """Tile slots of ``(m, m - e_axis)`` for each ``m`` of ``T n (T + e_axis)``."""
    e, slot = unit(axis), _layout(tile, ORIGIN).slot
    return tuple((slot[m], slot[p_sub(m, e)]) for m in overlap(tile, axis))


def edge_condition(tile: Tile, v: Vertex, u: Vertex, axis: int) -> bool:
    """Whether the degree-``e_axis`` edge from ``v`` to ``u`` exists."""
    return all(v.symbols[m] == u.symbols[k] for m, k in _overlap_pairs(tile, axis))


def _pairwise_edges(
    tile: Tile, keys: Sequence[tuple[str, ...]], axis: int
) -> tuple[tuple[int, int], ...]:
    """Every ordered pair ``(i, j)`` of tile labellings (symbols by tile
    slot) joined by a degree-``e_axis`` edge, in row-major order.

    The :func:`edge_condition` scan over all V² pairs, with each labelling
    read once: its head key (symbols at ``m``) and tail key (symbols at
    ``m - e``) on the overlap, so ``i -> j`` iff ``head[i] == tail[j]``.
    Beyond the overlap pairs it shares no code with the join in
    :func:`build_skeleton`, so it can check that join.
    """
    pairs = _overlap_pairs(tile, axis)
    heads = [tuple([s[m] for m, _ in pairs]) for s in keys]
    tails = [tuple([s[k] for _, k in pairs]) for s in keys]
    return tuple(
        (i, j) for i, h in enumerate(heads) for j, t in enumerate(tails) if h == t
    )


@dataclass(eq=False)
class Skeleton:
    """Bicoloured directed graph on the vertex set.

    Edges are ordered pairs of vertex indices ``(v, u)`` with ``v`` the
    range-side window; there is at most one edge per colour per pair.
    Every walk reads ``_out``: each vertex's heads per colour, ascending,
    and under ``(BLUE, RED)`` the blue heads, then the red.
    """

    basic_data: BasicData
    vertices: tuple[Vertex, ...]
    blue: tuple[tuple[int, int], ...]
    red: tuple[tuple[int, int], ...]
    index: dict[Vertex, int] = field(repr=False)

    def __post_init__(self):
        n = len(self.vertices)
        self._edge_batches: dict[str, tuple] = {}  # by colour
        out = self._out = {}
        for colour in (BLUE, RED):
            adj: list[list[int]] = [[] for _ in range(n)]
            for v, u in self.edges(colour):
                adj[v].append(u)
            out[colour] = tuple(tuple(sorted(row)) for row in adj)
        out[BLUE, RED] = tuple(map(tuple.__add__, out[BLUE], out[RED]))

    def edges(self, colour: str) -> tuple[tuple[int, int], ...]:
        return self.blue if _axis(colour) == 1 else self.red

    def out_neighbours(self, colour: str, v: int) -> list[int]:
        _axis(colour)  # rejects an unknown colour
        return list(self._out[colour][v])

    def has_edge(self, colour: str, v: int, u: int) -> bool:
        _axis(colour)
        return u in self._out[colour][v]

    def matrix(self, colour: str):
        """The dense 0/1 int64 numpy adjacency matrix; only it imports numpy."""
        import numpy as np

        n = len(self.vertices)
        m = np.zeros((n, n), dtype=np.int64)
        for v, u in self.edges(colour):
            m[v, u] = 1
        return m

    def edge_path(self, colour: str, v: int, u: int) -> Path:
        """The unique degree-``e_axis`` path with range ``v`` and source ``u``;
        ``ValidationError`` unless ``v -> u`` is a ``colour`` edge."""
        e = unit(_axis(colour))
        if not (0 <= v < len(self.vertices) and u in self._out[colour][v]):
            raise ValidationError(f"({v}, {u}) is not a {colour} edge of the skeleton")
        columns, _, spans = self._edge_batch(colour)
        i = spans[v][self._out[colour][v].index(u)]
        return _path(self.basic_data.tile, e, [column[i] for column in columns.values()])

    def _edge_batch(self, colour: str) -> tuple:
        """The ``colour`` edges ``v -> u`` in out-list order: their columns of
        symbols by cell of ``T(e)`` (a cell of ``T`` from ``v``, any other
        cell ``c`` from ``u`` at ``c - e``), their heads, and each vertex's
        range of edge numbers; gathered at first use and kept.
        ``InvariantViolation`` names the first edge whose overlap disagrees."""
        if colour not in self._edge_batches:
            tile, axis = self.basic_data.tile, _axis(colour)
            rows, e, slot = self._out[colour], unit(axis), _layout(tile, ORIGIN).slot
            tails, heads = _spread(range(len(rows)), rows)
            at = list(zip(*[v.symbols for v in self.vertices]))  # each slot's symbols
            # By tile slot, each edge's symbol there in its tail, then in its head.
            tail, head = ([list(map(s.__getitem__, vs)) for s in at] for vs in (tails, heads))
            columns = {c: tail[slot[c]] if c in slot else head[slot[p_sub(c, e)]]
                       for c in _layout(tile, e).cells}
            wrong = [i for m, k in _overlap_pairs(tile, axis)
                     for i in compress(count(), map(ne, tail[m], head[k]))]
            if wrong:  # name the first in out-list order
                v, u = tails[min(wrong)], heads[min(wrong)]
                raise InvariantViolation(f"edge ({v}, {u}, {colour}) has inconsistent overlap")
            ends = list(accumulate(map(len, rows)))
            self._edge_batches[colour] = columns, heads, list(map(range, [0, *ends], ends))
        return self._edge_batches[colour]


def build_skeleton(
    bd: BasicData, limits: Limits = DEFAULT_LIMITS, check: bool = True
) -> Skeleton:
    """Construct the skeleton by a hash join per colour, then check the
    degree counts (``check=False`` skips that guard so verification suites
    can diagnose deliberately broken data instead of tripping over it).

    The edge ``v -> u`` exists iff ``v(m) == u(m - e)`` on the overlap, so
    each ``u`` is bucketed by its labels at the points ``m - e`` and each
    ``v`` looks up the bucket keyed by its labels at ``m``.  The cost is
    O(V * out-degree) per colour; edges come out sorted, exactly as a test
    of :func:`edge_condition` on every ordered pair would give them.

    For degenerate (one-cell) data, and for a flat tile in the colour of
    its zero extent, the overlap is empty: every vertex shares the one
    empty key, so the result is the complete digraph in that colour.
    """
    vertices = tuple(enumerate_vertices(bd, limits))
    index = {v: i for i, v in enumerate(vertices)}
    symbols = [v.symbols for v in vertices]
    edges: dict[str, list[tuple[int, int]]] = {}
    for colour, axis in COLOUR_AXIS.items():
        pairs = _overlap_pairs(bd.tile, axis)
        buckets: dict[tuple[str, ...], list[int]] = {}
        for j, s in enumerate(symbols):
            buckets.setdefault(tuple([s[k] for _, k in pairs]), []).append(j)
        edges[colour] = [
            (i, j)
            for i, s in enumerate(symbols)
            for j in buckets.get(tuple([s[m] for m, _ in pairs]), ())
        ]
    sk = Skeleton(bd, vertices, tuple(edges[BLUE]), tuple(edges[RED]), index)
    if check:
        from .checks import check_degree_counts  # checks imports this module

        result = check_degree_counts(bd, sk)
        if not result.ok:
            raise InvariantViolation(result.detail)
    return sk


def to_dot(sk: Skeleton) -> str:
    """Deterministic DOT rendering: blue edges solid, red edges dashed.

    A label is the pattern key, ``|`` and the top symbol, as a DOT quoted
    string: ``\\``, ``"`` and ``|`` in symbols are escaped with a
    backslash, so no two vertices share a label."""

    def escape(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"').replace("|", "\\|")

    lines = ["digraph skeleton {"]
    for i, v in enumerate(sk.vertices):
        label = f"{pattern_key([escape(s) for s in v.pattern])}|{escape(v.top)}"
        lines.append(f'  v{i} [label="{label}"];')
    for v, u in sk.blue:
        lines.append(f"  v{v} -> v{u} [color=blue, style=solid];")
    for v, u in sk.red:
        lines.append(f"  v{v} -> v{u} [color=red, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- corner filling ----------------------------------------------------------

def _corner_step(tile: Tile, base: Point, forward: bool) -> tuple:
    """The fill ``(target, pattern cells, key corner, forward)`` of the window
    at ``base``: forward, ``f`` forces its bottom-right corner from its
    pattern and upper-left corner; backward, ``f_inv`` the mirror image."""
    (tx, ty), (kx, ky) = (tile.corner_br, tile.corner_ul)[:: 1 if forward else -1]
    x, y = base
    pattern = tuple([(px + x, py + y) for px, py in tile.sorted_reduced])
    return (tx + x, ty + y), pattern, (kx + x, ky + y), forward


def _fills(tile: Tile, dmu: Point, total: Point) -> list[tuple]:
    """The fills that compose a path of degree ``dmu`` with one of degree
    ``total - dmu``: the bottom-right rectangle column by column (left to
    right, top to bottom) forward, then the upper-left one row by row
    (bottom to top, right to left) backward."""
    return [
        _corner_step(tile, (x, y), True)
        for x in range(dmu[0] + 1, total[0] + 1) for y in range(dmu[1] - 1, -1, -1)
    ] + [
        _corner_step(tile, (x, y), False)
        for y in range(dmu[1] + 1, total[1] + 1) for x in range(dmu[0] - 1, -1, -1)
    ]


def _forced_symbol(bd: BasicData, values, step: tuple) -> str:
    """The one symbol that completes the step's window to a vertex."""
    _, pattern, key, forward = step
    rule = bd.f if forward else bd.f_inv
    return rule(tuple([values[k] for k in pattern]), values[key])


def fill_corner_br(
    bd: BasicData, labels: Mapping[Point, str], n: Point
) -> tuple[Point, str]:
    """Fill the bottom-right corner cell ``n + (c1 + 1) e1 - e2``.

    ``labels`` must cover ``T + n + e1`` and ``T + n - e2`` and every fully
    contained window must already be a vertex.  Returns the corner point and
    the unique symbol making the newly completed window a vertex; if the
    corner is already labelled the existing symbol is returned unchanged.

    Raises
    ------
    InconsistentInput
        A fully contained window of the input already fails the vertex
        condition.
    """
    return _fill_corner(bd, labels, n, forward=True)


def fill_corner_ul(
    bd: BasicData, labels: Mapping[Point, str], n: Point
) -> tuple[Point, str]:
    """Fill the upper-left corner cell ``n + c2 e2`` (mirror of
    :func:`fill_corner_br`, using the inverse bijections)."""
    return _fill_corner(bd, labels, n, forward=False)


def _fill_corner(
    bd: BasicData, labels: Mapping[Point, str], n: Point, forward: bool
) -> tuple[Point, str]:
    tile = bd.tile
    if bd.degenerate:
        raise ValidationError("corner filling needs a nondegenerate tile")
    if n[1] < 1:
        raise ValueError(f"offset {n} must have a positive second coordinate")
    have = frozenset(labels)
    for k in (p_add(n, unit(1)), p_sub(n, unit(2))):
        missing = tile.translate(k) - have
        if missing:
            raise ValueError(
                f"labels must cover the window at {k}; missing {sorted(missing)}"
            )
    k = bd.bad_window(labels, contained_translates(tile, have))
    if k is not None:
        raise InconsistentInput(f"the window at offset {k} is not a vertex of the data")
    step = _corner_step(tile, p_add(n, (1, -1)) if forward else n, forward)
    target = step[0]
    if target in have:
        return target, labels[target]
    return target, _forced_symbol(bd, labels, step)


# -- composition and factorisation -------------------------------------------

@lru_cache(maxsize=256)
def _geometry(tile: Tile, dmu: Point, dnu: Point) -> tuple:
    """What composing degree ``dmu`` with ``dnu`` writes: the cells of
    ``T(dnu)`` outside ``T`` with their places ``dmu`` on, the fills of
    :func:`_fills` and the total degree."""
    total = p_add(dmu, dnu)
    moved = [(c, p_add(c, dmu)) for c in _layout(tile, dnu).cells if c not in tile.points]
    return moved, _fills(tile, dmu, total), total


def _spread(rows, groups) -> tuple[list[int], list[int]]:
    """``rows[i]`` once per member of ``groups[i]``, then those members: the
    ``mus`` and ``nus`` that :func:`_join` each row with its group."""
    mus = list(chain.from_iterable(map(repeat, rows, map(len, groups))))
    return mus, list(chain.from_iterable(groups))


def _join(bd: BasicData, geometry: tuple, left, right, mus, nus) -> dict:
    """Row ``mus[k]`` of ``left`` composed with row ``nus[k]`` of ``right``
    for each ``k``, as columns by cell, by the :func:`_geometry` of their
    degrees ``dmu`` and ``dnu``; ``None`` takes each row as it is, reusing
    ``left``'s dict or ``right``'s columns.  ``right``'s window at the origin
    (``left``'s at ``dmu``) is not read; its other cells move by ``dmu``.
    Each fill is one pass through ``bd._rules``: a miss leaves a hole
    (``None``) that later fills keep, and :func:`_replay` raises it."""
    moved, fills, _ = geometry
    take = mus is not None and (  # itemgetter returns a tuple for two or more rows
        itemgetter(*mus) if len(mus) > 1 else lambda col: [col[k] for k in mus])
    out = {c: list(take(col)) for c, col in left.items()} if take else left
    for c, p in moved:
        out[p] = right[c] if nus is None else list(map(right[c].__getitem__, nus))
    for target, pattern, key, forward in fills:
        out[target] = [bd.distinguished] * len(out[ORIGIN]) if bd.tile.degenerate else list(
            map(bd._rules[forward].get, zip(*map(out.__getitem__, pattern), out[key]))
        )
    return out


def _replay(bd: BasicData, fills, out) -> None:
    """Raise the error of the first row of :func:`_join`'s columns ``out``
    with a hole, if any: its first fill that left one runs again alone."""
    holes = [out[s[0]].index(None) for s in fills if None in out[s[0]]]
    if holes:
        values = {c: column[min(holes)] for c, column in out.items()}
        _forced_symbol(bd, values, next(s for s in fills if values[s[0]] is None))


def _rows(bd: BasicData, geometry: tuple, out) -> Iterator[tuple[str, ...]]:
    """The rows of :func:`_join`'s columns ``out`` by ``geometry``, in the
    slot order of ``T`` at its total degree; at the first with a hole, its
    error, as from a row-by-row loop."""
    _, fills, total = geometry
    for lam in zip(*map(out.__getitem__, _layout(bd.tile, total).cells)):
        if None in lam:
            _replay(bd, fills, out)
        yield lam


def compose(bd: BasicData, mu: Path, nu: Path) -> Path:
    """The unique path restricting to ``mu`` at the origin and to ``nu`` at
    offset ``d(mu)``.

    Raises
    ------
    SourceRangeMismatch
        If ``mu``'s source window differs from ``nu``'s range window.
    ValidationError
        If ``mu`` or ``nu`` is a path of another tile than ``bd``'s.
    """
    if mu.tile != bd.tile or nu.tile != bd.tile:
        raise ValidationError("cannot compose: both paths must be on the data's tile")
    a, b = ({c: [s] for c, s in zip(_layout(bd.tile, p.degree).cells, _symbols(p))}
            for p in (mu, nu))
    if any(a[p_add(c, mu.degree)] != b[c] for c in bd.tile.sorted_points):
        raise SourceRangeMismatch(
            "cannot compose: source window of the first path differs from "
            "the range window of the second"
        )
    geometry = _geometry(bd.tile, mu.degree, nu.degree)
    (lam,) = _rows(bd, geometry, _join(bd, geometry, a, b, None, None))
    return _path(bd.tile, geometry[2], lam)


@lru_cache(maxsize=256)
def _slice(tile: Tile, degree: Point, m: Point, sub: Point) -> tuple[int, ...]:
    """For each cell of ``T(sub)`` in slot order, the slot of the cell ``m``
    further on in ``T(degree)``; ``sub = 0`` gives the window at ``m``."""
    slot = _layout(tile, degree).slot
    return tuple(slot[p_add(c, m)] for c in _layout(tile, sub).cells)


def factorize(lam: Path, m: Point, n: Point) -> Path:
    """The degree-``(n - m)`` slice ``i -> lam(m + i)`` on ``T(n - m)``.

    Raises
    ------
    OutOfRange
        Unless ``0 <= m <= n <= d(lam)``.
    """
    if not (p_leq(ORIGIN, m) and p_leq(m, n) and p_leq(n, lam.degree)):
        raise OutOfRange(
            f"slice ({m}, {n}) is not within degree {lam.degree}"
        )
    sub = p_sub(n, m)
    symbols = _symbols(lam)
    slots = _slice(lam.tile, lam.degree, m, sub)
    return _path(lam.tile, sub, map(symbols.__getitem__, slots))


# -- enumeration --------------------------------------------------------------

def _check_degree(n: Point) -> None:
    """``OutOfRange`` unless ``n`` is a degree: both coordinates at least 0."""
    if not p_leq(ORIGIN, n):
        raise OutOfRange(f"degree {n} has a negative coordinate")


def _path_exponent(bd: BasicData, n: Point) -> int:
    """``n1 c2 + n2 c1`` (0 on the one-cell tile): the power of |A| that
    counts the paths of degree ``n``."""
    _check_degree(n)
    return n[0] * bd.tile.c2 + n[1] * bd.tile.c1


def path_count(bd: BasicData, n: Point) -> int:
    """|A| ** (n1 c2 + n2 c1): the number of paths of degree ``n`` from any
    fixed range vertex."""
    return len(bd.alphabet) ** _path_exponent(bd, n)


def _check_windows(n: Point, limits: Limits) -> None:
    """``SizeLimit`` if a path of degree ``n`` has more windows,
    ``(n1 + 1)(n2 + 1)``, than the path cap, even as the only path."""
    msg = "the windows of a path of degree {n} would exceed the cap of {cap}"
    _check_cap((n[0] + 1) * (n[1] + 1), limits.max_paths, msg, n=n)


def _checked_path_count(bd: BasicData, n: Point, roots: int, limits: Limits) -> int:
    """``path_count(bd, n)``; ``SizeLimit`` first if ``roots`` times it
    exceeds the path cap (a count too long to print is named as a power),
    then if a path's windows do."""
    e = _path_exponent(bd, n)
    msg = "{size} paths of degree {n} would exceed the cap of {cap}"
    _check_cap((len(bd.alphabet), e, roots), limits.max_paths, msg, n=n)
    _check_windows(n, limits)
    return len(bd.alphabet) ** e


def enumerate_paths(
    bd: BasicData,
    v: Vertex,
    n: Point,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
    strict: bool = True,
) -> list[Path]:
    """All paths of degree ``n`` whose range window is ``v``, in a
    deterministic order (edges of degree ``e1`` are appended before ``e2``,
    following the canonical vertex order at each step).

    ``strict=False`` drops the count cross-check, for suites that probe
    deliberately broken data.
    """
    sk, batch = _root(bd, v, n, skeleton, limits, strict)
    columns = map(_frontier(bd, sk, batch, n)[1].__getitem__, _layout(bd.tile, n).cells)
    return [_path(bd.tile, n, symbols) for symbols in zip(*columns)]


def _count_chains(counts, tables) -> dict[int, int]:
    """Edge chains by their last vertex: from ``counts`` (chains so far),
    one step along each out-list table in turn, in exact ints."""
    for table in tables:
        counts, last = {}, counts
        for w, c in last.items():
            for u in table[w]:
                counts[u] = counts.get(u, 0) + c
    return counts


def _chain_step(bd, sk, batch, colour: str, children: slice | None = None) -> tuple:
    """A batch ``(d, cells, sources)`` of edge chains (their degree, each
    cell's column of symbols and each row's source) extended, reusing the
    dict, by each source's ``colour`` edges in out-list order (the slice
    ``children`` of them, if given): one :func:`_join` with the skeleton's
    edge batch, which writes only the cells of ``T(d + e)`` outside ``T(d)``
    (in chain order a red step from ``(d1, d2)`` fills ``d1``, a blue step
    none).  The first row with a hole raises its error."""
    d, cells, sources = batch
    columns, heads, spans = sk._edge_batch(colour)
    groups = list(map(spans.__getitem__, sources))
    groups = [g[children] for g in groups] if children else groups
    edges = list(chain.from_iterable(groups))
    one = len(edges) == len(sources) and all(groups)  # row i extends row i
    mus = None if one else _spread(range(len(groups)), groups)[0]
    _, fills, total = geometry = _geometry(bd.tile, d, unit(COLOUR_AXIS[colour]))
    out = _join(bd, geometry, cells, columns, mus, edges)
    _replay(bd, fills, out)
    return total, out, list(map(heads.__getitem__, edges))


def _frontier(bd: BasicData, sk: Skeleton, batch, n: Point):
    """``batch`` extended breadth first to degree ``n``, blue steps first."""
    while batch[0] != n:
        batch = _chain_step(bd, sk, batch, BLUE if batch[0][0] < n[0] else RED)
    return batch


def _root(bd, v, n, skeleton, limits, strict) -> tuple[Skeleton, tuple]:
    """The skeleton and the batch of ``v`` alone, after the checks before any
    step: the path cap, ``ValidationError`` unless ``v`` is a vertex, then
    (``strict``) ``InvariantViolation`` unless its degree-``n`` edge chains
    are as many."""
    expected = _checked_path_count(bd, n, 1, limits)
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    if v not in sk.index:
        raise ValidationError(f"range vertex {v.labels} is not a skeleton vertex")
    if strict:
        tables = [sk._out[BLUE]] * n[0] + [sk._out[RED]] * n[1]
        chains = sum(_count_chains({sk.index[v]: 1}, tables).values())
        if chains != expected:
            raise InvariantViolation(
                f"enumerated {chains} paths of degree {n}, expected {expected}"
            )
    cells = dict(zip(bd.tile.sorted_points, ([s] for s in v.symbols)))
    return sk, (ORIGIN, cells, [sk.index[v]])


def all_paths(
    bd: BasicData,
    n: Point,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
    strict: bool = True,
) -> list[Path]:
    """All paths of degree ``n``, grouped by range vertex in canonical order."""
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    _checked_path_count(bd, n, len(sk.vertices), limits)
    walks = (enumerate_paths(bd, v, n, sk, limits, strict) for v in sk.vertices)
    return [lam for walk in walks for lam in walk]


def _chain_walk(bd, v, n, skeleton, limits) -> Iterator[tuple[str, ...]]:
    """:func:`enumerate_paths`, strict, as symbols in ``T(n)``'s slot order,
    for a caller that may stop early: the first path alone, one edge at a
    time, keeping each node on it with more than one child; then, deepest
    first, each kept node's other children with their subtrees, breadth
    first."""
    sk, batch = _root(bd, v, n, skeleton, limits, True)
    order, kept = _layout(bd.tile, n).cells, []
    while batch[0] != n and batch[2]:
        colour = BLUE if batch[0][0] < n[0] else RED
        if len(sk._out[colour][batch[2][0]]) > 1:  # a copy: the step reuses the dict
            kept.append(((batch[0], dict(batch[1]), batch[2]), colour))
        batch = _chain_step(bd, sk, batch, colour, slice(1))
    while True:
        if batch[0] == n:
            yield from zip(*map(batch[1].__getitem__, order))
        if not kept:
            return
        batch = _frontier(bd, sk, _chain_step(bd, sk, *kept.pop(), slice(1, None)), n)
