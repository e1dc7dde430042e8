"""The rank-2 graph generated by basic data.

Paths of degree ``n`` are labellings of the translate union ``T(n)`` whose
every tile-window restriction is a vertex.  The window at the origin is the
*range* of the path and the window at offset ``n`` is its *source*; an edge
of degree ``e1`` ("blue") from ``v`` to ``u`` therefore exists iff
``v(m) == u(m - e1)`` on the overlap ``T n (T + e1)``, and likewise in red
for ``e2``.

Composition of paths with matching source and range is total and unique: the
two rectangular regions left uncovered by the operands are filled one corner
cell at a time, each cell forced by the single tile window it completes.
The bottom-right rectangle is filled column by column (left to right, top to
bottom within a column) using the forward bijections; the upper-left
rectangle row by row (bottom to top, right to left within a row) using the
inverses.  Any consistent order would give the same labels; this one makes
the intermediate states easy to test.

Inside the library a path of degree ``n`` is the tuple of its symbols in
the slot order of ``T(n)``'s cached layout (its cells, sorted); a ``Path``
is built from one by :func:`_path` only where a public function returns
it.  Each pair of operand degrees has a cached compose plan (which slots
each operand fills, then the fill steps in the order above), and a slice,
windows included, is the cached slot list :func:`_slice`, so composing,
slicing and reading windows index symbol tuples instead of rebuilding
dicts and translate unions on every call.  The axiom checks in
:mod:`tilegraphs.checks` and the witness search in
:mod:`tilegraphs.dynamics` read the walk's tuples directly.  Each edge's
symbols are derived once per skeleton; a plan's blank cells give the
one-cell tile its distinguished symbol.

All values here are immutable; building and enumerating paths is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
    SizeLimit,
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
from .limits import DEFAULT_LIMITS, Limits, _over_cap

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
        self._edge_cache: dict[tuple[str, int, int], tuple[str, ...]] = {}
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
        """The unique degree-``e_axis`` path with range ``v`` and source ``u``."""
        e = unit(_axis(colour))
        return _path(self.basic_data.tile, e, self._edge_symbols(colour, v, u))

    def _edge_symbols(self, colour: str, v: int, u: int) -> tuple[str, ...]:
        """The symbols of the edge ``v -> u`` in the slot order of ``T(e)``:
        ``v``'s in the window at the origin, ``u``'s in the one at ``e``.
        Derived at first use and cached on the skeleton."""
        key = (colour, v, u)
        if key not in self._edge_cache:
            tile, e = self.basic_data.tile, unit(_axis(colour))
            out = dict(zip(_slice(tile, e, ORIGIN, ORIGIN), self.vertices[v].symbols))
            for k, s in zip(_slice(tile, e, e, ORIGIN), self.vertices[u].symbols):
                if out.setdefault(k, s) != s:
                    raise InvariantViolation(
                        f"edge ({v}, {u}, {colour}) has inconsistent overlap"
                    )
            self._edge_cache[key] = tuple(out[k] for k in range(len(out)))
        return self._edge_cache[key]


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

# A fill step is ``(target, pattern cells, key corner, forward)``: the target
# is forced by ``f`` (forward) or ``f_inv`` from the window's reduced pattern
# and its opposite corner.  Cells are points when filling a labelling and
# slots in a compose plan.


def _corner_step(tile: Tile, base: Point, forward: bool) -> tuple:
    """The fill of the window at ``base``: forward, its bottom-right corner
    from its pattern and upper-left corner; backward, the mirror image."""
    target, key = tile.corner_br, tile.corner_ul
    if not forward:
        target, key = key, target
    pattern = tuple(p_add(t, base) for t in tile.sorted_reduced)
    return p_add(target, base), pattern, p_add(key, base), forward


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

@dataclass(frozen=True, eq=False)
class _ComposePlan:
    """The composition of a degree-``dmu`` path with a degree-``dnu`` one,
    in slots of the operands' layouts and of ``T(dmu + dnu)``.

    The operands share exactly the window at ``dmu`` (``mu_source`` and
    ``nu_range`` hold its slots in each).  ``gather`` gives, for each result
    slot an operand labels, its index in the operands' symbols laid end to
    end (``mu`` first); ``steps`` fill the remaining slots in order, and
    ``blank`` lists them instead for the one-cell tile.
    """

    mu_source: tuple[int, ...]
    nu_range: tuple[int, ...]
    total: Point
    gather: tuple[int, ...]
    steps: tuple[tuple, ...]
    blank: tuple[int, ...]


@lru_cache(maxsize=256)
def _compose_plan(tile: Tile, dmu: Point, dnu: Point) -> _ComposePlan:
    """Lay out a composition once per ``(tile, dmu, dnu)``.

    The bottom-right rectangle is filled column by column (left to right,
    top to bottom within a column) with the forward bijections, then the
    upper-left one row by row (bottom to top, right to left) with the
    inverses.  Every fill window must be complete when its turn comes and
    the result must cover ``T(dmu + dnu)``: facts about the geometry alone,
    checked here rather than on every call.
    """
    total = p_add(dmu, dnu)
    lmu, lnu, out = _layout(tile, dmu), _layout(tile, dnu), _layout(tile, total)
    gather = [-1] * len(out.cells)
    for i, c in enumerate(lmu.cells):
        gather[out.slot[c]] = i
    for j, c in enumerate(lnu.cells):
        k = out.slot[p_add(c, dmu)]
        if gather[k] < 0:
            gather[k] = len(lmu.cells) + j
        elif c not in tile.points:
            # Outside nu's range window: the window test would not cover it.
            raise InvariantViolation(
                f"operands of degrees {dmu} and {dnu} share {p_add(c, dmu)}, "
                f"outside the window at {dmu}"
            )
    if tile.degenerate:
        steps, blank = [], tuple(k for k, g in enumerate(gather) if g < 0)
    else:
        c1, c2 = tile.c1, tile.c2
        todo = [
            ((x, y), (x - c1, y), True)
            for x in range(c1 + dmu[0] + 1, c1 + total[0] + 1)
            for y in range(dmu[1] - 1, -1, -1)
        ] + [
            ((x, y), (x, y - c2), False)
            for y in range(c2 + dmu[1] + 1, c2 + total[1] + 1)
            for x in range(dmu[0] - 1, -1, -1)
        ]
        have = {out.cells[k] for k, g in enumerate(gather) if g >= 0}
        steps = []
        for cell, base, forward in todo:
            missing = tile.translate(base) - have - {cell}
            if missing:
                raise InvariantViolation(
                    f"cannot fill {cell}: window at {base} is missing {sorted(missing)}"
                )
            have.add(cell)
            steps.append(_corner_step(tile, base, forward))
        if have != set(out.cells):
            raise InvariantViolation(
                "corner filling did not produce the full translate union"
            )
        steps = [
            (out.slot[t], tuple(out.slot[p] for p in pattern), out.slot[key], fwd)
            for t, pattern, key, fwd in steps
        ]
        blank = ()  # the steps fill every slot the operands leave
    return _ComposePlan(
        _slice(tile, dmu, dmu, ORIGIN), _slice(tile, dnu, ORIGIN, ORIGIN), total,
        tuple(max(g, 0) for g in gather), tuple(steps), blank,
    )


def _run_plan(bd: BasicData, plan: _ComposePlan, a, b) -> list[str]:
    """The composite's symbols from operand symbols ``a`` and ``b`` whose
    windows at ``dmu`` already match."""
    out = list(map([*a, *b].__getitem__, plan.gather))
    for k in plan.blank:
        # One-cell tile: every uncovered cell carries the distinguished symbol.
        out[k] = bd.distinguished
    for step in plan.steps:
        out[step[0]] = _forced_symbol(bd, out, step)
    return out


def _compose_symbols(
    bd: BasicData, plan: _ComposePlan, a: tuple[str, ...], b: tuple[str, ...]
) -> tuple[str, ...]:
    """The composite's symbols from operand symbols ``a`` and ``b`` in the
    slot order of ``plan``'s layouts.

    Raises
    ------
    SourceRangeMismatch
        If ``a``'s source window differs from ``b``'s range window.
    """
    if [a[k] for k in plan.mu_source] != [b[k] for k in plan.nu_range]:
        raise SourceRangeMismatch(
            "cannot compose: source window of the first path differs from "
            "the range window of the second"
        )
    return tuple(_run_plan(bd, plan, a, b))


def compose(bd: BasicData, mu: Path, nu: Path) -> Path:
    """The unique path restricting to ``mu`` at the origin and to ``nu`` at
    offset ``d(mu)``.

    Raises
    ------
    SourceRangeMismatch
        If ``mu``'s source window differs from ``nu``'s range window.
    """
    plan = _compose_plan(bd.tile, mu.degree, nu.degree)
    symbols = _compose_symbols(bd, plan, _symbols(mu), _symbols(nu))
    return _path(bd.tile, plan.total, symbols)


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
    """``n1 c2 + n2 c1``, or 0 on the one-cell tile: the power of |A| that
    counts the paths of degree ``n``."""
    _check_degree(n)
    return 0 if bd.degenerate else n[0] * bd.tile.c2 + n[1] * bd.tile.c1


def path_count(bd: BasicData, n: Point) -> int:
    """|A| ** (n1 c2 + n2 c1): the number of paths of degree ``n`` from any
    fixed range vertex."""
    return len(bd.alphabet) ** _path_exponent(bd, n)


def _checked_path_count(bd: BasicData, n: Point, roots: int, limits: Limits) -> int:
    """``path_count(bd, n)``; ``SizeLimit`` first if ``roots`` times it
    exceeds the path cap (a count too long to print is named as a power)."""
    e = _path_exponent(bd, n)
    size = _over_cap(len(bd.alphabet), e, limits.max_paths, roots)
    if size is not None:
        raise SizeLimit(
            f"{size} paths of degree {n} would exceed the cap of {limits.max_paths}"
        )
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
    walk = _walk_paths(bd, [v], n, skeleton, limits, strict)
    return [_path(bd.tile, n, symbols) for symbols in walk]


def _count_chains(counts, tables) -> dict[int, int]:
    """Edge chains by their last vertex: from ``counts`` (chains so far),
    one step along each out-list table in turn, in exact ints."""
    for table in tables:
        counts, last = {}, counts
        for w, c in last.items():
            for u in table[w]:
                counts[u] = counts.get(u, 0) + c
    return counts


def _walk_paths(bd, roots, n, skeleton, limits, strict) -> Iterator[tuple[str, ...]]:
    """The symbols of the degree-``n`` paths from each root in turn, in the
    slot order of ``T(n)``, depth first: children are composed in out-list
    order and pushed reversed on an explicit stack (flat tiles reach
    degrees like ``(1500, 0)``).  One cap check covers all roots; a root's
    strict count runs before its first compose."""
    expected = _checked_path_count(bd, n, len(roots), limits)
    tile = bd.tile
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    colours = (BLUE,) * n[0] + (RED,) * n[1]
    tables = [sk._out[c] for c in colours]
    # Before step i the chain has degree (i, 0), or (n1, i - n1) once red.
    plans = [
        _compose_plan(tile, (min(i, n[0]), max(i - n[0], 0)), unit(COLOUR_AXIS[c]))
        for i, c in enumerate(colours)
    ]
    for v in roots:
        if v not in sk.index:
            raise ValidationError(f"range vertex {v.labels} is not a skeleton vertex")
        if strict:
            chains = sum(_count_chains({sk.index[v]: 1}, tables).values())
            if chains != expected:
                raise InvariantViolation(
                    f"enumerated {chains} paths of degree {n}, expected {expected}"
                )
        # Nodes are (step, symbols, source): the next edge leaves that source.
        stack = [(0, v.symbols, sk.index[v])]
        while stack:
            i, symbols, src = stack.pop()
            if i == len(plans):
                yield tuple(symbols)
                continue
            children = []
            for u in tables[i][src]:
                edge = sk._edge_symbols(colours[i], src, u)
                children.append((i + 1, _run_plan(bd, plans[i], symbols, edge), u))
            stack.extend(reversed(children))


def all_paths(
    bd: BasicData,
    n: Point,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
    strict: bool = True,
) -> list[Path]:
    """All paths of degree ``n``, grouped by range vertex in canonical order."""
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    walk = _walk_paths(bd, sk.vertices, n, sk, limits, strict)
    return [_path(bd.tile, n, symbols) for symbols in walk]
