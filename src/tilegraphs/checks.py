"""Exhaustive desk-scale verification suites for the category axioms.

These are the oracle-style checks behind the ``verify`` command: vertex and
edge counting, commuting squares, unique factorisation, and associativity.
They enumerate rather than trust the constructions (paths are re-derived by
a breadth-first window filter, independent of edge-chain composition), so
they also catch deliberately corrupted data that bypassed validation.

Unique factorisation takes each degree's edge chains one frontier step
from the degree one edge below; that each path's slices compose back to
it is decided once per table where ``f_inv`` undoes ``f``, else checked by
one batch per split through the one composition executor
:func:`tilegraphs.graph._join`.  Composable pairs are counted, and composed
only to name a failure; a ``Path`` is built only for a counterexample.
Associativity is decided once per tile on terms (:func:`_order_gap`);
where that does not settle it, each edge triple is composed in both
orders by :func:`compose`, in order, as the definition reads.

On commuting squares, counted per range vertex along the skeleton's
out-lists: between an ordered vertex pair there is at most one
degree-(1,1) path, and the blue-red chain count always equals the red-blue
chain count.  The count is 1 for *every* pair exactly when the tile has no
cell at or above the diagonal step (``|T| = c1 + c2 + 1``); thicker tiles
such as the full square leave incompatible pairs unconnected at this
degree, with each vertex still meeting ``|A| ** (c1 + c2)`` partners.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, product, repeat
from types import SimpleNamespace
from typing import Any

from .data import BasicData, _vertex_exponent
from .errors import SizeLimit, TileGraphError
from .graph import (
    BLUE,
    COLOUR_AXIS,
    RED,
    Path,
    Skeleton,
    _check_degree,
    _check_windows,
    _count_chains,
    _frontier,
    _geometry,
    _join,
    _layout,
    _path,
    _path_exponent,
    _rows,
    _spread,
    build_skeleton,
    compose,
    path_count,
)
from .lattice import ORIGIN, Point, Tile, box, p_add, p_sub, unit
from .limits import DEFAULT_LIMITS, Limits, _check_cap


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    counterexample: Any | None = None


def brute_force_paths(
    bd: BasicData, n: Point, limits: Limits = DEFAULT_LIMITS
) -> list[Path]:
    """Every labelling of ``T(n)`` whose tile windows are all vertices, in
    lexicographic order: the definitional path set, independent of skeleton
    edges and corner filling (see :func:`_window_filter`)."""
    return [_path(bd.tile, n, lam) for lam in zip(*_window_filter(bd, n, limits))]


def _window_filter(bd: BasicData, n: Point, limits: Limits) -> list[list[str]]:
    """The paths of :func:`brute_force_paths`, one column per slot of
    ``T(n)``, generated breadth first over the cells in slot order.

    Each frontier row is extended by every symbol in alphabet order, but at
    the last cell of a window only by the symbols that make the window a
    vertex, in alphabet order, read off ``_vertex_keys`` indexed by the
    window's other cells: the rows a filter by that window would keep, in
    the same lexicographic order.  Each step keeps the row each new row
    extends and its symbol, unless it gives every row one symbol; only slots
    a later window reads follow the frontier.  The cap is decided first:
    ``_vertex_keys`` has one bottom-right symbol per pattern and top symbol,
    valid table or not, so a kept labelling is fixed by its ``|T(n)| -
    (n1 + 1)(n2 + 1) = |P| + 1 + n1 c2 + n2 c1`` cells that are no window's
    bottom-right corner, a bound the count meets on valid data.
    """
    _check_degree(n)
    _check_windows(n, limits)
    e = _vertex_exponent(bd.tile) + _path_exponent(bd, n)
    msg = "brute force: paths of degree {n} exceed the path cap of {cap}"
    _check_cap((len(bd.alphabet), e), limits.max_paths, msg, n=n)
    tile, slot = bd.tile, _layout(bd.tile, n).slot
    # A window's key reads its reduced cells and corners; its last cell in slot order
    # (translation keeps the tile's order) is one, or both corners on the one-cell tile.
    picks, last = (*tile.sorted_reduced, tile.corner_ul, tile.corner_br), tile.sorted_points[-1]
    rest, at = ([j for j, p in enumerate(picks) if (p == last) == b] for b in (False, True))
    rank, ends = bd.alphabet._index, {}  # the other picks' symbols -> the last cell's
    for _, key in sorted((rank[k[at[0]]], k) for k in bd._vertex_keys if k[at[0]] in rank):
        if key[at[0]] == key[at[-1]]:
            ends.setdefault(tuple(map(key.__getitem__, rest)), []).append(key[at[0]])
    windows = {  # by the slot of its last cell, each window's other picks' slots
        slot[p_add(last, k)]: [slot[p_add(picks[j], k)] for j in rest] for k in box(ORIGIN, n)
    }
    until = {q: i for i, key in sorted(windows.items()) for q in (*key, i)}
    steps, live, size = [], {}, 1  # live: slot -> its symbol in each frontier row
    for i in range(len(slot)):
        live = {q: c for q, c in live.items() if until[q] >= i}
        if i in windows:
            keys = zip(*map(live.__getitem__, windows[i])) if rest else repeat((), size)
            found = list(map(ends.get, keys, repeat(())))  # each row's symbols here
        else:
            found = [bd.alphabet.symbols] * size
        column, take = list(chain.from_iterable(found)), None
        if len(column) != size or () in found:  # unless each row took one symbol
            take = array("l", chain.from_iterable(map(repeat, range(size), map(len, found))))
            live = {q: list(map(c.__getitem__, take)) for q, c in live.items()}
        live[i] = column
        steps.append((take, column))
        size = len(column)
    columns, index = [], range(size)
    for take, column in reversed(steps):
        columns.append(list(map(column.__getitem__, index)))
        index = index if take is None else list(map(take.__getitem__, index))
    return columns[::-1]


def check_vertex_count(bd: BasicData, sk: Skeleton) -> CheckResult:
    """|vertices| must equal |A| ** (|P| + 1)."""
    want = bd.vertex_count()
    got = len(sk.vertices)
    return CheckResult(
        "vertex-count",
        got == want,
        f"{got} vertices, expected {want}",
    )


def check_degree_counts(bd: BasicData, sk: Skeleton) -> CheckResult:
    """Each vertex needs |A|^c2 blue and |A|^c1 red edges, in and out: the
    number of paths of the edge's degree from a fixed vertex."""
    want = {colour: path_count(bd, unit(axis)) for colour, axis in COLOUR_AXIS.items()}
    for colour in (BLUE, RED):
        rows = sk._out[colour]  # out-degrees are row lengths, then in-degrees one count
        heads = Counter(chain.from_iterable(rows))
        for count in (map(len, rows), map(heads.__getitem__, range(len(rows)))):
            bad = next((v for v, c in enumerate(count) if c != want[colour]), None)
            if bad is not None:
                return CheckResult(
                    "degree-counts",
                    False,
                    f"vertex {bad} violates the {colour} degree count "
                    f"(expected {want[colour]})",
                    counterexample=sk.vertices[bad],
                )
    return CheckResult(
        "degree-counts",
        True,
        f"all vertices have {want[BLUE]} blue and {want[RED]} red edges each way",
    )


def check_commuting_squares(bd: BasicData, sk: Skeleton) -> CheckResult:
    """Chain counts between every ordered pair: blue-red equals red-blue,
    no pair has two chains, and every vertex meets |A|^(c1+c2) partners.
    Each branch reports its first failure in row-major order, and a pair
    mismatch anywhere outranks the other two."""
    want = path_count(bd, (1, 1))
    many = short = None  # the (detail, counterexample) of the later branches
    for v, vertex in enumerate(sk.vertices):
        br = _count_chains({v: 1}, (sk._out[BLUE], sk._out[RED]))  # head -> chains
        rb = _count_chains({v: 1}, (sk._out[RED], sk._out[BLUE]))
        if br != rb:
            u = min(u for u in br.keys() | rb.keys() if br.get(u) != rb.get(u))
            return CheckResult(
                "commuting-squares",
                False,
                f"{br.get(u, 0)} blue-red but {rb.get(u, 0)} red-blue chains "
                f"from vertex {v} to {u}",
                counterexample=(vertex, sk.vertices[u]),
            )
        two = min((u for u, c in br.items() if c > 1), default=None)
        if two is not None and many is None:
            many = (
                f"{br[two]} chains from vertex {v} to {two}, expected at most 1",
                (vertex, sk.vertices[two]),
            )
        total = sum(br.values())
        if total != want and short is None:
            short = f"vertex {v} starts {total} squares, expected {want}", vertex
    if many or short:
        return CheckResult("commuting-squares", False, *(many or short))
    # Every row now holds ``want`` partners once each.
    return CheckResult(
        "commuting-squares",
        True,
        "blue-red and red-blue chain counts agree on every ordered pair"
        + (
            " and every pair is joined exactly once"
            if want == len(sk.vertices)
            else f"; each vertex meets {want} of {len(sk.vertices)} partners"
        ),
    )


def _check_split_count(bd: BasicData, degree: Point, vertices: int, limits: Limits):
    """``SizeLimit`` if the path splits unique factorisation composes, the
    sum over ``d <= degree`` of ``(d1 + 1)(d2 + 1) V |A| ** (d1 c2 + d2 c1)``,
    past the path cap.  It is ``V`` times one sum per axis, each read only
    until it passes the cap, so no power beyond the cap is built."""
    cap, total = limits.max_paths, vertices
    for axis, top in enumerate(degree, 1):
        x = path_count(bd, unit(axis))  # the paths one step on this axis adds
        if x == 1:
            part = (top + 1) * (top + 2) // 2
        else:  # terms at least double: within log2(cap) + 2 of them
            part = 0
            for d in range(top + 1):
                part += (d + 1) * x**d
                if total * part > cap:
                    break
        total *= part
    _check_cap(total, cap, "unique factorisation: the path splits of degrees up to {n} "
               "exceed the path cap of {cap}", n=degree)


def _rewrites(tile: Tile, geometry: tuple, dmu: Point) -> bool:
    """Whether composing degree ``dmu`` by ``geometry`` writes exactly ``T``
    at the total degree, by fills of windows at bases in ``box(0, total)``."""
    moved, fills, total = geometry
    bases = [p_sub(t, tile.corner_br if forward else tile.corner_ul) for t, *_, forward in fills]
    written = {*_layout(tile, dmu).cells, *(p for _, p in moved), *(s[0] for s in fills)}
    return written == set(_layout(tile, total).cells) and set(bases).issubset(box(ORIGIN, total))


def check_unique_factorisation(
    bd: BasicData,
    degree: Point,
    sk: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckResult:
    """Brute-force unique factorisation for all paths of degree <= ``degree``.

    For every total degree ``d``: the edge-chain enumeration must coincide
    with the definitional window-filter enumeration, and for every split
    ``m + (d - m)``: (a) slicing a path and composing the slices returns
    the path; (b) composing *all* composable pairs of those degrees hits
    every degree-``d`` path exactly once.

    Once (a) holds, (b) is a count: the chains equal the brute force up to
    ``d``, so each path's slices are a composable pair of chain rows, which
    composes back to it by (a).  Paths map one to one into the pairs, so
    (b) holds exactly when there are as many pairs as paths; only when
    there are more are the pairs composed, to name the failure.

    (a) is decided once per table where it can be.  Each path's windows
    ``T + k``, ``k <= d``, are in ``_vertex_keys``, which are ``f``'s
    entries, so a forward fill at a base in ``box(0, d)`` rewrites the
    path's own symbol, and so does a backward fill where ``f_inv`` undoes
    ``f``.  So if ``f_inv`` undoes ``f`` on every entry and a split passes
    :func:`_rewrites` (the geometry's oracle has each fill read only cells
    written before it), each path's slices compose back to it, and none is
    composed; otherwise they are composed back as one batch.

    More path splits in all than ``limits.max_paths`` raise
    :class:`SizeLimit` before the first walk.
    """
    _check_degree(degree)
    tile, fail = bd.tile, partial(CheckResult, "unique-factorisation", False)
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        _check_split_count(bd, degree, len(sk.vertices), limits)
        inverse, forward = bd._rules
        undone = all(inverse.get((*k[:-1], s)) == k[-1] for k, s in forward.items())
        # Per degree: its chains (columns by cell, and sources), and its row
        # numbers by range window.  Box order reaches every degree below ``d``
        # before ``d``, so ``d - e`` and a split's operands are enumerated.
        window, symbols = tile.sorted_points, map(list, zip(*[v.symbols for v in sk.vertices]))
        enumerated = {ORIGIN: (dict(zip(window, symbols)), list(map(sk.index.get, sk.vertices)))}
        ranges: dict[Point, dict[tuple[str, ...], list[int]]] = {}
        for d in box(ORIGIN, degree):
            order = _layout(tile, d).cells
            if d != ORIGIN:  # one step from the degree one edge below, on a copy
                base = p_sub(d, (0, 1) if d[1] else (1, 0))
                cells, sources = enumerated[base]
                enumerated[d] = _frontier(bd, sk, (base, dict(cells), sources), d)[1:]
            cells = enumerated[d][0]
            brute = _window_filter(bd, d, limits)
            brute_set, brute_cells = set(zip(*brute)), dict(zip(order, brute))
            if set(zip(*map(cells.__getitem__, order))) != brute_set:
                chain_set = set(zip(*map(cells.__getitem__, order)))  # not kept past the test
                odd = min(chain_set ^ brute_set)  # one degree's labels sort as their symbols
                return fail(f"edge-chain and window-filter path sets differ at degree {d} "
                            f"({len(chain_set)} vs {len(brute_set)})",
                            counterexample=_path(tile, d, odd).labels)
            by_range = ranges[d] = {}
            for i, key in enumerate(zip(*map(cells.__getitem__, window))):
                by_range.setdefault(key, []).append(i)
            # Each split's (a) and (b) are decided, or each tested as one batch
            # of columns; a row loop runs only to name the first bad row.
            for m in box(ORIGIN, d):
                n = p_sub(d, m)
                geometry = _geometry(tile, m, n)
                if not (undone and _rewrites(tile, geometry, m)):
                    mu = {c: brute_cells[c] for c in _layout(tile, m).cells}
                    nu = {c: brute_cells[p_add(c, m)] for c in _layout(tile, n).cells}
                    out = _join(bd, geometry, mu, nu, None, None)
                    if out != brute_cells:
                        for lam, got in zip(zip(*brute), _rows(bd, geometry, out)):
                            if got != lam:
                                return fail(f"slice-and-compose failed at degree {d}, "
                                            f"split {m}", counterexample=_path(tile, d, lam))
                # (b) by the pair count; in (mu, nu) enumeration order, each mu
                # meets the nu's whose range is its source, in their order.
                left = enumerated[m][0]
                groups = [ranges[n].get(k, ()) for k in zip(*[left[p_add(c, m)] for c in window])]
                if sum(map(len, groups)) != len(brute_set):
                    out = _join(bd, geometry, left, enumerated[n][0],
                                *_spread(range(len(groups)), groups))
                    seen: set[tuple[str, ...]] = set()
                    for lam in _rows(bd, geometry, out):
                        if lam in seen:
                            return fail(f"two ({m}, {n}) factorisations of one path",
                                        counterexample=_path(tile, d, lam))
                        seen.add(lam)
                    return fail(f"composable ({m}, {n}) pairs do not cover degree {d}")
    except SizeLimit:
        raise  # a cap refusal is not an axiom failure
    except TileGraphError as err:
        return fail(f"{err.code}: {err}", counterexample=err)
    return CheckResult("unique-factorisation", True,
                       f"all splits of all paths of degree <= {degree} factor uniquely")


def _order_gap(tile: Tile) -> tuple | None:
    """The first colour triple, and cell in slot order, at which edges
    ``mu``, ``nu``, ``rho`` compose differently by :func:`_join` as
    ``(mu nu) rho`` and as ``mu (nu rho)`` on terms, or None.  An operand
    cell holds the variable named by its cell of the triple's path, so
    operands share the variables of the window they share; a fill writes
    ``(forward, pattern terms..., key term)``, on the one-cell tile one
    constant.  So equal terms are equal symbols wherever the rules hit."""
    rules = (SimpleNamespace(get=partial(tuple.__add__, (False,))),
             SimpleNamespace(get=partial(tuple.__add__, (True,))))
    terms = SimpleNamespace(tile=tile, _rules=rules, distinguished=())  # _join's reads of bd
    for triple in product((BLUE, RED), repeat=3):
        da, db, dc = map(unit, map(COLOUR_AXIS.__getitem__, triple))
        operands = []
        for d, at in zip((da, db, dc), (ORIGIN, da, p_add(da, db))):
            cells = _layout(tile, d).cells  # each cell's variable: its cell of the path
            operands.append(dict(zip(cells, map(list, zip(map(p_add, cells, repeat(at)))))))
        mu, nu, rho = operands
        ab = _join(terms, _geometry(tile, da, db), dict(mu), nu, None, None)
        left = _join(terms, _geometry(tile, p_add(da, db), dc), ab, rho, None, None)
        bc = _join(terms, _geometry(tile, db, dc), nu, rho, None, None)
        right = _join(terms, _geometry(tile, da, p_add(db, dc)), mu, bc, None, None)
        for c in _layout(tile, p_add(p_add(da, db), dc)).cells:
            if left[c] != right[c]:
                return triple, c
    return None


def _first_disagreement(bd: BasicData, sk: Skeleton, v: int):
    """The first edge triple from ``v``, in order, that composes differently
    in the two orders, by :func:`compose` (``mu nu`` once per chain, at its
    first ``rho``): the first compose that fails raises its error."""

    def out(w):
        return [(sk.edge_path(c, w, u), u) for c in (BLUE, RED) for u in sk._out[c][w]]

    for mu, w in out(v):
        for nu, x in out(w):
            rhos = out(x)
            ab = rhos and compose(bd, mu, nu)  # once per chain, at its first rho
            for rho, _ in rhos:
                if compose(bd, ab, rho) != compose(bd, mu, compose(bd, nu, rho)):
                    return mu, nu, rho
    return None


def check_associativity(
    bd: BasicData,
    sk: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckResult:
    """(mu nu) rho == mu (nu rho) over all composable edge triples.

    Each triple is a path of total degree 3, so more triples than
    ``limits.max_paths`` raise :class:`SizeLimit` before any compose.

    It is decided once per tile: the edge tables' overlap check makes each
    operand's range window the source window of the one before, so if the
    two orders' joins write equal terms (:func:`_order_gap`) and every fill
    hits, every triple agrees.  Otherwise every triple is composed in both
    orders by :func:`compose`, vertex by vertex in out-list order, and the
    first that differs, or the first error raised, is the result.
    """
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        # Composable triples are the three-edge chains along the out-lists,
        # in either colour at each step: O(E) per step to count.
        chains = _count_chains(dict.fromkeys(range(len(sk.vertices)), 1), [sk._out[BLUE, RED]] * 3)
        count = sum(chains.values())
        msg = "associativity: {size} composable edge triples exceed the path cap of {cap}"
        _check_cap(count, limits.max_paths, msg)
        for colour in (BLUE, RED):  # every edge, blue first, before any compose
            sk._edge_batch(colour)
        # Every fill hits if both rules take each |P| + 1 alphabet symbols
        # into the alphabet, and every vertex symbol is in it.
        symbols = set(bd.alphabet.symbols)
        keys = set(product(symbols, repeat=len(bd.tile.reduced) + 1))
        hit = symbols.issuperset(chain.from_iterable(v.symbols for v in sk.vertices)) and all(
            keys <= rule.keys() and symbols.issuperset(rule.values()) for rule in bd._rules)
        if not (hit and _order_gap(bd.tile) is None):
            vertices = range(len(sk.vertices))
            triple = next(filter(None, map(partial(_first_disagreement, bd, sk), vertices)), None)
            if triple:
                return CheckResult("associativity", False,
                                   "edge triple composes differently in the two orders", triple)
    except SizeLimit:
        raise  # a cap refusal is not an axiom failure
    except TileGraphError as err:
        return CheckResult(
            "associativity", False, f"{err.code}: {err}", counterexample=err
        )
    return CheckResult(
        "associativity", True, f"all {count} composable edge triples agree"
    )


def run_axiom_suite(
    bd: BasicData,
    degree: Point = (2, 2),
    limits: Limits = DEFAULT_LIMITS,
) -> list[CheckResult]:
    """The full verification battery used by the ``verify`` command."""
    sk = build_skeleton(bd, limits, check=False)
    return [
        check_vertex_count(bd, sk),
        check_degree_counts(bd, sk),
        check_commuting_squares(bd, sk),
        check_unique_factorisation(bd, degree, sk=sk, limits=limits),
        check_associativity(bd, sk=sk, limits=limits),
    ]
