"""Exhaustive desk-scale verification suites for the category axioms.

These are the oracle-style checks behind the ``verify`` command: vertex and
edge counting, commuting squares, unique factorisation, and associativity.
They enumerate rather than trust the constructions (paths are re-derived by
a window-filtering backtracker, independent of edge-chain composition), so
they also catch deliberately corrupted data that bypassed validation.

Unique factorisation and associativity hash, slice and compose paths as
symbol tuples in their layout's slot order, through the same cached compose
plans as :func:`tilegraphs.graph.compose`: the chained paths come straight
from the path walk, windows and slices are cached slot lists, and each
edge's symbols are read once per skeleton.  A ``Path`` is built only for a
counterexample.

On commuting squares, counted per range vertex along the skeleton's
out-lists: between an ordered vertex pair there is at most one
degree-(1,1) path, and the blue-red chain count always equals the red-blue
chain count.  The count is 1 for *every* pair exactly when the tile has no
cell at or above the diagonal step (``|T| = c1 + c2 + 1``); thicker tiles
such as the full square leave incompatible pairs unconnected at this
degree, with each vertex still meeting ``|A| ** (c1 + c2)`` partners.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from .data import BasicData
from .errors import SizeLimit, TileGraphError
from .graph import (
    BLUE,
    COLOUR_AXIS,
    RED,
    Path,
    Skeleton,
    _check_degree,
    _compose_plan,
    _compose_symbols,
    _count_chains,
    _path,
    _slice,
    _symbols,
    _walk_paths,
    build_skeleton,
    path_count,
)
from .lattice import ORIGIN, Point, box, p_add, p_sub, translate_union, unit
from .limits import DEFAULT_LIMITS, Limits


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    counterexample: Any | None = None


def brute_force_paths(
    bd: BasicData, n: Point, limits: Limits = DEFAULT_LIMITS
) -> list[Path]:
    """Every labelling of ``T(n)`` whose tile windows are all vertices.

    Backtracking over cells in lexicographic order, validating each window
    as soon as its last cell is assigned.  This is the definitional path
    set, independent of skeleton edges and corner filling.
    """
    _check_degree(n)
    tile = bd.tile
    cells = translate_union(tile, n).sorted_points
    # Window offsets keyed by their window's last cell: translation keeps
    # the tile's lexicographic order, so that cell is its last sorted point.
    last_cell_windows: dict[Point, list[Point]] = {}
    for k in box(ORIGIN, n):
        last_cell_windows.setdefault(p_add(tile.sorted_points[-1], k), []).append(k)

    out: list[Path] = []
    labels: dict[Point, str] = {}
    # One symbol iterator per assigned cell: flat tiles outgrow recursion.
    stack = [iter(bd.alphabet.symbols)]
    while stack:
        cell = cells[len(stack) - 1]
        for s in stack[-1]:  # resumes after the symbol tried last
            labels[cell] = s
            if bd.bad_window(labels, last_cell_windows.get(cell, ())) is None:
                break
        else:
            del labels[cell], stack[-1]
            continue
        if len(stack) < len(cells):
            stack.append(iter(bd.alphabet.symbols))
            continue
        out.append(Path.make(tile, n, labels))
        if len(out) > limits.max_paths:
            raise SizeLimit(
                f"brute force: paths of degree {n} exceed the path cap of "
                f"{limits.max_paths}"
            )
    return out


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
        for end in (0, 1):  # out-degrees, then in-degrees
            count = Counter(e[end] for e in sk.edges(colour))
            bad = [i for i in range(len(sk.vertices)) if count[i] != want[colour]]
            if bad:
                return CheckResult(
                    "degree-counts",
                    False,
                    f"vertex {bad[0]} violates the {colour} degree count "
                    f"(expected {want[colour]})",
                    counterexample=sk.vertices[bad[0]],
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
    pass the path cap.  It is ``V`` times one sum per axis, each read only
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
        if total > cap:
            raise SizeLimit(
                f"unique factorisation: the path splits of degrees up to {degree} "
                f"exceed the path cap of {cap}"
            )


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

    More path splits in all than ``limits.max_paths`` raise
    :class:`SizeLimit` before the first walk.
    """
    _check_degree(degree)
    tile = bd.tile
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        _check_split_count(bd, degree, len(sk.vertices), limits)
        # Per degree: its paths' symbols, and the same by range window.  Box
        # order reaches every degree below ``d`` before ``d``, so a split's
        # operands are enumerated already, once each.
        enumerated: dict[Point, tuple[list[tuple[str, ...]], dict]] = {}
        for d in box(ORIGIN, degree):
            chained_symbols = list(_walk_paths(bd, sk.vertices, d, sk, limits, False))
            brute = brute_force_paths(bd, d, limits=limits)
            brute_symbols = [_symbols(p) for p in brute]
            chain_set, brute_set = set(chained_symbols), set(brute_symbols)
            if chain_set != brute_set:
                # Labels of one degree share their cells, so they sort as
                # their symbols do.
                odd = min(chain_set ^ brute_set)
                return CheckResult(
                    "unique-factorisation",
                    False,
                    f"edge-chain and window-filter path sets differ at "
                    f"degree {d} ({len(chain_set)} vs {len(brute_set)})",
                    counterexample=_path(tile, d, odd).labels,
                )
            by_range: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
            window = _slice(tile, d, ORIGIN, ORIGIN)
            for nu in chained_symbols:
                by_range.setdefault(tuple([nu[k] for k in window]), []).append(nu)
            enumerated[d] = chained_symbols, by_range
            for m in box(ORIGIN, d):
                n = p_sub(d, m)
                plan = _compose_plan(tile, m, n)
                mu_slots = _slice(tile, d, ORIGIN, m)
                nu_slots = _slice(tile, d, m, n)
                for lam, path in zip(brute_symbols, brute):
                    mu = tuple([lam[k] for k in mu_slots])
                    nu = tuple([lam[k] for k in nu_slots])
                    if _compose_symbols(bd, plan, mu, nu) != lam:
                        return CheckResult(
                            "unique-factorisation",
                            False,
                            f"slice-and-compose failed at degree {d}, split {m}",
                            counterexample=path,
                        )
                # Composable pairs in (mu, nu) enumeration order: each mu
                # meets the nu's whose range is its source, in their order.
                by_range = enumerated[n][1]
                seen: set[tuple[str, ...]] = set()
                for mu in enumerated[m][0]:
                    for nu in by_range.get(tuple([mu[k] for k in plan.mu_source]), ()):
                        lam = _compose_symbols(bd, plan, mu, nu)
                        if lam in seen:
                            return CheckResult(
                                "unique-factorisation",
                                False,
                                f"two ({m}, {n}) factorisations of one path",
                                counterexample=_path(tile, d, lam),
                            )
                        seen.add(lam)
                if seen != brute_set:
                    return CheckResult(
                        "unique-factorisation",
                        False,
                        f"composable ({m}, {n}) pairs do not cover degree {d}",
                    )
    except SizeLimit:
        raise  # a cap refusal is not an axiom failure
    except TileGraphError as err:
        return CheckResult(
            "unique-factorisation", False, f"{err.code}: {err}", counterexample=err
        )
    return CheckResult(
        "unique-factorisation",
        True,
        f"all splits of all paths of degree <= {degree} factor uniquely",
    )


def check_associativity(
    bd: BasicData,
    sk: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckResult:
    """(mu nu) rho == mu (nu rho) over all composable edge triples.

    Each triple is a path of total degree 3, so more triples than
    ``limits.max_paths`` raise :class:`SizeLimit` before any compose.
    """
    tile = bd.tile
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        # Composable triples are the three-edge chains along the out-lists,
        # in either colour at each step: O(E) per step to count.
        vertices = range(len(sk.vertices))
        chains = _count_chains(dict.fromkeys(vertices, 1), [sk._out[BLUE, RED]] * 3)
        count = sum(chains.values())
        if count > limits.max_paths:
            raise SizeLimit(
                f"associativity: {count} composable edge triples exceed the "
                f"path cap of {limits.max_paths}"
            )
        # ``out`` holds (head, edge number) pairs and ``edges`` (degree,
        # symbols), every edge read before any compose.
        edges: list[tuple[Point, tuple[str, ...]]] = []
        out: list[list[tuple[int, int]]] = [[] for _ in vertices]
        for v in vertices:
            for c in (BLUE, RED):
                for u in sk._out[c][v]:
                    out[v].append((u, len(edges)))
                    edges.append((unit(COLOUR_AXIS[c]), sk._edge_symbols(c, v, u)))

        def join(a, b):
            plan = _compose_plan(tile, a[0], b[0])
            return plan.total, _compose_symbols(bd, plan, a[1], b[1])

        # Each two-edge composite is built the first time a triple needs it,
        # as ``mu nu`` or as ``nu rho``, so composes run (and fail) in the
        # order of the triples, never earlier.
        two: dict[tuple[int, int], tuple] = {}

        def pair(i, j):
            if (i, j) not in two:
                two[i, j] = join(edges[i], edges[j])
            return two[i, j]

        for v in vertices:
            for w, mu in out[v]:
                for x, nu in out[w]:
                    for _, rho in out[x]:
                        left = join(pair(mu, nu), edges[rho])
                        right = join(edges[mu], pair(nu, rho))
                        if left != right:
                            return CheckResult(
                                "associativity",
                                False,
                                "edge triple composes differently in the two orders",
                                counterexample=tuple(
                                    _path(tile, *edges[i]) for i in (mu, nu, rho)
                                ),
                            )
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
