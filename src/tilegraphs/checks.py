"""Exhaustive desk-scale verification suites for the category axioms.

These are the oracle-style checks behind the ``verify`` command: vertex and
edge counting, commuting squares, unique factorisation, and associativity.
They enumerate rather than trust the constructions (paths are re-derived by
a window-filtering backtracker, independent of edge-chain composition), so
they also catch deliberately corrupted data that bypassed validation.

On commuting squares: between an ordered vertex pair there is at most one
degree-(1,1) path, and the blue-red chain count always equals the red-blue
chain count.  The count is 1 for *every* pair exactly when the tile has no
cell at or above the diagonal step (``|T| = c1 + c2 + 1``); thicker tiles
such as the full square leave incompatible pairs unconnected at this
degree, with each vertex still meeting ``|A| ** (c1 + c2)`` partners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import BasicData, vertex_from_labels
from .errors import SizeLimit, TileGraphError
from .graph import (
    BLUE,
    RED,
    Path,
    Skeleton,
    all_paths,
    build_skeleton,
    compose,
    factorize,
)
from .lattice import ORIGIN, Point, box, p_add, p_sub, translate_union
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
    tile = bd.tile
    cells = translate_union(tile, n).sorted_points
    # Translation preserves lexicographic order, so each window's cells are
    # listed in step with the tile's own sorted points.
    windows = [
        [p_add(t, k) for t in tile.sorted_points] for k in box(ORIGIN, n)
    ]
    last_cell_windows: dict[Point, list[list[Point]]] = {}
    for cs in windows:
        last_cell_windows.setdefault(cs[-1], []).append(cs)

    out: list[Path] = []
    labels: dict[Point, str] = {}

    def ok_at(cell: Point) -> bool:
        for cs in last_cell_windows.get(cell, []):
            v = vertex_from_labels(
                tile, dict(zip(tile.sorted_points, (labels[c] for c in cs)))
            )
            if not bd.is_vertex(v):
                return False
        return True

    def rec(i: int) -> None:
        if i == len(cells):
            out.append(Path.make(tile, n, labels))
            return
        if len(out) > limits.max_paths:
            raise SizeLimit("brute force exceeded the path cap")
        cell = cells[i]
        for s in bd.alphabet.symbols:
            labels[cell] = s
            if ok_at(cell):
                rec(i + 1)
        del labels[cell]

    rec(0)
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
    """Each vertex needs |A|^c2 blue and |A|^c1 red edges, in and out."""
    if bd.degenerate:
        want = {BLUE: 1, RED: 1}
    else:
        a = len(bd.alphabet)
        want = {BLUE: a**bd.tile.c2, RED: a**bd.tile.c1}
    for colour in (BLUE, RED):
        m = sk.matrix(colour)
        bad_out = np.flatnonzero(m.sum(axis=1) != want[colour])
        bad_in = np.flatnonzero(m.sum(axis=0) != want[colour])
        if bad_out.size or bad_in.size:
            i = int(bad_out[0]) if bad_out.size else int(bad_in[0])
            return CheckResult(
                "degree-counts",
                False,
                f"vertex {i} violates the {colour} degree count "
                f"(expected {want[colour]})",
                counterexample=sk.vertices[i],
            )
    return CheckResult(
        "degree-counts",
        True,
        f"all vertices have {want[BLUE]} blue and {want[RED]} red edges each way",
    )


def check_commuting_squares(bd: BasicData, sk: Skeleton) -> CheckResult:
    """Chain counts between every ordered pair: blue-red equals red-blue,
    no pair has two chains, and every vertex meets |A|^(c1+c2) partners."""
    b, r = sk.matrix(BLUE), sk.matrix(RED)
    br, rb = b @ r, r @ b
    if not (br == rb).all():
        v, u = map(int, np.argwhere(br != rb)[0])
        return CheckResult(
            "commuting-squares",
            False,
            f"{int(br[v, u])} blue-red but {int(rb[v, u])} red-blue chains "
            f"from vertex {v} to {u}",
            counterexample=(sk.vertices[v], sk.vertices[u]),
        )
    if br.size and br.max() > 1:
        v, u = map(int, np.argwhere(br > 1)[0])
        return CheckResult(
            "commuting-squares",
            False,
            f"{int(br[v, u])} chains from vertex {v} to {u}, expected at most 1",
            counterexample=(sk.vertices[v], sk.vertices[u]),
        )
    want = 1 if bd.degenerate else len(bd.alphabet) ** (bd.tile.c1 + bd.tile.c2)
    if (br.sum(axis=1) != want).any():
        v = int(np.flatnonzero(br.sum(axis=1) != want)[0])
        return CheckResult(
            "commuting-squares",
            False,
            f"vertex {v} starts {int(br.sum(axis=1)[v])} squares, expected {want}",
            counterexample=sk.vertices[v],
        )
    constant = bool((br == 1).all())
    return CheckResult(
        "commuting-squares",
        True,
        "blue-red and red-blue chain counts agree on every ordered pair"
        + (
            " and every pair is joined exactly once"
            if constant
            else f"; each vertex meets {want} of {len(sk.vertices)} partners"
        ),
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
    """
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        for d in box(ORIGIN, degree):
            chained = all_paths(bd, d, skeleton=sk, limits=limits, strict=False)
            brute = brute_force_paths(bd, d, limits=limits)
            chain_set = {p.labels for p in chained}
            brute_set = {p.labels for p in brute}
            if chain_set != brute_set:
                odd = sorted(chain_set ^ brute_set)[0]
                return CheckResult(
                    "unique-factorisation",
                    False,
                    f"edge-chain and window-filter path sets differ at "
                    f"degree {d} ({len(chain_set)} vs {len(brute_set)})",
                    counterexample=odd,
                )
            for m in box(ORIGIN, d):
                n = p_sub(d, m)
                for lam in brute:
                    mu, nu = factorize(lam, ORIGIN, m), factorize(lam, m, d)
                    if compose(bd, mu, nu).labels != lam.labels:
                        return CheckResult(
                            "unique-factorisation",
                            False,
                            f"slice-and-compose failed at degree {d}, split {m}",
                            counterexample=lam,
                        )
                # Composable pairs in (mu, nu) enumeration order: each mu
                # meets the nu's whose range is its source, in their order.
                by_range: dict = {}
                for nu in all_paths(bd, n, skeleton=sk, limits=limits, strict=False):
                    by_range.setdefault(nu.range_vertex, []).append(nu)
                seen: dict[tuple, tuple] = {}
                for mu in all_paths(bd, m, skeleton=sk, limits=limits, strict=False):
                    for nu in by_range.get(mu.source_vertex, ()):
                        lam = compose(bd, mu, nu)
                        if lam.labels in seen:
                            return CheckResult(
                                "unique-factorisation",
                                False,
                                f"two ({m}, {n}) factorisations of one path",
                                counterexample=lam,
                            )
                        seen[lam.labels] = (mu.labels, nu.labels)
                if set(seen) != brute_set:
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
    """(mu nu) rho == mu (nu rho) over all composable edge triples."""
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        edges = [
            sk.edge_path(colour, v, u)
            for colour in (BLUE, RED)
            for v, u in sk.edges(colour)
        ]
        by_range: dict[tuple, list] = {}
        by_source: dict[tuple, list] = {}
        for e in edges:
            by_range.setdefault(e.range_vertex.labels, []).append(e)
            by_source.setdefault(e.source_vertex.labels, []).append(e)
        count = 0
        for nu in edges:
            # mu composes on the left iff s(mu) == r(nu); rho on the right
            # iff s(nu) == r(rho).
            for mu in by_source.get(nu.range_vertex.labels, []):
                for rho in by_range.get(nu.source_vertex.labels, []):
                    count += 1
                    left = compose(bd, compose(bd, mu, nu), rho)
                    right = compose(bd, mu, compose(bd, nu, rho))
                    if left.labels != right.labels:
                        return CheckResult(
                            "associativity",
                            False,
                            "edge triple composes differently in the two orders",
                            counterexample=(mu, nu, rho),
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
