"""Aperiodicity certificates and the simplicity report.

A *breaking cycle* for a symbol ``a`` certifies aperiodicity.  In blue it
consists of at least two distinct vertices that all read ``a`` on the upper
overlap ``T n (T + e2)`` and are linked by blue edges either in a directed
cycle (kind 1) or each by a self-loop (kind 2); red mirrors the roles of the
two axes.  The certificate test is sufficient only: when no breaking cycle
exists for any colour and symbol the verdict stays ``UNKNOWN`` rather than
"periodic", except for flat tiles (one corner extent zero), which are always
periodic: their unit-degree subgraph along the long axis is a permutation,
so every long path repeats with the period of its cycle decomposition.

An independent semi-decision oracle is provided by the bounded witness
search: a path whose two slices at offsets ``m`` and ``n`` differ witnesses
that the pair ``(m, n)`` cannot be a period at the chosen root vertex.  It
walks the paths one at a time and stops at the first witness;
:func:`witness_evidence` runs one search per vertex and offset pair for the
``analyze`` report of a table without a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .data import BasicData, PrwParams, Vertex, import_prw
from .errors import DegenerateTile, InvariantViolation
from .graph import (
    BLUE,
    RED,
    Path,
    Skeleton,
    _axis,
    _checked_path_count,
    _count_chains,
    _overlap_pairs,
    _path,
    _slice,
    _walk_paths,
    build_skeleton,
    path_count,
)
from .lattice import ORIGIN, Point, p_add, p_join, p_leq, p_meet, p_sub
from .limits import DEFAULT_LIMITS, Limits


class AperiodicityStatus(str, Enum):
    CERTIFIED = "AperiodicCertified"
    PERIODIC_FLAT = "PeriodicFlatTile"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class BreakingCycle:
    """A verified certificate; ``kind`` 1 is a directed cycle, 2 a family of
    self-loops.  Vertices are distinct and there are at least two."""

    colour: str
    symbol: str
    kind: int
    vertices: tuple[Vertex, ...]


@dataclass(frozen=True)
class AperiodicityVerdict:
    status: AperiodicityStatus
    certificate: BreakingCycle | None
    witness_note: str


@dataclass(frozen=True)
class ConnectivityResult:
    strongly_connected: bool
    k: int
    method: str  # "exhaustive" or "bfs"


@dataclass
class SimplicityReport:
    verdict: AperiodicityVerdict
    strongly_connected: bool
    connectivity_degree: int
    cofinal: bool
    flags: dict[str, bool | None]
    justifications: dict[str, str]
    notes: list[str] = field(default_factory=list)


def _candidate_overlap(bd: BasicData, colour: str) -> list[int]:
    """Blue candidates are constant on the e2-overlap, red on the e1-overlap."""
    return [m for m, _ in _overlap_pairs(bd.tile, 3 - _axis(colour))]


def breaking_cycle_candidates(
    bd: BasicData, sk: Skeleton, colour: str, symbol: str
) -> list[int]:
    """Indices of vertices reading ``symbol`` across the relevant overlap."""
    ov = _candidate_overlap(bd, colour)
    return [
        i for i, v in enumerate(sk.vertices) if all(v.symbols[k] == symbol for k in ov)
    ]


def find_breaking_cycle(
    bd: BasicData,
    colour: str,
    symbol: str,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> BreakingCycle | None:
    """Search for a ``colour`` ``symbol``-breaking cycle.

    Kind 2 is tried first: if at least two candidates carry a self-loop they
    all go into the certificate.  Otherwise the candidate subgraph (edge
    multiplicities are automatically 0 or 1) is searched for its shortest
    directed cycle through at least two distinct vertices; ties break on the
    canonical vertex order, so results are reproducible.
    """
    ov = _candidate_overlap(bd, colour)
    if symbol not in bd.alphabet or len(ov) == 0:
        # With an empty constancy domain nothing ever witnesses the symbol:
        # flat tiles admit no cycle of this colour.
        return None
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    cands = breaking_cycle_candidates(bd, sk, colour, symbol)
    looped = [i for i in cands if i in sk._out[colour][i]]
    if len(looped) >= 2:
        return BreakingCycle(
            colour, symbol, 2, tuple(sk.vertices[i] for i in looped)
        )

    cycle = _shortest_cycle(cands, sk._out[colour].__getitem__)
    if cycle is not None:
        return BreakingCycle(
            colour, symbol, 1, tuple(sk.vertices[i] for i in cycle)
        )
    return None


def _shortest_cycle(nodes: list[int], out) -> list[int] | None:
    """Shortest directed cycle of length >= 2 through distinct ``nodes``
    along the heads ``out(v)`` (ascending) inside ``nodes``, by a BFS with
    parent pointers per start: each tree path is then the lexicographically
    first shortest path, so the first node dequeued with an edge back to the
    start closes the canonical cycle.  Ties keep the earliest start."""
    inside = set(nodes)
    best: list[int] | None = None
    for start in nodes:
        parent, queue = {start: None}, [start]
        for v in queue:  # grows while it is read: a FIFO queue
            heads = out(v)
            if v != start and start in heads:
                cycle = [v]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                if best is None or len(cycle) < len(best):
                    best = cycle[::-1]
                break
            for u in heads:
                if u in inside and u not in parent:
                    parent[u] = v
                    queue.append(u)
    return best


def validate_breaking_cycle(
    bd: BasicData, cert: BreakingCycle, skeleton: Skeleton | None = None
) -> bool:
    """Re-check a certificate against the raw overlap and edge data."""
    sk = skeleton if skeleton is not None else build_skeleton(bd)
    if len(cert.vertices) < 2 or len(set(cert.vertices)) != len(cert.vertices):
        return False
    cands = breaking_cycle_candidates(bd, sk, cert.colour, cert.symbol)
    if not set(cert.vertices) <= {sk.vertices[i] for i in cands}:
        return False
    idx = [sk.index[v] for v in cert.vertices]
    # Kind 1 needs the cycle's edges, kind 2 a self-loop at every vertex.
    links = {1: zip(idx, idx[1:] + idx[:1]), 2: zip(idx, idx)}.get(cert.kind)
    return links is not None and all(u in sk._out[cert.colour][v] for v, u in links)


def aperiodicity_verdict(
    bd: BasicData,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> AperiodicityVerdict:
    """Scan both colours and every symbol; attach the first certificate.

    Flat tiles (corner extent zero on either axis) are periodic, with the
    cycle structure of the relevant unit-degree subgraph recorded in the
    note.  Without a certificate the status is ``UNKNOWN``: absence of a
    breaking cycle does not establish periodicity.
    """
    tile = bd.tile
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    if tile.c1 == 0 or tile.c2 == 0:
        colour = BLUE if tile.c2 == 0 else RED
        cycles = colour_subgraph_cycles(sk, colour)
        lengths = sorted(len(c) for c in cycles)
        period = math.lcm(*lengths)
        axis_name = "horizontal" if colour == BLUE else "vertical"
        return AperiodicityVerdict(
            AperiodicityStatus.PERIODIC_FLAT,
            None,
            f"flat tile: the {colour} subgraph is a disjoint union of "
            f"cycles of lengths {lengths}, so every path repeats with "
            f"{axis_name} period {period}; the graph is periodic and its "
            f"algebra is not simple",
        )
    for colour in (BLUE, RED):
        for symbol in bd.alphabet.symbols:
            cert = find_breaking_cycle(bd, colour, symbol, skeleton=sk, limits=limits)
            if cert is not None:
                return AperiodicityVerdict(
                    AperiodicityStatus.CERTIFIED,
                    cert,
                    f"certified by a {colour} {symbol}-breaking cycle of "
                    f"kind {cert.kind} on {len(cert.vertices)} vertices",
                )
    return AperiodicityVerdict(
        AperiodicityStatus.UNKNOWN,
        None,
        "no breaking cycle for any colour and symbol; the certificate is "
        "sufficient only, so periodicity remains undecided",
    )


def colour_subgraph_cycles(sk: Skeleton, colour: str) -> list[list[int]]:
    """Cycle decomposition of a unit-in/out-degree colour subgraph.

    Raises
    ------
    InvariantViolation
        If some vertex does not have exactly one outgoing and one incoming
        edge of the colour (the subgraph is then no permutation).
    """
    _axis(colour)  # rejects an unknown colour
    n, heads = len(sk.vertices), sk._out[colour]
    for v, hs in enumerate(heads):
        if len(hs) > 1:
            raise InvariantViolation(
                f"vertex {v} has more than one outgoing {colour} edge"
            )
    if sorted(u for hs in heads for u in hs) != list(range(n)):
        raise InvariantViolation(
            f"the {colour} subgraph is not a disjoint union of cycles"
        )
    cycles, seen = [], set()
    for start in range(n):
        if start not in seen:
            cyc = [start]
            while heads[cyc[-1]][0] != start:
                cyc.append(heads[cyc[-1]][0])
            seen.update(cyc)
            cycles.append(cyc)
    return cycles


def periodicity_witness_search(
    bd: BasicData,
    v: Vertex,
    m: Point,
    n: Point,
    depth: Point | None = None,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> Path | None:
    """Search all paths of degree ``depth`` rooted at ``v`` for one whose
    slices at ``m`` and ``n`` differ.

    ``m`` and ``n`` must be distinct with componentwise meet zero (pairs
    with a common part reduce to this case).  ``depth`` defaults to
    ``m v n + (2, 2)``.  Returns the first witness in enumeration order,
    walking no further, or None if every path agrees on the two slices up
    to this depth; "no witness up to depth" never means "periodic".
    """
    depth = _witness_depth(bd, m, n, depth, limits)
    rest = p_sub(depth, p_join(m, n))
    left, right = (_slice(bd.tile, depth, k, rest) for k in (m, n))
    for lam in _walk_paths(bd, [v], depth, skeleton, limits, True):
        if [lam[k] for k in left] != [lam[k] for k in right]:
            return _path(bd.tile, depth, lam)
    return None


def witness_evidence(bd: BasicData, sk: Skeleton, bound: Point, limits: Limits) -> str:
    """The report note for a table without a certificate: one witness
    search at depth ``m v n + bound`` per vertex and per offset pair
    ``(m, n)`` drawn from ``0, e1, e2, e1 + e2``.  Every pair's depth is
    checked against the caps before the first search."""
    units = [ORIGIN, (1, 0), (0, 1), (1, 1)]
    pairs = [(m, n) for m in units for n in units if m != n and p_meet(m, n) == ORIGIN]
    depths = [
        _witness_depth(bd, m, n, p_add(p_join(m, n), bound), limits) for m, n in pairs
    ]
    found = sum(
        periodicity_witness_search(bd, v, m, n, depth, sk, limits) is not None
        for v in sk.vertices
        for (m, n), depth in zip(pairs, depths)
    )
    return (
        f"bounded witness search (join + {bound}): witnesses found for "
        f"{found} of {len(sk.vertices) * len(pairs)} (vertex, offset-pair) "
        f"cases; absence of a witness up to this depth does not establish "
        f"periodicity"
    )


def _witness_depth(
    bd: BasicData, m: Point, n: Point, depth: Point | None, limits: Limits
) -> Point:
    """Check a witness search's offsets against its depth (defaulted here)
    and the path cap, before any path is enumerated."""
    if m == n:
        raise ValueError("the two offsets must be distinct")
    if p_meet(m, n) != ORIGIN:
        raise ValueError(
            f"offsets must have componentwise meet zero, got {m} and {n}"
        )
    join = p_join(m, n)
    if depth is None:
        depth = p_add(join, (2, 2))
    if not p_leq(join, depth):
        raise ValueError(f"depth {depth} must dominate the join {join}")
    _checked_path_count(bd, depth, 1, limits)
    return depth


def strong_connectivity(
    bd: BasicData,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> ConnectivityResult:
    """Connectivity degree ``k`` and an exhaustive (or BFS fallback) check.

    ``k`` is the unique positive integer with ``(k-1)(e1+e2)`` inside the
    tile and ``k(e1+e2)`` outside.  When the path family of degree
    ``k(e1+e2)`` fits the cap we verify that every ordered vertex pair is
    joined by such a path; otherwise a BFS on the union of the two edge
    colours checks plain strong connectivity, and the method field records
    the fallback.
    """
    if bd.degenerate:
        raise DegenerateTile("strong connectivity expects a nondegenerate tile")
    tile = bd.tile
    k = 1
    while (k, k) in tile.points:
        k += 1
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    nverts = len(sk.vertices)
    degree = (k, k)
    if path_count(bd, degree) * nverts <= limits.max_paths:
        # Unique factorisation: sources of v's (k,k)-paths end its k-blue-k-red chains.
        tables = [sk._out[BLUE]] * k + [sk._out[RED]] * k
        for v in range(nverts):
            if len(_count_chains({v: 1}, tables)) != nverts:
                raise InvariantViolation(
                    f"vertex {v} does not reach every vertex by a "
                    f"degree-{degree} path"
                )
        return ConnectivityResult(True, k, "exhaustive")
    if not _bfs_strongly_connected(sk):
        raise InvariantViolation("the skeleton is not strongly connected")
    return ConnectivityResult(True, k, "bfs")


def _bfs_strongly_connected(sk: Skeleton) -> bool:
    n = len(sk.vertices)
    fwd = sk._out[BLUE, RED]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for v, heads in enumerate(fwd):
        for u in heads:
            bwd[u].append(v)

    def reach(adj):
        seen = frontier = {0}
        while frontier:
            frontier = {u for w in frontier for u in adj[w]} - seen
            seen = seen | frontier
        return len(seen) == n

    return reach(fwd) and reach(bwd)


def prw_aperiodicity_check(params: PrwParams) -> bool:
    """Sufficient aperiodicity condition read off the modular rule alone:
    both corner extents positive and the origin weight invertible.

    When true, a breaking cycle is guaranteed to exist for the imported
    data; when false nothing follows (a certificate may still exist).
    """
    tile = params.tile
    if tile.c1 < 1 or tile.c2 < 1:
        return False
    return math.gcd(params.w[(0, 0)], params.q) == 1


def simplicity_report(
    bd: BasicData,
    skeleton: Skeleton | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> SimplicityReport:
    """Assemble the aperiodicity verdict, connectivity, and algebra flags.

    The structural flags are set only from the certificate: ``unital`` is
    always true (the vertex set is finite, so the vertex projections sum to
    a unit); ``simple`` and ``purely_infinite`` are true exactly when a
    breaking cycle certifies aperiodicity, false for flat tiles (periodic
    graphs have non-simple algebras), and undetermined otherwise.
    Nuclearity and UCT-class membership hold for every graph in this family
    and are recorded as notes, never computed.
    """
    sk = skeleton if skeleton is not None else build_skeleton(bd, limits)
    verdict = aperiodicity_verdict(bd, skeleton=sk, limits=limits)
    notes: list[str] = []
    if bd.degenerate:
        connected, k, method = True, 1, "bfs"
        notes.append("one-cell tile: single vertex with one loop per colour")
    else:
        conn = strong_connectivity(bd, skeleton=sk, limits=limits)
        connected, k, method = conn.strongly_connected, conn.k, conn.method
        if method == "bfs":
            notes.append(
                "connectivity verified by BFS fallback; the degree-"
                f"({k},{k}) path family exceeded the path cap"
            )
    cofinal = connected

    flags: dict[str, bool | None] = {"unital": True}
    just = {
        "unital": "the vertex set is finite, so the sum of all vertex "
        "projections is a unit",
    }
    if verdict.status is AperiodicityStatus.CERTIFIED:
        flags["simple"] = True
        flags["purely_infinite"] = True
        just["simple"] = (
            "aperiodic (breaking-cycle certificate) and cofinal via strong "
            "connectivity"
        )
        just["purely_infinite"] = (
            "aperiodic and strongly connected; every vertex is reached from "
            "a loop with an entrance"
        )
        notes.append(
            "the algebra is nuclear and satisfies the UCT; this holds for "
            "the whole family and is reported, not computed"
        )
    elif verdict.status is AperiodicityStatus.PERIODIC_FLAT:
        flags["simple"] = False
        flags["purely_infinite"] = None
        just["simple"] = "the graph is periodic, so the algebra is not simple"
        just["purely_infinite"] = "undetermined for periodic flat-tile graphs"
    else:
        flags["simple"] = None
        flags["purely_infinite"] = None
        just["simple"] = (
            "undetermined: no breaking cycle found, and the certificate "
            "test is sufficient only"
        )
        just["purely_infinite"] = just["simple"]
        notes.append(
            "bounded witness searches can gather evidence but never decide "
            "periodicity for non-flat tiles"
        )
    return SimplicityReport(
        verdict=verdict,
        strongly_connected=connected,
        connectivity_degree=k,
        cofinal=cofinal,
        flags=flags,
        justifications=just,
        notes=notes,
    )


def cross_validate_prw(params: PrwParams, limits: Limits = DEFAULT_LIMITS):
    """Run the rule-level check and the certificate search side by side.

    Returns ``(check, certificate)``; the sufficient condition must never
    outrun the search, so ``check`` implies a certificate.
    """
    check = prw_aperiodicity_check(params)
    bd = import_prw(params, limits=limits)
    cert = aperiodicity_verdict(bd, limits=limits).certificate
    if check and cert is None:
        raise InvariantViolation(
            "rule-level aperiodicity check passed but no breaking cycle exists"
        )
    return check, cert
