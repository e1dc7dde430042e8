import itertools
import json
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tilegraphs import (
    AperiodicityStatus,
    DegenerateTile,
    InvariantViolation,
    SizeLimit,
    Skeleton,
    build_skeleton,
    colour_subgraph_cycles,
    cross_validate_prw,
    enumerate_paths,
    find_breaking_cycle,
    import_prw,
    parse_tile,
    periodicity_witness_search,
    prw_aperiodicity_check,
    simplicity_report,
    strong_connectivity,
    validate_basic_data,
    validate_breaking_cycle,
    validate_prw,
    aperiodicity_verdict,
)
from tilegraphs.dynamics import (
    _first_witnesses,
    _shortest_cycle,
    breaking_cycle_candidates,
    witness_evidence,
)
from tilegraphs.graph import BLUE, RED, _path, _slice, factorize, path_count
from tilegraphs.lattice import ORIGIN, box, p_add, p_join, p_meet, p_sub
from tilegraphs.limits import Limits
from tilegraphs.serialize import basic_data_from_dict

from conftest import DATA_DIR, small_data


def labelling(v):
    return tuple(sorted(v.as_dict().items()))


def brute_force_breaking_cycle(bd, sk, colour, symbol):
    """Independent oracle: candidates from raw labels, loops and edges from
    path enumeration, cycles by trying every candidate subsequence."""
    from tilegraphs.lattice import overlap

    axis, other = (1, 2) if colour == BLUE else (2, 1)
    ov = overlap(bd.tile, other)
    if len(ov) == 0:
        return False
    cands = [
        i
        for i, v in enumerate(sk.vertices)
        if all(v.as_dict()[m] == symbol for m in ov)
    ]
    e = (1, 0) if axis == 1 else (0, 1)

    def unit_edge(i, j):
        hits = [
            lam
            for lam in enumerate_paths(bd, sk.vertices[i], e, skeleton=sk)
            if lam.source_vertex == sk.vertices[j]
        ]
        return len(hits) == 1

    looped = [i for i in cands if unit_edge(i, i)]
    if len(looped) >= 2:
        return True
    for size in range(2, len(cands) + 1):
        for combo in itertools.permutations(cands, size):
            if all(
                unit_edge(combo[i], combo[(i + 1) % size]) for i in range(size)
            ):
                return True
    return False


EXPECTED_CYCLES = {
    # Computed from the breaking-cycle conditions; checked below against an
    # independent brute-force search.
    "ledrappier": {(BLUE, "0"): True, (BLUE, "1"): True, (RED, "0"): True, (RED, "1"): True},
    "square": {(BLUE, "0"): True, (BLUE, "1"): False, (RED, "0"): True, (RED, "1"): False},
    "rem3": {(BLUE, "0"): True, (BLUE, "1"): True, (RED, "0"): True, (RED, "1"): False},
    "flat": {(BLUE, "0"): False, (BLUE, "1"): False, (RED, "0"): False, (RED, "1"): False},
}


class TestFindBreakingCycle:
    def test_ledrappier_blue_zero_is_the_loop_pair(self, ledrappier, ledrappier_sk):
        cert = find_breaking_cycle(ledrappier, BLUE, "0", skeleton=ledrappier_sk)
        assert cert is not None and cert.kind == 2
        assert [v.as_dict() for v in cert.vertices] == [
            {(0, 0): "0", (1, 0): "0", (0, 1): "0"},
            {(0, 0): "1", (1, 0): "1", (0, 1): "0"},
        ]
        assert validate_breaking_cycle(ledrappier, cert, skeleton=ledrappier_sk)

    def test_square_red_one_has_no_cycle(self, square, square_sk):
        assert find_breaking_cycle(square, RED, "1", skeleton=square_sk) is None

    def test_rem3_blue_one_is_a_three_cycle(self, rem3, rem3_sk):
        cert = find_breaking_cycle(rem3, BLUE, "1", skeleton=rem3_sk)
        assert cert is not None and cert.kind == 1
        assert len(cert.vertices) == 3
        assert [v.as_dict() for v in cert.vertices] == [
            {(0, 0): "0", (1, 0): "0", (2, 0): "1", (0, 1): "1"},
            {(0, 0): "0", (1, 0): "1", (2, 0): "0", (0, 1): "1"},
            {(0, 0): "1", (1, 0): "0", (2, 0): "0", (0, 1): "1"},
        ]
        assert validate_breaking_cycle(rem3, cert, skeleton=rem3_sk)

    @pytest.mark.parametrize("name", sorted(EXPECTED_CYCLES))
    def test_expected_table(self, name, request):
        bd = request.getfixturevalue(name)
        sk = request.getfixturevalue(f"{name}_sk")
        for (colour, symbol), want in EXPECTED_CYCLES[name].items():
            cert = find_breaking_cycle(bd, colour, symbol, skeleton=sk)
            assert (cert is not None) == want, (name, colour, symbol)
            if cert is not None:
                assert validate_breaking_cycle(bd, cert, skeleton=sk)

    @pytest.mark.parametrize("name", sorted(EXPECTED_CYCLES))
    def test_matches_brute_force_oracle(self, name, request):
        bd = request.getfixturevalue(name)
        sk = request.getfixturevalue(f"{name}_sk")
        for colour in (BLUE, RED):
            for symbol in bd.alphabet.symbols:
                fast = find_breaking_cycle(bd, colour, symbol, skeleton=sk)
                slow = brute_force_breaking_cycle(bd, sk, colour, symbol)
                assert (fast is not None) == slow, (name, colour, symbol)

    @pytest.mark.parametrize(
        "call",
        [
            lambda bd, sk, s: find_breaking_cycle(bd, "green", s, skeleton=sk),
            lambda bd, sk, s: breaking_cycle_candidates(bd, sk, "green", s),
            lambda bd, sk, s: colour_subgraph_cycles(sk, "green"),
        ],
        ids=["find", "candidates", "cycles"],
    )
    @pytest.mark.parametrize("symbol", ["0", "not-a-symbol"])
    def test_unknown_colour_is_rejected(self, ledrappier, ledrappier_sk, call, symbol):
        # The same check as Skeleton.edges, before the symbol is looked at.
        with pytest.raises(ValueError) as err:
            call(ledrappier, ledrappier_sk, symbol)
        assert str(err.value) == "colour must be 'blue' or 'red', got 'green'"

    def test_candidates_read_the_overlap(self, rem3, rem3_sk):
        cands = breaking_cycle_candidates(rem3, rem3_sk, RED, "0")
        for i in cands:
            d = rem3_sk.vertices[i].as_dict()
            assert d[(1, 0)] == "0" and d[(2, 0)] == "0"


class TestAperiodicityVerdict:
    def test_ledrappier_certified(self, ledrappier, ledrappier_sk):
        verdict = aperiodicity_verdict(ledrappier, skeleton=ledrappier_sk)
        assert verdict.status is AperiodicityStatus.CERTIFIED
        assert verdict.certificate is not None
        assert verdict.certificate.colour == BLUE
        assert verdict.certificate.symbol == "0"

    def test_flat_tile_periodic(self, flat, flat_sk):
        verdict = aperiodicity_verdict(flat, skeleton=flat_sk)
        assert verdict.status is AperiodicityStatus.PERIODIC_FLAT
        assert verdict.certificate is None
        assert "period 3" in verdict.witness_note

    def test_tall_flat_tile_periodic(self):
        tile = parse_tile([(0, 0), (0, 1), (0, 2)])
        bd = validate_basic_data(tile, ["0", "1"], {"0": ["0", "1"], "1": ["1", "0"]})
        verdict = aperiodicity_verdict(bd)
        assert verdict.status is AperiodicityStatus.PERIODIC_FLAT

    def test_unknown_when_no_cycle_exists(self):
        # Identity bijections on the square tile: every vertex repeats its
        # diagonal, and no colour/symbol admits a breaking cycle.
        tile = parse_tile([(0, 0), (1, 0), (0, 1), (1, 1)])
        table = {
            ",".join(p): ["0", "1"] for p in itertools.product("01", repeat=2)
        }
        bd = validate_basic_data(tile, ["0", "1"], table)
        verdict = aperiodicity_verdict(bd)
        assert verdict.status is AperiodicityStatus.UNKNOWN

    def test_degenerate_is_flat(self):
        dot = parse_tile([(0, 0)])
        bd = validate_basic_data(dot, ["0", "1"], None, distinguished="0")
        assert aperiodicity_verdict(bd).status is AperiodicityStatus.PERIODIC_FLAT


class TestFlatTilePeriodicity:
    @pytest.mark.parametrize(
        "f0,f1", list(itertools.product([["0", "1"], ["1", "0"]], repeat=2))
    )
    def test_every_two_symbol_family(self, f0, f1):
        tile = parse_tile([(0, 0), (1, 0), (2, 0)])
        bd = validate_basic_data(tile, ["0", "1"], {"0": f0, "1": f1})
        sk = build_skeleton(bd)
        # no breaking cycle for any colour and symbol
        for colour in (BLUE, RED):
            for symbol in bd.alphabet.symbols:
                assert find_breaking_cycle(bd, colour, symbol, skeleton=sk) is None
        # blue subgraph decomposes into disjoint cycles
        cycles = colour_subgraph_cycles(sk, BLUE)
        assert sorted(i for c in cycles for i in c) == list(range(4))
        # the lcm of the cycle lengths is a horizontal period: no witness
        import math

        period = math.lcm(*(len(c) for c in cycles))
        m = (period, 0)
        for v in sk.vertices:
            assert (
                periodicity_witness_search(
                    bd, v, m, ORIGIN, depth=(4, 2), skeleton=sk
                )
                is None
            )

    def test_mirrored_for_tall_tiles(self):
        tile = parse_tile([(0, 0), (0, 1)])
        bd = validate_basic_data(tile, ["0", "1"], {"": ["1", "0"]})
        sk = build_skeleton(bd)
        cycles = colour_subgraph_cycles(sk, RED)
        assert sorted(len(c) for c in cycles) == [2]


class TestWitnessSearch:
    def test_rejects_equal_offsets(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[0]
        with pytest.raises(ValueError):
            periodicity_witness_search(ledrappier, v, (1, 0), (1, 0), skeleton=ledrappier_sk)

    def test_rejects_common_part(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[0]
        with pytest.raises(ValueError):
            periodicity_witness_search(ledrappier, v, (1, 1), (1, 0), skeleton=ledrappier_sk)

    def test_ledrappier_all_small_offsets_witnessed(self, ledrappier, ledrappier_sk):
        sk = ledrappier_sk
        pairs = [
            (m, n)
            for m in box(ORIGIN, (2, 2))
            for n in box(ORIGIN, (2, 2))
            if m != n and p_meet(m, n) == ORIGIN
        ]
        for v in sk.vertices:
            for m, n in pairs:
                lam = periodicity_witness_search(
                    ledrappier, v, m, n, depth=(3, 3), skeleton=sk
                )
                assert lam is not None
                assert lam.range_vertex == v

    def test_default_depth_is_join_plus_two(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[0]
        lam = periodicity_witness_search(
            ledrappier, v, (1, 0), (0, 1), skeleton=ledrappier_sk
        )
        assert lam is not None and lam.degree == (3, 3)

    def test_size_cap(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[0]
        with pytest.raises(SizeLimit):
            periodicity_witness_search(
                ledrappier,
                v,
                (1, 0),
                ORIGIN,
                depth=(9, 9),
                skeleton=ledrappier_sk,
                limits=Limits(max_paths=100),
            )


class TestStrongConnectivity:
    def test_ledrappier_k1_exhaustive(self, ledrappier, ledrappier_sk):
        result = strong_connectivity(ledrappier, skeleton=ledrappier_sk)
        assert result.strongly_connected and result.k == 1
        assert result.method == "exhaustive"

    def test_square_k2(self, square, square_sk):
        result = strong_connectivity(square, skeleton=square_sk)
        assert result.strongly_connected and result.k == 2

    def test_single_vertex(self):
        bd = validate_basic_data(
            parse_tile([(0, 0), (1, 0), (0, 1)]), ["a"], {"a": ["a"]}
        )
        result = strong_connectivity(bd)
        assert result.strongly_connected and result.k == 1

    def test_bfs_fallback_noted(self, square, square_sk):
        result = strong_connectivity(
            square, skeleton=square_sk, limits=Limits(max_paths=10)
        )
        assert result.strongly_connected and result.method == "bfs"

    def test_degenerate_rejected(self):
        dot = parse_tile([(0, 0)])
        bd = validate_basic_data(dot, ["0"], None, distinguished="0")
        with pytest.raises(DegenerateTile):
            strong_connectivity(bd)

    @pytest.mark.parametrize("name, k", [("ledrappier", 1), ("square", 2)])
    def test_exhaustive_up_to_the_path_cap(self, request, name, k):
        # Exhaustive while V times the degree-(k, k) path count fits the
        # cap, the BFS fallback one below.
        bd, sk = request.getfixturevalue(name), request.getfixturevalue(f"{name}_sk")
        need = path_count(bd, (k, k)) * len(sk.vertices)
        for cap, method in ((need, "exhaustive"), (need - 1, "bfs")):
            result = strong_connectivity(bd, skeleton=sk, limits=Limits(max_paths=cap))
            assert (result.k, result.method) == (k, method)


class TestPrwChecks:
    def test_ledrappier_rule_passes_and_finds_cycle(self):
        tile = parse_tile([(0, 0), (1, 0), (0, 1)])
        params = validate_prw(tile, 2, 0, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        check, cert = cross_validate_prw(params)
        assert check is True
        assert cert is not None

    def test_wide_rule_gap(self):
        # Origin weight zero: the rule-level test is silent, yet the
        # certificate search still succeeds on the imported data.
        tile = parse_tile([(0, 0), (1, 0), (2, 0), (0, 1)])
        params = validate_prw(tile, 2, 0, {(0, 0): 0, (1, 0): 1, (2, 0): 1, (0, 1): 1})
        assert prw_aperiodicity_check(params) is False
        bd = import_prw(params)
        sk = build_skeleton(bd)
        assert find_breaking_cycle(bd, BLUE, "0", skeleton=sk) is not None

    def test_flat_rule_fails(self):
        tile = parse_tile([(0, 0), (1, 0), (2, 0)])
        params = validate_prw(tile, 2, 0, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
        assert prw_aperiodicity_check(params) is False

    @pytest.mark.parametrize(
        "q,t,w0",
        [(2, 0, 1), (2, 1, 1), (3, 1, 2), (4, 2, 3), (5, 3, 4)],
    )
    def test_sufficiency_never_outruns_the_search(self, q, t, w0):
        tile = parse_tile([(0, 0), (1, 0), (0, 1)])
        params = validate_prw(tile, q, t, {(0, 0): w0, (1, 0): 1, (0, 1): 1})
        check, cert = cross_validate_prw(params)  # raises if check and no cert
        assert check is True
        assert cert is not None


class TestSimplicityReport:
    def test_ledrappier_all_flags(self, ledrappier, ledrappier_sk):
        report = simplicity_report(ledrappier, skeleton=ledrappier_sk)
        assert report.verdict.status is AperiodicityStatus.CERTIFIED
        assert report.flags == {
            "unital": True,
            "simple": True,
            "purely_infinite": True,
        }
        assert report.cofinal and report.strongly_connected
        assert report.connectivity_degree == 1

    def test_flat_not_simple(self, flat, flat_sk):
        report = simplicity_report(flat, skeleton=flat_sk)
        assert report.verdict.status is AperiodicityStatus.PERIODIC_FLAT
        assert report.flags["unital"] is True
        assert report.flags["simple"] is False
        assert report.flags["purely_infinite"] is None

    def test_unknown_flags_undetermined(self):
        tile = parse_tile([(0, 0), (1, 0), (0, 1), (1, 1)])
        table = {
            ",".join(p): ["0", "1"] for p in itertools.product("01", repeat=2)
        }
        bd = validate_basic_data(tile, ["0", "1"], table)
        report = simplicity_report(bd)
        assert report.verdict.status is AperiodicityStatus.UNKNOWN
        assert report.flags["simple"] is None
        assert report.flags["purely_infinite"] is None
        assert report.flags["unital"] is True

    def test_connectivity_holds_on_all_corpus_graphs(self, request):
        for name in ("ledrappier", "square", "rem3", "flat"):
            bd = request.getfixturevalue(name)
            sk = request.getfixturevalue(f"{name}_sk")
            assert strong_connectivity(bd, skeleton=sk).strongly_connected

    def test_degenerate_report(self):
        dot = parse_tile([(0, 0)])
        bd = validate_basic_data(dot, ["0", "1"], None, distinguished="0")
        report = simplicity_report(bd)
        assert report.verdict.status is AperiodicityStatus.PERIODIC_FLAT
        assert report.strongly_connected and report.connectivity_degree == 1
        assert report.flags["simple"] is False


# -- the old searches, kept as twins -----------------------------------------


def simple_path_shortest_cycle(nodes, edges):
    """The cycle search as first written: a BFS over simple paths from each
    start, exponential in the worst case."""
    adj = {n: [] for n in nodes}
    for v, u in sorted(edges):
        if v != u:
            adj[v].append(u)
    best = None
    for start in nodes:
        frontier = [[start]]
        found = None
        while frontier and found is None:
            nxt = []
            for path in frontier:
                for u in adj[path[-1]]:
                    if u == start and len(path) >= 2:
                        found = path
                        break
                    if u not in path:
                        nxt.append(path + [u])
                if found is not None:
                    break
            frontier = nxt
        if found is not None and (best is None or len(found) < len(best)):
            best = found
    return best


def heads_of(edges):
    return lambda v: sorted(u for w, u in edges if w == v)


@st.composite
def digraphs(draw):
    """Up to 9 nodes with self-loops allowed, and the candidate subset."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * n))
    nodes = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return nodes, edges


class TestShortestCycle:
    @given(digraphs())
    @settings(max_examples=300, deadline=None)
    @example(([0, 1, 2, 3], {(0, 1), (1, 0), (2, 3), (3, 2)}))  # tie between starts
    @example(([0, 1, 2], {(0, 2), (0, 1), (1, 0), (2, 0), (0, 0)}))  # tie within one
    @example(([0, 2], {(0, 1), (1, 2), (2, 0), (2, 2), (0, 2)}))  # 1 is no candidate
    def test_matches_the_simple_path_search(self, graph):
        nodes, edges = graph
        inside = {(v, u) for v, u in edges if v in nodes and u in nodes}
        want = simple_path_shortest_cycle(nodes, inside)
        assert _shortest_cycle(nodes, heads_of(edges)) == want

    def test_wide_layered_graph_is_polynomial(self):
        # Two nodes per layer, each joined to both nodes of the next layer:
        # 2**60 simple paths, so the old search never ends.
        layers = 60
        edges = {
            (2 * i + a, 2 * (i + 1) + b)
            for i in range(layers - 1)
            for a in (0, 1)
            for b in (0, 1)
        }
        nodes = list(range(2 * layers))
        t0 = time.perf_counter()
        assert _shortest_cycle(nodes, heads_of(edges)) is None
        # One edge back from the last layer closes 2**59 shortest cycles;
        # the canonical one runs through the first node of every layer.
        closed = edges | {(2 * (layers - 1), 0)}
        assert _shortest_cycle(nodes, heads_of(closed)) == list(range(0, 2 * layers, 2))
        assert time.perf_counter() - t0 < 5.0


def flat_rewired(sk, blue):
    return Skeleton(sk.basic_data, sk.vertices, tuple(sorted(blue)), sk.red, sk.index)


class TestColourSubgraphCycles:
    def test_two_outgoing_edges_are_named_first(self, flat_sk):
        # Vertex 0 loses its edge and vertex 2 gains a second one: the
        # two-edge vertex is reported, whatever comes earlier.
        (v0,) = [e for e in flat_sk.blue if e[0] == 0]
        extra = next((2, u) for u in range(4) if (2, u) not in flat_sk.blue)
        sk = flat_rewired(flat_sk, (set(flat_sk.blue) - {v0}) | {extra})
        with pytest.raises(InvariantViolation) as err:
            colour_subgraph_cycles(sk, BLUE)
        assert str(err.value) == "vertex 2 has more than one outgoing blue edge"

    def test_a_vertex_without_edges(self, flat_sk):
        sk = flat_rewired(flat_sk, [e for e in flat_sk.blue if e[0] != 1])
        with pytest.raises(InvariantViolation) as err:
            colour_subgraph_cycles(sk, BLUE)
        assert str(err.value) == "the blue subgraph is not a disjoint union of cycles"


def enumerated_connectivity(bd, sk, limits=Limits()):
    """The exhaustive branch as first written: the sources of every vertex's
    enumerated degree-(k,k) paths, ``strict=False`` so that a rewired
    skeleton's missing chains show as missing sources."""
    k = 1
    while (k, k) in bd.tile.points:
        k += 1
    degree = (k, k)
    for v in sk.vertices:
        paths = enumerate_paths(bd, v, degree, skeleton=sk, limits=limits, strict=False)
        if len({lam.source_vertex for lam in paths}) != len(sk.vertices):
            raise InvariantViolation(
                f"vertex {sk.index[v]} does not reach every vertex by a "
                f"degree-{degree} path"
            )
    return k


def connectivity_outcome(fn, bd, sk):
    try:
        return fn(bd, sk)
    except InvariantViolation as err:
        return str(err)


def exhaustive_k(bd, sk):
    result = strong_connectivity(bd, skeleton=sk)
    assert result.method == "exhaustive"
    return result.k


class TestConnectivityAgainstEnumeration:
    @pytest.mark.parametrize("name", ["ledrappier", "square", "rem3", "flat"])
    def test_bundled_graphs(self, name, request):
        bd = request.getfixturevalue(name)
        sk = request.getfixturevalue(f"{name}_sk")
        assert exhaustive_k(bd, sk) == enumerated_connectivity(bd, sk)

    @given(small_data())
    @settings(max_examples=20, deadline=None)
    def test_small_data(self, bd):
        sk = build_skeleton(bd)
        assert connectivity_outcome(exhaustive_k, bd, sk) == connectivity_outcome(
            enumerated_connectivity, bd, sk
        )

    @pytest.mark.parametrize(
        "colour,edge,first",
        [
            (BLUE, (3, 0), 3),  # vertex 3 loses one of its two blue first steps
            (RED, (2, 0), 1),  # 2 -> 0 ends chains from 1 and 2, blue tails of 2
        ],
    )
    def test_rewired_skeleton_misses_a_target(self, ledrappier_sk, colour, edge, first):
        message = f"vertex {first} does not reach every vertex by a degree-(1, 1) path"
        sk = ledrappier_sk
        blue = tuple(e for e in sk.blue if (BLUE, e) != (colour, edge))
        red = tuple(e for e in sk.red if (RED, e) != (colour, edge))
        sk = Skeleton(sk.basic_data, sk.vertices, blue, red, sk.index)
        bd = sk.basic_data
        assert connectivity_outcome(exhaustive_k, bd, sk) == message
        assert connectivity_outcome(enumerated_connectivity, bd, sk) == message


def set_loop_connectivity(bd, sk):
    """The exhaustive branch as the library first counted it: the vertex set
    each vertex reaches by k blue, then k red steps along the out-lists."""
    k = 1
    while (k, k) in bd.tile.points:
        k += 1
    n = len(sk.vertices)
    for v in range(n):
        reached = {v}
        for colour in (BLUE,) * k + (RED,) * k:
            reached = {u for w in reached for u in sk.out_neighbours(colour, w)}
        if len(reached) != n:
            raise InvariantViolation(
                f"vertex {v} does not reach every vertex by a "
                f"degree-{(k, k)} path"
            )
    return k


LEDRAPPIER_PAIRS = list(itertools.product(range(4), repeat=2))
SQUARE_PAIRS = list(itertools.product(range(8), repeat=2))


class TestConnectivityAgainstTheSetLoop:
    @given(
        st.sampled_from(["ledrappier", "square"]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rewired_skeletons(self, ledrappier_sk, square_sk, name, data):
        sk = ledrappier_sk if name == "ledrappier" else square_sk
        pairs = LEDRAPPIER_PAIRS if name == "ledrappier" else SQUARE_PAIRS
        # Mostly the skeleton's own edges, with a few dropped or added.
        blue, red = (
            data.draw(st.sets(st.sampled_from(pairs)).map(set(edges).__xor__))
            for edges in (sk.blue, sk.red)
        )
        sk = Skeleton(sk.basic_data, sk.vertices, tuple(sorted(blue)),
                      tuple(sorted(red)), sk.index)
        bd = sk.basic_data
        assert connectivity_outcome(exhaustive_k, bd, sk) == connectivity_outcome(
            set_loop_connectivity, bd, sk
        )


# -- the batched twin of the witness evidence ----------------------------------
#
# The evidence loop as first written for ``analyze``: each vertex's paths are
# enumerated in full once per depth ``join + bound``, then scanned for the
# first witness of every offset pair of that depth.  The library walks each
# vertex's paths once, at depth ``(1, 1) + bound``, stopping once every pair
# has its witness, and must give the same note.

UNITS = [ORIGIN, (1, 0), (0, 1), (1, 1)]
PAIRS = [(m, n) for m in UNITS for n in UNITS if m != n and p_meet(m, n) == ORIGIN]
UNKNOWN_INPUTS = sorted((DATA_DIR.parent / "perfbench" / "inputs" / "unknown").glob("*.json"))


def identity_data():
    """The 2x2 square with identity rows: no breaking cycle, verdict Unknown."""
    table = {",".join(p): ["0", "1"] for p in itertools.product("01", repeat=2)}
    square = parse_tile([(0, 0), (1, 0), (0, 1), (1, 1)])
    return validate_basic_data(square, ["0", "1"], table)


def twin_first_witness(paths, m, n, depth, rest=None):
    """The first of ``paths`` whose slices of degree ``rest`` (by default
    ``depth - m v n``) at ``m`` and ``n`` differ."""
    rest = p_sub(depth, p_join(m, n)) if rest is None else rest
    for lam in paths:
        left = factorize(lam, m, p_add(m, rest))
        right = factorize(lam, n, p_add(n, rest))
        if left.labels != right.labels:
            return lam
    return None


def twin_witness_evidence(bd, sk, bound, limits=Limits()):
    by_depth = {}
    for m, n in PAIRS:
        depth = p_add(p_join(m, n), bound)
        if path_count(bd, depth) > limits.max_paths:
            raise SizeLimit(
                f"{path_count(bd, depth)} paths of degree {depth} would exceed "
                f"the cap of {limits.max_paths}"
            )
        by_depth.setdefault(depth, []).append((m, n))
    found = total = 0
    for v in sk.vertices:
        for depth, pairs in by_depth.items():
            paths = enumerate_paths(bd, v, depth, skeleton=sk, limits=limits)
            for m, n in pairs:
                total += 1
                found += twin_first_witness(paths, m, n, depth) is not None
    return (
        f"bounded witness search (join + {bound}): witnesses found for "
        f"{found} of {total} (vertex, offset-pair) cases; absence of a "
        f"witness up to this depth does not establish periodicity"
    )


def evidence_outcome(fn, bd, sk, bound, limits):
    try:
        return fn(bd, sk, bound, limits)
    except SizeLimit as err:
        return str(err)


class TestWitnessEvidenceAgainstTwin:
    @pytest.mark.parametrize("bound", [(0, 0), (1, 1), (2, 1), (2, 2)])
    def test_identity_table(self, bound):
        bd = identity_data()
        sk = build_skeleton(bd)
        assert aperiodicity_verdict(bd, skeleton=sk).status is AperiodicityStatus.UNKNOWN
        note = witness_evidence(bd, sk, bound, Limits())
        assert note == twin_witness_evidence(bd, sk, bound)
        assert f"for {len(sk.vertices) * len(PAIRS)} " not in note  # not all witnessed

    @pytest.mark.parametrize("bound", [(0, 0), (2, 2)])
    @pytest.mark.parametrize("path", UNKNOWN_INPUTS, ids=lambda path: path.stem)
    def test_unknown_inputs(self, path, bound):
        # The benchmark's tables without a certificate; on square2-04 some
        # pairs have no witness, so its walks run to the end.
        bd = basic_data_from_dict(json.loads(path.read_text()))
        sk = build_skeleton(bd)
        note = witness_evidence(bd, sk, bound, Limits())
        assert note == twin_witness_evidence(bd, sk, bound)

    def test_each_edge_is_derived_at_most_once(self, edge_derivations):
        # Every search walks the one skeleton, which keeps each colour's
        # edge batch once built.
        bd = identity_data()
        sk = build_skeleton(bd)
        note = witness_evidence(bd, sk, (1, 1), Limits())
        assert note == twin_witness_evidence(bd, sk, (1, 1))
        assert edge_derivations
        assert len(edge_derivations) == len(set(edge_derivations))
        assert set(edge_derivations) <= {(sk, "blue"), (sk, "red")}

    def test_caps_are_checked_before_the_first_search(self, monkeypatch):
        # At cap 8 the first pair's depth (2, 1) fits and the third's, (2, 2),
        # does not: the note is refused before any walk runs.  At cap 16
        # each vertex is walked once, at (2, 2).
        import tilegraphs.dynamics as dynamics

        calls = []
        walk = dynamics._chain_walk
        monkeypatch.setattr(
            dynamics,
            "_chain_walk",
            lambda *args, **kwargs: calls.append(args) or walk(*args, **kwargs),
        )
        bd = identity_data()
        sk = build_skeleton(bd)
        with pytest.raises(SizeLimit) as err:
            witness_evidence(bd, sk, (1, 1), Limits(max_paths=8))
        assert str(err.value) == "16 paths of degree (2, 2) would exceed the cap of 8"
        assert calls == []
        witness_evidence(bd, sk, (1, 1), Limits(max_paths=16))
        assert len(calls) == len(sk.vertices)

    @given(
        small_data(),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.sampled_from([200_000, 64, 16]),
    )
    @settings(max_examples=30, deadline=None)
    @example(identity_data(), (1, 1), 64)
    @example(identity_data(), (1, 1), 4)
    def test_small_data(self, bd, bound, cap):
        # A cap below some pair's path count is refused before any search,
        # naming the first such pair's depth: at cap 4, (2, 1).
        sk, limits = build_skeleton(bd), Limits(max_paths=cap)
        assert evidence_outcome(witness_evidence, bd, sk, bound, limits) == (
            evidence_outcome(twin_witness_evidence, bd, sk, bound, limits)
        )

    @given(
        st.one_of(small_data(), st.just(identity_data())),
        st.integers(0, 63),
        st.sampled_from(PAIRS),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_returns_the_first_witness(self, bd, vi, pair, bound):
        # Exactly the first path of the full list whose slices differ, or None.
        sk = build_skeleton(bd)
        v, (m, n) = sk.vertices[vi % len(sk.vertices)], pair
        depth = p_add(p_join(m, n), bound)
        paths = enumerate_paths(bd, v, depth, skeleton=sk)
        assert periodicity_witness_search(
            bd, v, m, n, depth=depth, skeleton=sk
        ) == twin_first_witness(paths, m, n, depth)

    @given(
        st.one_of(small_data(), st.just(identity_data())),
        st.integers(0, 63),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_walk_finds_every_pairs_first_witness(self, bd, vi, bound):
        # Pair by pair, the first path of degree (1, 1) + bound whose slices
        # of degree ``bound`` differ, or None; the walk stops at the last of
        # those first witnesses.
        import tilegraphs.dynamics as dynamics

        sk = build_skeleton(bd)
        v = sk.vertices[vi % len(sk.vertices)]
        depth = p_add((1, 1), bound)
        paths = enumerate_paths(bd, v, depth, skeleton=sk)
        slices = [[_slice(bd.tile, depth, k, bound) for k in mn] for mn in PAIRS]
        walked, walk = [], dynamics._chain_walk

        def counted(*args):
            for lam in walk(*args):
                walked.append(lam)
                yield lam

        with mock.patch.object(dynamics, "_chain_walk", counted):
            found = _first_witnesses(bd, v, slices, depth, sk, Limits())
        twins = [twin_first_witness(paths, m, n, depth, bound) for m, n in PAIRS]
        assert [None if lam is None else _path(bd.tile, depth, lam) for lam in found] == twins
        assert len(walked) == (
            len(paths) if None in twins else 1 + max(map(paths.index, twins))
        )
