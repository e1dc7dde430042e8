import itertools
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tilegraphs import (
    InconsistentInput,
    InvariantViolation,
    MissingPattern,
    NotAdmissible,
    OutOfRange,
    Path,
    SizeLimit,
    Skeleton,
    SourceRangeMismatch,
    TileGraphError,
    UnknownSymbol,
    ValidationError,
    all_paths,
    build_skeleton,
    compose,
    config_to_path,
    edge_condition,
    enumerate_paths,
    factorize,
    fill_corner_br,
    fill_corner_ul,
    import_prw,
    parse_tile,
    path_count,
    periodicity_witness_search,
    to_dot,
    translate_union,
    validate_basic_data,
    validate_prw,
    window_admissible,
)
from tilegraphs.checks import (
    CheckResult,
    _check_split_count,
    brute_force_paths,
    check_associativity,
    check_commuting_squares,
    check_degree_counts,
    check_unique_factorisation,
    run_axiom_suite,
)
from tilegraphs.data import Alphabet, BasicData, vertex_from_labels
from tilegraphs.graph import _count_chains, _pairwise_edges
from tilegraphs.lattice import box, contained_translates, p_add, p_leq
from tilegraphs.shifts import WindowConfig
from tilegraphs.limits import Limits

from conftest import DATA_DIR, small_data

ROOT = DATA_DIR.parent
TRIPOD = parse_tile([(0, 0), (1, 0), (0, 1)])
LEDRAPPIER_TABLE = {"0": ["0", "1"], "1": ["1", "0"]}


def ledrappier_data():
    return validate_basic_data(TRIPOD, ["0", "1"], LEDRAPPIER_TABLE)


def corrupted_ledrappier_data():
    # Bypass validation with a non-bijective row.
    bd = ledrappier_data()
    bd.bijections[("1",)] = ("0", "0")
    bd.inverses[("1",)] = ("0", "0")
    return bd


def modular_rule(cells):
    """mod 4 with weight 3 except 1 at the bottom-right corner, trace 0."""
    tile = parse_tile(cells)
    w = {p: 1 if p == tile.corner_br else 3 for p in tile.points}
    return validate_prw(tile, 4, 0, w)


def pairwise_edges(bd, sk, colour):
    """The definitional scan: every ordered vertex pair through edge_condition."""
    axis = {"blue": 1, "red": 2}[colour]
    return tuple(
        (i, j)
        for i, v in enumerate(sk.vertices)
        for j, u in enumerate(sk.vertices)
        if edge_condition(bd.tile, v, u, axis)
    )


def staircase_data():
    # Five-cell staircase with parity bijections: the widest worked tile.
    tile = parse_tile([(0, 0), (1, 0), (2, 0), (1, 1), (0, 1)])
    table = {
        ",".join(p): (["0", "1"] if p.count("1") % 2 == 0 else ["1", "0"])
        for p in itertools.product("01", repeat=3)
    }
    return validate_basic_data(tile, ["0", "1"], table)


def tall_staircase_data():
    # Transposed staircase: exercises the upper-left fills on a tall tile.
    tile = parse_tile([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
    table = {
        ",".join(p): (["0", "1"] if p.count("1") % 2 == 0 else ["1", "0"])
        for p in itertools.product("01", repeat=3)
    }
    return validate_basic_data(tile, ["0", "1"], table)


class TestSkeleton:
    def test_ledrappier_degrees(self, ledrappier, ledrappier_sk):
        sk = ledrappier_sk
        assert len(sk.vertices) == 4
        for i in range(4):
            assert len(sk.out_neighbours("blue", i)) == 2
            assert len(sk.out_neighbours("red", i)) == 2

    def test_ledrappier_blue_out_neighbours_of_zero(self, ledrappier_sk):
        # The all-zero vertex reads 0 at e1, forcing u(0) = 0: exactly the
        # two vertices with pattern value 0.
        sk = ledrappier_sk
        targets = {
            tuple(sorted(sk.vertices[u].as_dict().items()))
            for u in sk.out_neighbours("blue", 0)
        }
        assert targets == {
            tuple(sorted({(0, 0): "0", (1, 0): "0", (0, 1): "0"}.items())),
            tuple(sorted({(0, 0): "0", (1, 0): "1", (0, 1): "1"}.items())),
        }

    def test_single_symbol_graph_is_two_loops(self):
        bd = validate_basic_data(TRIPOD, ["a"], {"a": ["a"]})
        sk = build_skeleton(bd)
        assert len(sk.vertices) == 1
        assert sk.blue == ((0, 0),)
        assert sk.red == ((0, 0),)

    def test_degenerate_graph_is_two_loops(self):
        dot_tile = parse_tile([(0, 0)])
        bd = validate_basic_data(dot_tile, ["0", "1"], None, distinguished="0")
        sk = build_skeleton(bd)
        assert len(sk.vertices) == 1
        assert sk.blue == ((0, 0),) and sk.red == ((0, 0),)

    @given(small_data())
    @settings(max_examples=25, deadline=None)
    def test_degree_counts_hold_generally(self, bd):
        sk = build_skeleton(bd)  # raises InvariantViolation on a bad count
        a = len(bd.alphabet)
        assert len(sk.blue) == len(sk.vertices) * a**bd.tile.c2
        assert len(sk.red) == len(sk.vertices) * a**bd.tile.c1

    @given(st.one_of(small_data(), small_data(("0", "1", "2"))))
    @settings(max_examples=30, deadline=None)
    @example(validate_basic_data(parse_tile([(0, 0)]), ["0", "1"], None, "0"))
    @example(validate_basic_data(parse_tile([(0, 0), (1, 0), (2, 0)]), ["0", "1"],
                                 {"0": ["0", "1"], "1": ["1", "0"]}))
    @example(corrupted_ledrappier_data())
    def test_join_matches_the_pairwise_condition(self, bd):
        # The hash join must keep exactly the pairs the pairwise test keeps,
        # and the pairwise test must read the overlap as defined here from
        # the tile's points, not through the library's memoised overlap.
        sk = build_skeleton(bd, check=False)
        tile = bd.tile
        for colour, e in (("blue", (1, 0)), ("red", (0, 1))):
            ov = [p for p in tile.points if (p[0] - e[0], p[1] - e[1]) in tile.points]
            defined = tuple(
                (i, j)
                for i, v in enumerate(sk.vertices)
                for j, u in enumerate(sk.vertices)
                for vd, ud in [(v.as_dict(), u.as_dict())]
                if all(vd[m] == ud[(m[0] - e[0], m[1] - e[1])] for m in ov)
            )
            assert sk.edges(colour) == pairwise_edges(bd, sk, colour) == defined

    @pytest.mark.parametrize("rewire", [False, True])
    def test_one_degree_check_guards_the_build(self, rewire):
        # build_skeleton(check=True) raises the degree check's own detail,
        # which names the first vertex an edge count here finds short or
        # long: out-degrees first, then in-degrees, blue before red.
        bd = corrupted_ledrappier_data()
        sk = build_skeleton(bd, check=False)
        if rewire:
            # Valid data without the blue edge 3 -> 0 and the red edge
            # 0 -> 0: blue vertex 3 is short of out-edges, while blue vertex
            # 0 (in) and red vertex 0 (both ways) come earlier in other orders.
            bd = ledrappier_data()
            sk = build_skeleton(bd)
            blue = tuple(e for e in sk.blue if e != (3, 0))
            red = tuple(e for e in sk.red if e != (0, 0))
            sk = Skeleton(bd, sk.vertices, blue, red, sk.index)
        first = None
        for colour in ("blue", "red"):
            for end in (0, 1):
                count = Counter(e[end] for e in sk.edges(colour))
                bad = [i for i in range(len(sk.vertices)) if count[i] != 2]
                if bad and first is None:
                    first = bad[0], colour
        assert first == ((3, "blue") if rewire else (0, "blue"))
        result = check_degree_counts(bd, sk)
        assert not result.ok
        assert result.detail == (
            f"vertex {first[0]} violates the {first[1]} degree count (expected 2)"
        )
        assert result.counterexample == sk.vertices[first[0]]
        if not rewire:
            with pytest.raises(InvariantViolation) as err:
                build_skeleton(bd, check=True)
            assert str(err.value) == result.detail

    def test_join_matches_the_pairwise_scan_on_256_vertices(self):
        bd = import_prw(modular_rule([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]))
        sk = build_skeleton(bd)
        assert len(sk.vertices) == 256
        keys = [v.symbols for v in sk.vertices]
        for colour, axis in (("blue", 1), ("red", 2)):
            defined = pairwise_edges(bd, sk, colour)
            assert sk.edges(colour) == defined
            assert _pairwise_edges(bd.tile, keys, axis) == defined
            assert len(defined) == 4_096

    @given(
        st.one_of(small_data(), small_data(("0", "1", "2"))),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    @example(validate_basic_data(parse_tile([(0, 0)]), ["0", "1"], None, "0"),
             random.Random(0))
    @example(validate_basic_data(parse_tile([(0, 0), (1, 0), (2, 0)]), ["0", "1"],
                                 {"0": ["0", "1"], "1": ["1", "0"]}),
             random.Random(1))
    @example(corrupted_ledrappier_data(), random.Random(2))
    def test_overlap_key_scan_matches_edge_condition(self, bd, rnd):
        # The scan behind the import check, on labellings in an arbitrary
        # order (as the modular-rule oracle lists them), against
        # edge_condition on every ordered pair of that list.
        vertices = list(build_skeleton(bd, check=False).vertices)
        rnd.shuffle(vertices)
        keys = [v.symbols for v in vertices]
        for axis in (1, 2):
            assert _pairwise_edges(bd.tile, keys, axis) == tuple(
                (i, j)
                for i, v in enumerate(vertices)
                for j, u in enumerate(vertices)
                if edge_condition(bd.tile, v, u, axis)
            )

    def test_overlap_key_scan_on_a_flat_tile(self, flat, flat_sk):
        # The flat row has no red overlap: every ordered pair is a red edge.
        keys = [v.symbols for v in flat_sk.vertices]
        n = len(keys)
        assert _pairwise_edges(flat.tile, keys, 2) == tuple(
            itertools.product(range(n), repeat=2)
        )
        assert _pairwise_edges(flat.tile, keys, 1) == flat_sk.blue

    def test_vertex_cap_graph_has_16_edges_per_vertex(self):
        bd = import_prw(
            modular_rule([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])
        )
        sk = build_skeleton(bd)
        assert len(sk.vertices) == 1024
        assert len(sk.blue) == len(sk.red) == 16_384

    def test_adjacency_matches_the_edge_lists(self, square_sk):
        sk = square_sk
        for colour in ("blue", "red"):
            for v in range(len(sk.vertices)):
                heads = sorted(u for w, u in sk.edges(colour) if w == v)
                assert sk.out_neighbours(colour, v) == heads
                n = len(sk.vertices)
                assert [u for u in range(n) if sk.has_edge(colour, v, u)] == heads
        with pytest.raises(ValueError):
            sk.out_neighbours("green", 0)

    @pytest.mark.parametrize("call", ["edges", "has_edge", "out_neighbours", "edge_path"])
    def test_unknown_colours_are_rejected_alike(self, ledrappier_sk, call):
        args = {"edges": (), "out_neighbours": (0,)}.get(call, (0, 1))
        with pytest.raises(ValueError) as err:
            getattr(ledrappier_sk, call)("green", *args)
        assert str(err.value) == "colour must be 'blue' or 'red', got 'green'"

    def test_dot_export(self, ledrappier_sk):
        dot = to_dot(ledrappier_sk)
        assert dot.startswith("digraph skeleton {")
        assert dot.count("->") == 16
        assert dot.count("style=solid") == 8
        assert dot.count("style=dashed") == 8
        assert 'v0 [label="0|0"];' in dot

    def test_dot_labels_escape_quotes_and_backslashes(self):
        a, b = 'a"b', "c\\d"
        tile = parse_tile([(0, 0), (1, 0), (0, 1)])
        bd = validate_basic_data(tile, [a, b], {a: [a, b], b: [b, a]})
        dot = to_dot(build_skeleton(bd))
        labels = [line.split("[label=", 1)[1] for line in dot.splitlines()
                  if "[label=" in line]
        assert len(labels) == 4
        for label in labels:
            assert re.fullmatch(r'"(?:[^"\\]|\\.)*"\];', label)
        assert 'v0 [label="a\\"b|a\\"b"];' in dot
        assert '[label="c\\\\d|c\\\\d"];' in dot

    def test_dot_labels_tell_vertices_apart(self):
        # "|" joins the pattern key to the top symbol and may sit in symbols.
        symbols = ["a", "b", "a|b", "b|b"]
        tile = parse_tile([(0, 0), (1, 0), (0, 1)])
        bd = validate_basic_data(tile, symbols, {s: symbols for s in symbols})
        sk = build_skeleton(bd)
        dot = to_dot(sk)
        labels = [line.split("[label=", 1)[1] for line in dot.splitlines()
                  if "[label=" in line]
        assert len(labels) == len(set(labels)) == len(sk.vertices) == 16
        assert 'v2 [label="a|a\\|b"];' in dot


class TestFillCorners:
    def make_labels(self):
        # Valid windows at (0,0) and (1,1); the window at (1,0) misses its
        # bottom-right corner (2,0).
        return {
            (0, 0): "0",
            (1, 0): "1",
            (0, 1): "1",
            (1, 1): "0",
            (2, 1): "0",
            (1, 2): "0",
        }

    def test_fill_br_forced_value(self):
        bd = ledrappier_data()
        point, symbol = fill_corner_br(bd, self.make_labels(), (0, 1))
        # Window at (1,0): pattern reads 1, top reads 0, flip gives 1.
        assert point == (2, 0)
        assert symbol == "1"

    def test_fill_br_idempotent(self):
        bd = ledrappier_data()
        labels = self.make_labels()
        labels[(2, 0)] = "1"
        assert fill_corner_br(bd, labels, (0, 1)) == ((2, 0), "1")

    def test_fill_br_inconsistent_window(self):
        bd = ledrappier_data()
        labels = self.make_labels()
        labels[(0, 1)] = "0"  # breaks the window at (0,0)
        with pytest.raises(InconsistentInput):
            fill_corner_br(bd, labels, (0, 1))

    def test_fill_ul_forced_value(self):
        bd = ledrappier_data()
        labels = self.make_labels()
        # Window at (0,1) misses its top corner (0,2); pattern reads 1,
        # corner reads 0, so the top must be the preimage of 0 under flip.
        point, symbol = fill_corner_ul(bd, labels, (0, 1))
        assert point == (0, 2)
        assert symbol == "1"

    def test_fill_ul_idempotent(self):
        bd = ledrappier_data()
        labels = self.make_labels()
        labels[(0, 2)] = "1"
        assert fill_corner_ul(bd, labels, (0, 1)) == ((0, 2), "1")

    def test_fill_ul_inconsistent(self):
        bd = ledrappier_data()
        labels = self.make_labels()
        labels[(1, 2)] = "1"  # breaks the window at (1,1)
        with pytest.raises(InconsistentInput):
            fill_corner_ul(bd, labels, (0, 1))

    def test_missing_support_is_an_error(self):
        bd = ledrappier_data()
        labels = self.make_labels()
        del labels[(2, 1)]
        with pytest.raises(ValueError):
            fill_corner_br(bd, labels, (0, 1))


class TestCompose:
    def test_degree_zero_identity(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[2]
        p = Path.from_vertex(ledrappier.tile, v)
        assert compose(ledrappier, p, p).labels == p.labels

    def test_blue_then_red_square(self, ledrappier, ledrappier_sk):
        sk = ledrappier_sk
        mu = sk.edge_path("blue", 0, 1)
        nu = sk.edge_path("red", 1, 3)
        lam = compose(ledrappier, mu, nu)
        assert lam.degree == (1, 1)
        assert lam.range_vertex == sk.vertices[0]
        assert lam.source_vertex == sk.vertices[3]
        assert factorize(lam, (0, 0), (1, 0)).labels == mu.labels
        assert factorize(lam, (1, 0), (1, 1)).labels == nu.labels

    def test_mismatched_windows_rejected(self, ledrappier, ledrappier_sk):
        sk = ledrappier_sk
        mu = sk.edge_path("blue", 0, 1)  # source vertex 1
        nu = sk.edge_path("red", 0, 1)   # range vertex 0
        with pytest.raises(SourceRangeMismatch):
            compose(ledrappier, mu, nu)

    def test_every_blue_red_pair_is_a_distinct_square(self, ledrappier, ledrappier_sk):
        sk = ledrappier_sk
        seen = {}
        for bv, bu in sk.blue:
            for rv, ru in sk.red:
                if rv != bu:
                    continue
                lam = compose(
                    ledrappier, sk.edge_path("blue", bv, bu), sk.edge_path("red", rv, ru)
                )
                seen[lam.labels] = (bv, bu, ru)
        assert len(seen) == 16

    def test_determinism(self, ledrappier, ledrappier_sk):
        sk = ledrappier_sk
        mu = sk.edge_path("blue", 2, 3)
        nu = sk.edge_path("red", 3, 2)
        assert compose(ledrappier, mu, nu).labels == compose(ledrappier, mu, nu).labels

    def test_staircase_tile_composition(self):
        # Five-cell staircase: the fill regions are non-rectangular unions;
        # every window of the composite must be a vertex.
        bd = staircase_data()
        sk = build_skeleton(bd)
        v = sk.vertices[0]
        for lam in enumerate_paths(bd, v, (1, 1), skeleton=sk):
            for m in box((0, 0), (1, 1)):
                assert bd.is_vertex(lam.window(m))

    def test_degenerate_composition(self):
        dot_tile = parse_tile([(0, 0)])
        bd = validate_basic_data(dot_tile, ["0", "1"], None, distinguished="1")
        p = enumerate_paths(bd, build_skeleton(bd).vertices[0], (2, 1))[0]
        lam = compose(bd, p, p)
        assert lam.degree == (4, 2)
        assert set(lam.as_dict().values()) == {"1"}


class TestFactorize:
    def test_full_slice_is_identity(self, ledrappier, ledrappier_sk):
        lam = all_paths(ledrappier, (2, 1), skeleton=ledrappier_sk)[7]
        assert factorize(lam, (0, 0), (2, 1)).labels == lam.labels

    def test_window_slice_is_vertex(self, ledrappier, ledrappier_sk):
        lam = all_paths(ledrappier, (1, 1), skeleton=ledrappier_sk)[3]
        v = factorize(lam, (1, 0), (1, 0))
        assert v.degree == (0, 0)
        assert v.labels == lam.window((1, 0)).labels

    def test_window_outside_the_degree_is_out_of_range(self, ledrappier, ledrappier_sk):
        # Offsets past d(lam) or below the origin are refused like slices.
        lam = all_paths(ledrappier, (1, 1), skeleton=ledrappier_sk)[3]
        for m in ((2, 0), (0, 2), (-1, 0), (2, 2)):
            with pytest.raises(OutOfRange) as err:
                lam.window(m)
            assert str(err.value) == f"window offset {m} is not within degree (1, 1)"
        assert lam.window((1, 1)) == lam.source_vertex

    def test_out_of_range(self, ledrappier, ledrappier_sk):
        lam = all_paths(ledrappier, (1, 0), skeleton=ledrappier_sk)[0]
        with pytest.raises(OutOfRange):
            factorize(lam, (0, 0), (2, 0))
        with pytest.raises(OutOfRange):
            factorize(lam, (1, 0), (0, 0))

    def test_unique_factorisation_degree_one_one(self, ledrappier, ledrappier_sk):
        # For every degree-(1,1) path and every split, exactly one
        # composable pair multiplies back to it.
        sk = ledrappier_sk
        paths = all_paths(ledrappier, (1, 1), skeleton=sk)
        for lam in paths:
            for m in ((1, 0), (0, 1)):
                n = (1 - m[0], 1 - m[1])
                hits = []
                for mu in all_paths(ledrappier, m, skeleton=sk):
                    for nu in all_paths(ledrappier, n, skeleton=sk):
                        if mu.source_vertex != nu.range_vertex:
                            continue
                        if compose(ledrappier, mu, nu).labels == lam.labels:
                            hits.append((mu, nu))
                assert len(hits) == 1
                assert hits[0][0].labels == factorize(lam, (0, 0), m).labels
                assert hits[0][1].labels == factorize(lam, m, (1, 1)).labels


class TestEnumeratePaths:
    def test_counts(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[1]
        assert len(enumerate_paths(ledrappier, v, (1, 0), skeleton=ledrappier_sk)) == 2
        assert len(enumerate_paths(ledrappier, v, (1, 1), skeleton=ledrappier_sk)) == 4
        assert enumerate_paths(ledrappier, v, (0, 0), skeleton=ledrappier_sk) == [
            Path.from_vertex(ledrappier.tile, v)
        ]

    def test_all_windows_are_vertices(self, ledrappier, ledrappier_sk):
        for v in ledrappier_sk.vertices:
            for lam in enumerate_paths(ledrappier, v, (2, 2), skeleton=ledrappier_sk):
                for m in box((0, 0), (2, 2)):
                    assert ledrappier.is_vertex(lam.window(m))

    def test_range_is_fixed(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[3]
        for lam in enumerate_paths(ledrappier, v, (2, 1), skeleton=ledrappier_sk):
            assert lam.range_vertex == v

    def test_cap(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[0]
        with pytest.raises(SizeLimit):
            enumerate_paths(
                ledrappier, v, (3, 3), skeleton=ledrappier_sk, limits=Limits(max_paths=63)
            )

    def test_cap_past_the_printable_range(self, ledrappier, ledrappier_sk):
        # 2 ** 200000 has 60,206 digits: refused from its exponent, unprinted.
        n, v = (10**5, 10**5), ledrappier_sk.vertices[0]
        with pytest.raises(SizeLimit) as err:
            enumerate_paths(ledrappier, v, n, skeleton=ledrappier_sk)
        assert str(err.value) == (
            "2**200000 paths of degree (100000, 100000) would exceed the cap of 200000"
        )
        with pytest.raises(SizeLimit) as err:
            all_paths(ledrappier, n, skeleton=ledrappier_sk)
        assert str(err.value) == (
            "4 * 2**200000 paths of degree (100000, 100000) would exceed the cap of 200000"
        )
        # The largest power Python still prints keeps its decimal message.
        e = 14284  # 2 ** 14284 < 10 ** 4300 <= 2 ** 14285
        with pytest.raises(SizeLimit) as err:
            enumerate_paths(ledrappier, v, (e, 0), skeleton=ledrappier_sk)
        assert str(err.value) == f"{2**e} paths of degree ({e}, 0) would exceed the cap of 200000"
        with pytest.raises(SizeLimit) as err:
            enumerate_paths(ledrappier, v, (e + 1, 0), skeleton=ledrappier_sk)
        assert str(err.value).startswith(f"2**{e + 1} paths")

    def test_path_count_formula(self, ledrappier):
        assert path_count(ledrappier, (3, 2)) == 2 ** (3 * 1 + 2 * 1)

    @given(small_data(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    @settings(max_examples=15, deadline=None)
    def test_enumeration_matches_counting(self, bd, n):
        sk = build_skeleton(bd)
        v = sk.vertices[0]
        assert len(enumerate_paths(bd, v, n, skeleton=sk)) == path_count(bd, n)

    @given(small_data(), st.tuples(st.integers(0, 2), st.integers(0, 1)))
    @settings(max_examples=15, deadline=None)
    def test_chain_enumeration_is_definitional(self, bd, n):
        # Edge-chain composition and window-filter backtracking must agree
        # on the full path set.
        from tilegraphs.checks import brute_force_paths

        sk = build_skeleton(bd)
        chained = {p.labels for p in all_paths(bd, n, skeleton=sk)}
        brute = {p.labels for p in brute_force_paths(bd, n)}
        assert chained == brute

    def test_flat_tile_walks_deeper_than_the_recursion_limit(self, flat, flat_sk):
        # Blue steps on the flat tile are forced, so the walk is one chain of
        # 1500 composes; it keeps its nodes on a stack, not the call stack.
        assert 1500 > sys.getrecursionlimit()
        v = flat_sk.vertices[2]
        (lam,) = enumerate_paths(flat, v, (1500, 0), skeleton=flat_sk)
        assert lam.degree == (1500, 0) and lam.range_vertex == v
        assert flat.is_vertex(lam.source_vertex)

    def test_brute_force_backtracks_deeper_than_the_recursion_limit(
        self, flat, flat_sk
    ):
        # 1202 cells: recursing once per cell would pass the recursion limit.
        brute = brute_force_paths(flat, (1200, 0))
        chained = all_paths(flat, (1200, 0), skeleton=flat_sk)
        assert len(brute) == len(flat_sk.vertices)
        assert sorted(p.labels for p in brute) == sorted(p.labels for p in chained)

    @pytest.mark.parametrize("i", range(4))
    def test_count_check_runs_before_the_walk(self, flat, flat_sk, i):
        # The flat skeleton without its first red edge, (0, 0): from every
        # vertex some degree-(4, 2) chain needs it.  Walked to the end, the
        # witness search would find no witness and answer None.
        sk = flat_sk
        broken = Skeleton(flat, sk.vertices, sk.blue, sk.red[1:], sk.index)
        v, left = sk.vertices[i], 12 if i == 0 else 15
        message = f"enumerated {left} paths of degree (4, 2), expected 16"
        with pytest.raises(InvariantViolation) as err:
            enumerate_paths(flat, v, (4, 2), skeleton=broken)
        assert str(err.value) == message
        with pytest.raises(InvariantViolation) as err:
            periodicity_witness_search(
                flat, v, (3, 0), (0, 0), depth=(4, 2), skeleton=broken
            )
        assert str(err.value) == message
        assert (
            periodicity_witness_search(flat, v, (3, 0), (0, 0), depth=(4, 2), skeleton=sk)
            is None
        )
        # Not strict: the walk yields the chains that are left.
        assert len(enumerate_paths(flat, v, (4, 2), broken, Limits(), False)) == left

    @pytest.mark.parametrize(
        "call",
        [
            lambda bd, sk, n: path_count(bd, n),
            lambda bd, sk, n: enumerate_paths(bd, sk.vertices[0], n, skeleton=sk),
            lambda bd, sk, n: all_paths(bd, n, skeleton=sk, strict=False),
            lambda bd, sk, n: brute_force_paths(bd, n),
            lambda bd, sk, n: check_unique_factorisation(bd, n, sk=sk),
        ],
        ids=["path_count", "enumerate_paths", "all_paths", "brute_force", "factorisation"],
    )
    @pytest.mark.parametrize("n", [(-1, 0), (-1, 2), (0, -1)])
    def test_negative_degrees_are_out_of_range(self, ledrappier, ledrappier_sk, call, n):
        with pytest.raises(OutOfRange) as err:
            call(ledrappier, ledrappier_sk, n)
        assert str(err.value) == f"degree {n} has a negative coordinate"

    @pytest.mark.parametrize("n", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("strict", [True, False])
    def test_a_range_vertex_outside_the_skeleton_is_refused(
        self, ledrappier, ledrappier_sk, rem3_sk, n, strict
    ):
        # A vertex of other data, and the one labelling of the one-cell tile
        # that is not a vertex.
        one_sk = build_skeleton(ONE_CELL)
        stray = vertex_from_labels(ONE_CELL.tile, {(0, 0): "0"})
        for bd, sk, v in (
            (ledrappier, ledrappier_sk, rem3_sk.vertices[5]),
            (ONE_CELL, one_sk, stray),
        ):
            with pytest.raises(ValidationError) as err:
                enumerate_paths(bd, v, n, sk, Limits(), strict)
            assert type(err.value) is ValidationError
            assert str(err.value) == f"range vertex {v.labels} is not a skeleton vertex"
        with pytest.raises(ValidationError) as err:
            periodicity_witness_search(
                ledrappier, rem3_sk.vertices[5], (1, 0), (0, 0), skeleton=ledrappier_sk
            )
        assert "is not a skeleton vertex" in str(err.value)

    def test_count_check_covers_a_search_that_stops_early(
        self, ledrappier, ledrappier_sk
    ):
        # The second of the 32 paths already witnesses (1, 0) against the
        # origin, so the walk stops long before a missing edge would show.
        sk = ledrappier_sk
        v = sk.vertices[0]
        assert periodicity_witness_search(
            ledrappier, v, (1, 0), (0, 0), skeleton=sk
        ) == enumerate_paths(ledrappier, v, (3, 2), skeleton=sk)[1]
        broken = Skeleton(ledrappier, sk.vertices, sk.blue[1:], sk.red, sk.index)
        with pytest.raises(InvariantViolation) as err:
            periodicity_witness_search(ledrappier, v, (1, 0), (0, 0), skeleton=broken)
        assert str(err.value) == "enumerated 16 paths of degree (3, 2), expected 32"


class TestAxiomSuites:
    def test_commuting_squares_ledrappier(self, ledrappier, ledrappier_sk):
        result = squares_match_the_twin(ledrappier_sk)
        assert result.ok
        assert result.detail.endswith("and every pair is joined exactly once")

    def test_associativity_ledrappier(self, ledrappier, ledrappier_sk):
        result = check_associativity(ledrappier, sk=ledrappier_sk)
        assert result.ok
        assert "256" in result.detail

    @given(small_data())
    @settings(max_examples=20, deadline=None)
    def test_associativity_counts_triples_against_the_path_cap(self, bd):
        # The triple count comes from the out-lists before any compose; here
        # it is counted again from the edge lists.  A cap at the count
        # passes, one below it refuses.
        sk = build_skeleton(bd)
        edges = sk.blue + sk.red
        out_degree = Counter(v for v, _ in edges)
        triples = sum(out_degree[x] for v, w in edges for w2, x in edges if w2 == w)
        result = check_associativity(bd, sk=sk, limits=Limits(max_paths=triples))
        assert result.ok
        assert result.detail == f"all {triples} composable edge triples agree"
        with pytest.raises(SizeLimit) as err:
            check_associativity(bd, sk=sk, limits=Limits(max_paths=triples - 1))
        assert str(err.value) == (
            f"associativity: {triples} composable edge triples exceed the "
            f"path cap of {triples - 1}"
        )

    def test_associativity_refuses_at_the_vertex_cap(self):
        # 1024 vertices with 32 out-edges each give 32**3 triples per
        # vertex; the check must refuse them before composing any.
        bd = import_prw(
            modular_rule([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])
        )
        t0 = time.perf_counter()
        with pytest.raises(SizeLimit, match="associativity: 33554432 composable"):
            run_axiom_suite(bd, degree=(0, 0))
        assert time.perf_counter() - t0 < 10

    def test_unique_factorisation_suite(self, ledrappier, ledrappier_sk):
        assert check_unique_factorisation(
            ledrappier, (1, 1), sk=ledrappier_sk
        ).ok

    def test_corrupted_table_fails_factorisation(self):
        # The checker must catch the breakage rather than report success.
        bd = corrupted_ledrappier_data()
        result = check_unique_factorisation(bd, (1, 1))
        assert not result.ok
        assert result.counterexample is not None

    def test_corrupted_table_fails_the_suite(self):
        from tilegraphs.checks import run_axiom_suite

        bd = corrupted_ledrappier_data()
        results = run_axiom_suite(bd, degree=(1, 1))
        failed = {r.name for r in results if not r.ok}
        assert "degree-counts" in failed
        assert "unique-factorisation" in failed

    def test_unique_factorisation_enumerates_each_degree_once(
        self, ledrappier, ledrappier_sk, monkeypatch
    ):
        import tilegraphs.checks as checks

        calls = Counter()
        real = checks._walk_paths

        def counted(bd, roots, n, *args):
            calls[n] += 1
            return real(bd, roots, n, *args)

        monkeypatch.setattr(checks, "_walk_paths", counted)
        brute = Counter()
        real_brute = checks.brute_force_paths

        def counted_brute(bd, n, *args, **kwargs):
            brute[n] += 1
            return real_brute(bd, n, *args, **kwargs)

        monkeypatch.setattr(checks, "brute_force_paths", counted_brute)
        assert check_unique_factorisation(ledrappier, (2, 2), sk=ledrappier_sk).ok
        assert calls == brute == Counter(box((0, 0), (2, 2)))

    @pytest.mark.parametrize("dead", [None, 3], ids=["ledrappier", "dead-end"])
    def test_associativity_composes_each_two_edge_chain_once(
        self, ledrappier, ledrappier_sk, monkeypatch, dead
    ):
        # Two composes per composable triple, plus one per two-edge chain
        # that some triple has as mu nu or as nu rho: 2 * 256 + 64 on
        # ledrappier, where four composes per triple would give 1,024.  With
        # vertex ``dead`` left without out-edges and vertex 0 without
        # in-edges, the chains from 0 into ``dead`` are in no triple, so they
        # are never composed.
        import tilegraphs.graph as graph

        sk = ledrappier_sk
        if dead is not None:
            sk = rewired(
                sk,
                *({e for e in es if e[0] != dead and e[1] != 0} for es in (sk.blue, sk.red)),
            )
        edges = [(c, v, u) for c in ("blue", "red") for v, u in sk.edges(c)]
        chains = [(a, b) for a in edges for b in edges if a[2] == b[1]]
        triples = [(a, b, c) for a, b in chains for c in edges if b[2] == c[1]]
        needed = {t[:2] for t in triples} | {t[1:] for t in triples}
        runs = Counter()
        real = graph._run_plan

        def counted(*args):
            runs["plan"] += 1
            return real(*args)

        monkeypatch.setattr(graph, "_run_plan", counted)
        assert check_associativity(ledrappier, sk=sk).ok
        assert runs["plan"] == 2 * len(triples) + len(needed)
        if dead is None:
            assert runs["plan"] == 2 * 256 + 64
        else:
            assert len(needed) < len(chains)

    @pytest.mark.parametrize("cap", [5, 15])
    def test_brute_force_names_the_degree_and_the_cap(self, ledrappier, cap):
        # Degree (1, 1) has 4 * 4 = 16 paths: a cap at 16 passes, and any
        # cap below refuses, one below included.
        assert len(brute_force_paths(ledrappier, (1, 1), Limits(max_paths=16))) == 16
        with pytest.raises(SizeLimit) as err:
            brute_force_paths(ledrappier, (1, 1), Limits(max_paths=cap))
        assert str(err.value) == (
            f"brute force: paths of degree (1, 1) exceed the path cap of {cap}"
        )

    def test_square_pairs_meet_four_partners(self, square, square_sk):
        # The square tile shares a diagonal cell between the two extreme
        # windows of a degree-(1,1) path, so only compatible pairs are
        # joined; the chain-count identity still holds.
        result = squares_match_the_twin(square_sk)
        assert result.ok
        assert result.detail.endswith("; each vertex meets 4 of 8 partners")

    @given(small_data())
    @settings(max_examples=15, deadline=None)
    def test_commuting_squares_hold_generally(self, bd):
        assert squares_match_the_twin(build_skeleton(bd)).ok

    @pytest.mark.parametrize("factory", [staircase_data, tall_staircase_data])
    def test_staircase_axiom_suites(self, factory):
        # Wide and tall staircases stress the non-rectangular fill regions
        # in both sweep directions.
        bd = factory()
        sk = build_skeleton(bd)
        assert check_commuting_squares(bd, sk).ok
        assert check_unique_factorisation(bd, (1, 1), sk=sk).ok
        assert check_associativity(bd, sk=sk).ok

    @given(small_data(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    @settings(max_examples=15, deadline=None)
    def test_slice_recompose_round_trip(self, bd, d):
        # Every split of every path recomposes to itself.
        sk = build_skeleton(bd)
        for lam in enumerate_paths(bd, sk.vertices[-1], d, skeleton=sk):
            for m in box((0, 0), d):
                mu = factorize(lam, (0, 0), m)
                nu = factorize(lam, m, d)
                assert compose(bd, mu, nu).labels == lam.labels


def test_translate_union_matches_path_domain(ledrappier, ledrappier_sk):
    lam = all_paths(ledrappier, (2, 2), skeleton=ledrappier_sk)[0]
    assert frozenset(lam.as_dict()) == translate_union(ledrappier.tile, (2, 2)).points


# -- the slow definitional twin of the planned path core ----------------------
#
# Dict-based composition, slicing, windows and enumeration, written straight
# from the definitions: every call rebuilds its labelling and the translate
# union.  The library composes from cached per-(tile, degree) layouts and fill
# plans; it must give the same labels and raise the same errors.


def twin_window(lam, m):
    d = lam.as_dict()
    return vertex_from_labels(lam.tile, {t: d[p_add(t, m)] for t in lam.tile.points})


def twin_compose(bd, mu, nu):
    tile = bd.tile
    if twin_window(mu, mu.degree) != twin_window(nu, (0, 0)):
        raise SourceRangeMismatch(
            "cannot compose: source window of the first path differs from "
            "the range window of the second"
        )
    dmu, dnu = mu.degree, nu.degree
    total = p_add(dmu, dnu)
    labels = mu.as_dict()
    for p, s in nu.labels:
        q = p_add(p, dmu)
        if labels.get(q, s) != s:
            raise InvariantViolation(
                f"operands disagree at {q} although their windows match"
            )
        labels[q] = s
    if bd.degenerate:
        for cell in box((0, 0), total):
            labels.setdefault(cell, bd.distinguished)
        return Path.make(tile, total, labels)

    def fill(cell, base, forward):
        missing = tile.translate(base) - frozenset(labels) - {cell}
        if missing:
            raise InvariantViolation(
                f"cannot fill {cell}: window at {base} is missing {sorted(missing)}"
            )
        pattern = tuple(labels[p_add(t, base)] for t in tile.sorted_reduced)
        if forward:
            labels[cell] = bd.f(pattern, labels[p_add(base, tile.corner_ul)])
        else:
            labels[cell] = bd.f_inv(pattern, labels[p_add(base, tile.corner_br)])

    c1, c2 = tile.c1, tile.c2
    for x in range(c1 + dmu[0] + 1, c1 + total[0] + 1):
        for y in range(dmu[1] - 1, -1, -1):
            fill((x, y), (x - c1, y), True)
    for y in range(c2 + dmu[1] + 1, c2 + total[1] + 1):
        for x in range(dmu[0] - 1, -1, -1):
            fill((x, y), (x, y - c2), False)
    if frozenset(labels) != translate_union(tile, total).points:
        raise InvariantViolation("corner filling did not produce the full translate union")
    return Path.make(tile, total, labels)


def twin_factorize(lam, m, n):
    if not (p_leq((0, 0), m) and p_leq(m, n) and p_leq(n, lam.degree)):
        raise OutOfRange(f"slice ({m}, {n}) is not within degree {lam.degree}")
    d = lam.as_dict()
    sub = (n[0] - m[0], n[1] - m[1])
    cells = translate_union(lam.tile, sub).points
    return Path.make(lam.tile, sub, {i: d[p_add(i, m)] for i in cells})


def twin_enumerate(bd, v, n, sk):
    if bd.degenerate:
        return [Path.make(bd.tile, n, {c: bd.distinguished for c in box((0, 0), n)})]
    paths = [Path.from_vertex(bd.tile, v)]
    for colour in ("blue",) * n[0] + ("red",) * n[1]:
        nxt = []
        for lam in paths:
            src = sk.index[twin_window(lam, lam.degree)]
            for u in sk.out_neighbours(colour, src):
                nxt.append(twin_compose(bd, lam, sk.edge_path(colour, src, u)))
        paths = nxt
    return paths


def twin_all_paths(bd, n, sk, limits, strict):
    """``all_paths`` as first written: its own cap check over every range
    vertex, then one ``enumerate_paths`` walk per vertex."""
    if path_count(bd, n) * len(sk.vertices) > limits.max_paths:
        raise SizeLimit(
            f"{path_count(bd, n) * len(sk.vertices)} paths of degree {n} "
            f"would exceed the cap of {limits.max_paths}"
        )
    out = []
    for v in sk.vertices:
        out.extend(enumerate_paths(bd, v, n, skeleton=sk, limits=limits, strict=strict))
    return out


def twin_chain_count(sk, v, n):
    """The number of edge chains from ``v``: n1 blue steps, then n2 red."""
    ends = [sk.index[v]]
    for colour in ("blue",) * n[0] + ("red",) * n[1]:
        ends = [u for w in ends for u in sk.out_neighbours(colour, w)]
    return len(ends)


def twin_brute_force_paths(bd, n, limits):
    """The window-filter backtracker as first written: one recursion level
    per cell of ``T(n)``, symbols tried in alphabet order."""
    tile = bd.tile
    cells = translate_union(tile, n).sorted_points
    last_cell_windows = {}
    for k in box((0, 0), n):
        last_cell_windows.setdefault(p_add(tile.sorted_points[-1], k), []).append(k)
    out, labels = [], {}

    def rec(i):
        if i == len(cells):
            out.append(Path.make(tile, n, labels))
            if len(out) > limits.max_paths:
                raise SizeLimit(
                    f"brute force: paths of degree {n} exceed the path cap of "
                    f"{limits.max_paths}"
                )
            return
        for s in bd.alphabet.symbols:
            labels[cells[i]] = s
            if bd.bad_window(labels, last_cell_windows.get(cells[i], ())) is None:
                rec(i + 1)
        del labels[cells[i]]

    rec(0)
    return out


def outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as err:  # the twin and the library must fail alike
        return type(err), str(err)


def corrupt(bd, how):
    """The same data with one table row broken, or its last symbol dropped
    from the alphabet, as ``how`` says; built without validation."""
    if how is None or bd.degenerate:
        return bd
    table, inv = dict(bd.bijections), dict(bd.inverses)
    pat = sorted(table)[-1]
    if how == "non-bijective":
        table[pat] = inv[pat] = (bd.alphabet.symbols[0],) * len(bd.alphabet)
    elif how == "missing-pattern":
        del table[pat], inv[pat]
    alphabet = bd.alphabet
    if how == "unknown-symbol":
        # The paths keep reading the last symbol; the data no longer knows it.
        alphabet = Alphabet(alphabet.symbols[:-1])
    return BasicData(bd.tile, alphabet, table, inv, bd.distinguished)


ONE_CELL = validate_basic_data(parse_tile([(0, 0)]), ["0", "1"], None, "1")


@st.composite
def core_cases(draw):
    """Data, a range vertex, a total degree up to (2, 2), a split of it, and
    a table corruption applied only when composing."""
    bd = draw(
        st.one_of(
            small_data(),
            small_data(("0", "1", "2")),
            st.sampled_from([staircase_data(), tall_staircase_data(), ONE_CELL]),
        )
    )
    d = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    m = draw(st.tuples(st.integers(0, d[0]), st.integers(0, d[1])))
    how = draw(st.sampled_from([None, "non-bijective", "missing-pattern", "unknown-symbol"]))
    return bd, draw(st.integers(0, 63)), d, m, how


class TestPlannedCoreAgainstTwin:
    @given(core_cases())
    @settings(max_examples=40, deadline=None)
    @example((ONE_CELL, 0, (2, 2), (1, 1), None))
    @example((tall_staircase_data(), 3, (2, 2), (1, 1), "unknown-symbol"))
    @example((staircase_data(), 5, (2, 1), (1, 1), "missing-pattern"))
    def test_compose_slices_and_windows_match_the_twin(self, case):
        bd, vi, d, m, how = case
        sk = build_skeleton(bd)
        bad = corrupt(bd, how)
        v = sk.vertices[vi % len(sk.vertices)]
        dnu = (d[0] - m[0], d[1] - m[1])
        nus = all_paths(bd, dnu, skeleton=sk)
        composites = []
        for mu in enumerate_paths(bd, v, m, skeleton=sk):
            matched = [nu for nu in nus if nu.range_vertex == mu.source_vertex]
            mismatched = [nu for nu in nus if nu.range_vertex != mu.source_vertex]
            for nu in matched + mismatched[:2]:
                got = outcome(compose, bad, mu, nu)
                assert got == outcome(twin_compose, bad, mu, nu)
                composites.append(got)
        # Every window and slice of the first composite, and slices that
        # leave its degree.
        for lam in [c for c in composites if isinstance(c, Path)][:1]:
            for a in box((0, 0), d):
                assert lam.window(a) == twin_window(lam, a)
                for b in box(a, d):
                    assert factorize(lam, a, b) == twin_factorize(lam, a, b)
            for a, b in (((0, 0), (d[0] + 1, d[1])), (d, (0, 0)), ((-1, 0), d)):
                assert outcome(factorize, lam, a, b) == outcome(twin_factorize, lam, a, b)

    @given(core_cases())
    @settings(max_examples=30, deadline=None)
    @example((corrupted_ledrappier_data(), 1, (2, 2), (0, 0), None))
    def test_enumeration_matches_the_twin(self, case):
        # The skeleton of the valid data, walked under the corrupted tables.
        bd, vi, d, _, how = case
        sk = build_skeleton(bd, check=False)
        bad = corrupt(bd, how)
        v = sk.vertices[vi % len(sk.vertices)]
        got = outcome(enumerate_paths, bad, v, d, sk, Limits(), False)
        assert got == outcome(twin_enumerate, bad, v, d, sk)
        # Strict: the chains are counted before anything is composed, so a
        # count mismatch (a dropped symbol shrinks the expected count) wins
        # over a compose error.
        want = path_count(bad, d)
        if twin_chain_count(sk, v, d) != want:
            got = (
                InvariantViolation,
                f"enumerated {twin_chain_count(sk, v, d)} paths of degree {d}, "
                f"expected {want}",
            )
        assert outcome(enumerate_paths, bad, v, d, sk) == got

    @given(core_cases(), st.integers(1, 300), st.booleans())
    @settings(max_examples=40, deadline=None)
    @example((ONE_CELL, 0, (2, 2), (0, 0), None), 1, True)
    @example((corrupted_ledrappier_data(), 0, (1, 1), (0, 0), None), 300, True)
    @example((ledrappier_data(), 0, (2, 2), (0, 0), "unknown-symbol"), 300, True)
    @example((staircase_data(), 0, (1, 1), (0, 0), "missing-pattern"), 300, False)
    def test_all_paths_matches_the_per_vertex_twin(self, case, cap, strict):
        # One walk over every range vertex: the same paths in the same order,
        # or the same refusal, as a cap check and then a walk per vertex.
        bd, _, d, _, how = case
        sk = build_skeleton(bd, check=False)
        bad, limits = corrupt(bd, how), Limits(max_paths=cap)
        assert outcome(all_paths, bad, d, sk, limits, strict) == outcome(
            twin_all_paths, bad, d, sk, limits, strict
        )

    @pytest.mark.parametrize("drop, error", [(0, InvariantViolation), (4, MissingPattern)])
    def test_all_paths_counts_each_root_just_before_its_walk(self, drop, error):
        # Without blue edge 0, (0, 0), root 0's count fails first.  Without
        # edge 4, (2, 2), root 1 fails to compose before root 2 is counted.
        bd = ledrappier_data()
        sk = build_skeleton(bd)
        broken = Skeleton(bd, sk.vertices, sk.blue[:drop] + sk.blue[drop + 1:], sk.red, sk.index)
        bad = corrupt(bd, "missing-pattern")
        got = outcome(all_paths, bad, (1, 1), broken, Limits(), True)
        assert got[0] is error
        assert got == outcome(twin_all_paths, bad, (1, 1), broken, Limits(), True)

    def test_all_paths_derives_each_edge_path_once(self, rem3, edge_derivations):
        # A fresh skeleton: edge symbols stay cached on it after the call.
        sk = build_skeleton(rem3)
        calls = edge_derivations
        paths = all_paths(rem3, (2, 2), skeleton=sk, strict=False)
        assert len(paths) == path_count(rem3, (2, 2)) * len(sk.vertices)
        assert len(calls) == len(set(calls)) == len(sk.blue) + len(sk.red) == 48

    @given(core_cases(), st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    @example((ledrappier_data(), 0, (2, 2), (0, 0), None), 1024)
    @example((staircase_data(), 0, (1, 1), (0, 0), "missing-pattern"), 300)
    def test_brute_force_matches_the_recursive_twin(self, case, cap):
        # Same paths in the same order, and the same refusal one over the cap.
        bd, _, d, _, how = case
        bad, limits = corrupt(bd, how), Limits(max_paths=cap)
        assert outcome(brute_force_paths, bad, d, limits) == outcome(
            twin_brute_force_paths, bad, d, limits
        )

    def test_malformed_operands_are_rejected(self, ledrappier, ledrappier_sk):
        mu = ledrappier_sk.edge_path("blue", 0, 1)
        nu = ledrappier_sk.edge_path("red", 1, 3)
        for bad in (
            Path(mu.tile, mu.degree, mu.labels[:-1]),
            Path(mu.tile, mu.degree, mu.labels[::-1]),
            Path(mu.tile, (2, 0), mu.labels),
        ):
            with pytest.raises(InvariantViolation):
                compose(ledrappier, bad, nu)
            with pytest.raises(InvariantViolation):
                factorize(bad, (0, 0), (0, 0))


# -- the slow definitional twin of the window-admissibility rule ---------------
#
# Every window is packaged as a Vertex and tested by the vertex rule as first
# written, through the public bijection lookup.  The library reads each
# window's pattern, top and corner straight from the labelling.


def twin_is_vertex(bd, v):
    if bd.degenerate:
        return v.labels == (((0, 0), bd.distinguished),)
    try:
        return v.corner == bd.f(v.pattern, v.top)
    except (MissingPattern, UnknownSymbol):
        return False


def twin_bad_window(bd, labels):
    """The first contained offset whose window is no vertex, or None."""
    tile = bd.tile
    for k in contained_translates(tile, frozenset(labels)):
        v = vertex_from_labels(tile, {t: labels[p_add(t, k)] for t in tile.points})
        assert bd.is_vertex(v) == twin_is_vertex(bd, v)
        if not twin_is_vertex(bd, v):
            return k
    return None


def twin_config_to_path(bd, labels, n):
    """config_to_path on an unshifted labelling of T(n)."""
    k = twin_bad_window(bd, labels)
    if k is not None:
        raise NotAdmissible(f"the window at offset {k} is not a vertex")
    return Path.make(bd.tile, n, labels)


def twin_fill_corner(bd, labels, n, forward):
    """fill_corner_br (forward) or fill_corner_ul on a labelling that
    covers both support windows."""
    tile = bd.tile
    if bd.degenerate:
        raise ValidationError("corner filling needs a nondegenerate tile")
    k = twin_bad_window(bd, labels)
    if k is not None:
        raise InconsistentInput(f"the window at offset {k} is not a vertex of the data")
    base = p_add(n, (1, -1)) if forward else n
    target = p_add(base, tile.corner_br if forward else tile.corner_ul)
    if target in labels:
        return target, labels[target]
    pattern = tuple(labels[p_add(t, base)] for t in tile.sorted_reduced)
    if forward:
        return target, bd.f(pattern, labels[p_add(base, tile.corner_ul)])
    return target, bd.f_inv(pattern, labels[p_add(base, tile.corner_br)])


@st.composite
def window_cases(draw):
    """A path of degree up to (2, 2) under possibly corrupted tables, with
    one cell possibly relabelled, a signed shift, and cells to drop."""
    bd = draw(
        st.one_of(
            small_data(),
            small_data(("0", "1", "2")),
            st.sampled_from([staircase_data(), tall_staircase_data(), ONE_CELL]),
        )
    )
    d = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    sk = build_skeleton(bd)
    v = sk.vertices[draw(st.integers(0, len(sk.vertices) - 1))]
    paths = enumerate_paths(bd, v, d, skeleton=sk)
    labels = paths[draw(st.integers(0, len(paths) - 1))].as_dict()
    cells = sorted(labels)
    if draw(st.booleans()):
        labels[draw(st.sampled_from(cells))] = draw(st.sampled_from(bd.alphabet.symbols))
    how = draw(st.sampled_from([None, "non-bijective", "missing-pattern", "unknown-symbol"]))
    shift = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    drop = draw(st.sets(st.sampled_from(cells), max_size=3))
    return corrupt(bd, how), d, labels, shift, drop


class TestBadWindowAgainstTwin:
    @given(window_cases())
    @settings(max_examples=60, deadline=None)
    @example((ONE_CELL, (1, 1), {(0, 0): "1", (0, 1): "0", (1, 0): "1", (1, 1): "1"},
              (-2, 1), set()))
    @example((corrupt(staircase_data(), "missing-pattern"), (1, 1),
              enumerate_paths(staircase_data(), build_skeleton(staircase_data()).vertices[-1],
                              (1, 1))[0].as_dict(), (0, -3), set()))
    @example((corrupt(ledrappier_data(), "unknown-symbol"), (2, 1),
              {c: "1" for c in translate_union(TRIPOD, (2, 1)).points}, (3, -1), set()))
    def test_admissibility_matches_the_twin(self, case):
        bd, d, labels, shift, drop = case
        moved = {p_add(p, shift): s for p, s in labels.items()}
        config = WindowConfig.make(moved)
        assert window_admissible(bd, config) == (twin_bad_window(bd, moved) is None)
        kept = {p: s for p, s in moved.items() if p_add(p, (-shift[0], -shift[1])) not in drop}
        assert window_admissible(bd, WindowConfig.make(kept)) == (
            twin_bad_window(bd, kept) is None
        )
        assert outcome(config_to_path, bd, config) == outcome(
            twin_config_to_path, bd, labels, d
        )
        # Fill each corner the labelling supports, with the target present
        # and with it removed.
        for n in box((0, 1), (d[0] - 1, d[1])):
            for forward, fill in ((True, fill_corner_br), (False, fill_corner_ul)):
                base = p_add(n, (1, -1)) if forward else n
                corner = bd.tile.corner_br if forward else bd.tile.corner_ul
                without = {p: s for p, s in labels.items() if p != p_add(base, corner)}
                for given_labels in (labels, without):
                    assert outcome(fill, bd, given_labels, n) == outcome(
                        twin_fill_corner, bd, given_labels, n, forward
                    )


# -- the dense-matrix twin of the commuting-squares check ---------------------


def twin_commuting_squares(bd, sk):
    """The check as first written: the dense products ``B @ R`` and ``R @ B``
    of the skeleton's adjacency matrices."""
    import numpy as np

    b, r = sk.matrix("blue"), sk.matrix("red")
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
    want = path_count(bd, (1, 1))
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


def rewired(sk, blue, red):
    """``sk`` with the given edge sets, built without any check."""
    return Skeleton(
        sk.basic_data, sk.vertices, tuple(sorted(blue)), tuple(sorted(red)), sk.index
    )


def squares_match_the_twin(sk):
    bd = sk.basic_data
    fast, slow = check_commuting_squares(bd, sk), twin_commuting_squares(bd, sk)
    assert (fast.ok, fast.detail) == (slow.ok, slow.detail)
    assert fast.counterexample == slow.counterexample
    return fast


# Blue equal to red: B R == R B, so only the later branches can fail.  Vertex
# 1 reaches 0 through both 2 and 3, while vertex 0's row is one short.
TWO_CHAINS = {(0, 1), (1, 2), (1, 3), (2, 0), (3, 0), (2, 1)}
# Blue equal to red, every pair joined at most once, row sums 4, 4, 2, 0.
SHORT_ROW = {(0, 0), (0, 2), (0, 3), (1, 0), (1, 2), (2, 1)}
LEDRAPPIER_PAIRS = list(itertools.product(range(4), repeat=2))


class TestCommutingSquaresAgainstTwin:
    @pytest.mark.parametrize(
        "blue,red,detail",
        [
            # Without the blue edge 3 -> 0 the first unequal pair is (1, 0):
            # vertex 1's red edge to 3 no longer continues in blue to 0.
            (
                "drop-3-0",
                None,
                "1 blue-red but 0 red-blue chains from vertex 1 to 0",
            ),
            (TWO_CHAINS, TWO_CHAINS, "2 chains from vertex 1 to 0, expected at most 1"),
            (SHORT_ROW, SHORT_ROW, "vertex 2 starts 2 squares, expected 4"),
        ],
        ids=["blue-red-differs", "two-chains", "row-sum"],
    )
    def test_failure_branches(self, ledrappier_sk, blue, red, detail):
        sk = ledrappier_sk
        if blue == "drop-3-0":
            blue, red = set(sk.blue) - {(3, 0)}, sk.red
        result = squares_match_the_twin(rewired(sk, blue, red))
        assert not result.ok
        assert result.detail == detail

    @given(
        st.sets(st.sampled_from(LEDRAPPIER_PAIRS)),
        st.one_of(st.none(), st.sets(st.sampled_from(LEDRAPPIER_PAIRS))),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_rewiring(self, ledrappier_sk, blue, red):
        # ``None`` copies blue into red, which keeps the first branch quiet.
        red = blue if red is None else red
        squares_match_the_twin(rewired(ledrappier_sk, blue, red))

    def test_256_vertex_modular_rule(self):
        bd = import_prw(modular_rule([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]))
        assert squares_match_the_twin(build_skeleton(bd)).ok


def explicit_chains(sk, starts, word):
    """Every edge chain as its vertex list: ``starts[v]`` copies of ``[v]``,
    then one edge per colour of ``word`` (``("blue", "red")``: either)."""
    edges = {"blue": sk.blue, "red": sk.red, ("blue", "red"): sk.blue + sk.red}
    chains = [[v] for v, count in starts.items() for _ in range(count)]
    for colour in word:
        chains = [ch + [u] for ch in chains for w, u in edges[colour] if w == ch[-1]]
    return chains


class TestCountChainsAgainstChainLists:
    @given(
        st.sets(st.sampled_from(LEDRAPPIER_PAIRS)),
        st.sets(st.sampled_from(LEDRAPPIER_PAIRS)),
        st.dictionaries(st.integers(0, 3), st.integers(1, 3), min_size=1),
        st.lists(st.sampled_from(["blue", "red", ("blue", "red")]), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_rewired_skeletons(self, ledrappier_sk, blue, red, starts, word):
        sk = rewired(ledrappier_sk, blue, red)
        got = _count_chains(starts, [sk._out[c] for c in word])
        want = Counter(ch[-1] for ch in explicit_chains(sk, starts, word))
        assert got == dict(want)


def test_only_the_matrix_imports_numpy(square_sk):
    # Importing the CLI loads every module; numpy must stay out of it.
    probe = "import sys, tilegraphs.cli; print('numpy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    for colour in ("blue", "red"):
        m = square_sk.matrix(colour)
        assert m.dtype.name == "int64" and m.shape == (8, 8)
        ones = [(int(v), int(u)) for v, u in zip(*m.nonzero())]
        assert ones == list(square_sk.edges(colour)) and m.sum() == len(ones)


# -- the Path-based twins of the unique-factorisation and associativity checks
#
# The checks as first written: every path is a ``Path``, sliced by
# ``factorize``, joined by the public ``compose`` and bucketed by its range
# ``Vertex``.  The library runs the same loops over symbol tuples and the
# cached compose plans, and must return the same results.


def split_count(bd, degree, vertices):
    """The path splits unique factorisation composes, summed degree by
    degree: ``(d1 + 1)(d2 + 1)`` splits of each of the degree's paths."""
    return sum(
        (d[0] + 1) * (d[1] + 1) * vertices * path_count(bd, d)
        for d in box((0, 0), degree)
    )


class TestSplitCap:
    @pytest.mark.parametrize(
        "name", ["ledrappier", "square", "rem3", "flat", "one-cell"]
    )
    def test_cap_at_the_split_count(self, name, request):
        # The check's cap is the direct sum: every cap from the count up
        # passes, every cap below it refuses (each one while the count is
        # small, so a cap equal to a partial sum is tried too).
        bd = ONE_CELL if name == "one-cell" else request.getfixturevalue(name)
        vertices = bd.vertex_count()
        for degree in box((0, 0), (3, 3)):
            want = split_count(bd, degree, vertices)
            _check_split_count(bd, degree, vertices, Limits(max_paths=want))
            for cap in range(1, want) if want <= 3000 else [want - 1]:
                with pytest.raises(SizeLimit) as err:
                    _check_split_count(bd, degree, vertices, Limits(max_paths=cap))
            if want > 1:
                assert str(err.value) == (
                    f"unique factorisation: the path splits of degrees up to "
                    f"{degree} exceed the path cap of {want - 1}"
                )

    @pytest.mark.parametrize(
        "name,degree,count",
        [
            ("ledrappier", (2, 2), 1_156),
            ("ledrappier", (4, 4), 66_564),
            ("rem3", (2, 2), 7_752),
            ("rem3", (3, 3), 122_696),
            ("rem3", (4, 4), 1_643_976),
        ],
    )
    def test_split_counts_of_the_bundled_graphs(self, name, degree, count, request):
        bd = request.getfixturevalue(name)
        assert split_count(bd, degree, bd.vertex_count()) == count
        if (name, degree) == ("rem3", (2, 2)):
            # The default degree's largest count, far within the default cap.
            for other in ("ledrappier", "square", "rem3", "flat"):
                bd = request.getfixturevalue(other)
                assert split_count(bd, degree, bd.vertex_count()) <= count


def twin_unique_factorisation(bd, degree, sk=None, limits=Limits()):
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        if split_count(bd, degree, len(sk.vertices)) > limits.max_paths:
            raise SizeLimit(
                f"unique factorisation: the path splits of degrees up to {degree} "
                f"exceed the path cap of {limits.max_paths}"
            )
        enumerated = {}
        for d in box((0, 0), degree):
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
            by_range = {}
            for nu in chained:
                by_range.setdefault(nu.range_vertex, []).append(nu)
            enumerated[d] = chained, by_range
            for m in box((0, 0), d):
                n = (d[0] - m[0], d[1] - m[1])
                for lam in brute:
                    mu, nu = factorize(lam, (0, 0), m), factorize(lam, m, d)
                    if compose(bd, mu, nu).labels != lam.labels:
                        return CheckResult(
                            "unique-factorisation",
                            False,
                            f"slice-and-compose failed at degree {d}, split {m}",
                            counterexample=lam,
                        )
                by_range = enumerated[n][1]
                seen = set()
                for mu in enumerated[m][0]:
                    for nu in by_range.get(mu.source_vertex, ()):
                        lam = compose(bd, mu, nu)
                        if lam.labels in seen:
                            return CheckResult(
                                "unique-factorisation",
                                False,
                                f"two ({m}, {n}) factorisations of one path",
                                counterexample=lam,
                            )
                        seen.add(lam.labels)
                if seen != brute_set:
                    return CheckResult(
                        "unique-factorisation",
                        False,
                        f"composable ({m}, {n}) pairs do not cover degree {d}",
                    )
    except SizeLimit:
        raise
    except TileGraphError as err:
        return CheckResult(
            "unique-factorisation", False, f"{err.code}: {err}", counterexample=err
        )
    return CheckResult(
        "unique-factorisation",
        True,
        f"all splits of all paths of degree <= {degree} factor uniquely",
    )


def twin_associativity(bd, sk=None, limits=Limits()):
    """Every triple composed four times, with no reuse; the triple count
    and its cap come from an edge-list count."""
    try:
        sk = sk if sk is not None else build_skeleton(bd, limits, check=False)
        edges = sk.blue + sk.red
        out_degree = Counter(v for v, _ in edges)
        count = sum(out_degree[x] for _, w in edges for w2, x in edges if w2 == w)
        if count > limits.max_paths:
            raise SizeLimit(
                f"associativity: {count} composable edge triples exceed the "
                f"path cap of {limits.max_paths}"
            )
        vertices = range(len(sk.vertices))
        out = [
            [
                (u, sk.edge_path(c, v, u))
                for c in ("blue", "red")
                for u in sk.out_neighbours(c, v)
            ]
            for v in vertices
        ]
        for v in vertices:
            for w, mu in out[v]:
                for x, nu in out[w]:
                    for _, rho in out[x]:
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
        raise
    except TileGraphError as err:
        return CheckResult(
            "associativity", False, f"{err.code}: {err}", counterexample=err
        )
    return CheckResult(
        "associativity", True, f"all {count} composable edge triples agree"
    )


def result_key(result):
    """A check's outcome with any carried error reduced to type and message."""
    if isinstance(result, tuple):  # the outcome of a raising call
        return result
    cx = result.counterexample
    if isinstance(cx, Exception):
        cx = type(cx), str(cx)
    return result.name, result.ok, result.detail, cx


def rewire(sk, how, k):
    """``sk`` with an edge added at vertex ``k`` (the first missing pair, in
    blue if any is missing), with every out-edge of ``k`` dropped, or with
    ``k`` listed a second time, without edges: its paths are then
    enumerated twice."""
    if how == "repeated-vertex":
        vertices = sk.vertices + sk.vertices[k : k + 1]
        return Skeleton(sk.basic_data, vertices, sk.blue, sk.red, sk.index)
    blue, red = set(sk.blue), set(sk.red)
    if how == "extra-edge":
        for edges in (blue, red):
            missing = [(k, u) for u in range(len(sk.vertices)) if (k, u) not in edges]
            if missing:
                edges.add(missing[0])
                break
    elif how == "dead-end":
        blue = {e for e in blue if e[0] != k}
        red = {e for e in red if e[0] != k}
    return rewired(sk, blue, red)


FLAT = validate_basic_data(
    parse_tile([(0, 0), (1, 0), (2, 0)]), ["0", "1"], {"0": ["0", "1"], "1": ["1", "0"]}
)


@st.composite
def axiom_cases(draw):
    """Data (possibly corrupted), a check degree up to (2, 2), and the
    skeleton of the valid data, possibly rewired, or ``None`` for the
    check to build its own from the data it is given."""
    bd = draw(
        st.one_of(
            small_data(),
            small_data(("0", "1", "2")),
            st.sampled_from(
                [staircase_data(), tall_staircase_data(), ONE_CELL, FLAT,
                 corrupted_ledrappier_data()]
            ),
        )
    )
    d = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    how = draw(
        st.one_of(
            st.none(), st.sampled_from(["non-bijective", "missing-pattern", "unknown-symbol"])
        )
    )
    sk = build_skeleton(bd, check=False)
    wiring = draw(
        st.sampled_from([None, "extra-edge", "dead-end", "repeated-vertex", "sparse", "own"])
    )
    if wiring == "sparse":
        # A few of the edges, so most vertices have no out-edges.
        nb = len(sk.blue)
        keep = draw(st.sets(st.integers(0, nb + len(sk.red) - 1), max_size=6))
        sk = rewired(
            sk, {sk.blue[i] for i in keep if i < nb}, {sk.red[i - nb] for i in keep if i >= nb}
        )
    k = draw(st.integers(0, 63)) % len(sk.vertices)
    return corrupt(bd, how), d, None if wiring == "own" else rewire(sk, wiring, k)


class TestAxiomChecksAgainstTwin:
    @given(axiom_cases())
    @settings(max_examples=60, deadline=None)
    # Only the chain 0 -> 1 -> 0 meets the missing pattern, and no edge
    # leaves vertex 0: the twin never composes that chain.
    @example((corrupt(ledrappier_data(), "missing-pattern"), (1, 1),
              rewired(build_skeleton(ledrappier_data()), {(0, 1)}, {(0, 1), (2, 0), (3, 3)})))
    @example((corrupted_ledrappier_data(), (2, 2), None))
    def test_checks_match_the_twins(self, case):
        bd, d, sk = case
        assert result_key(outcome(check_unique_factorisation, bd, d, sk)) == result_key(
            outcome(twin_unique_factorisation, bd, d, sk)
        )
        assert result_key(outcome(check_associativity, bd, sk)) == result_key(
            outcome(twin_associativity, bd, sk)
        )
