import itertools
import json
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
    simplicity_report,
    to_dot,
    translate_union,
    validate_basic_data,
    validate_prw,
    window_admissible,
)
from tilegraphs.checks import (
    CheckResult,
    _check_split_count,
    _order_gap,
    brute_force_paths,
    check_associativity,
    check_commuting_squares,
    check_degree_counts,
    check_unique_factorisation,
    run_axiom_suite,
)
from tilegraphs.data import Alphabet, BasicData, vertex_from_labels
from tilegraphs.graph import (
    _chain_step,
    _chain_walk,
    _checked_path_count,
    _count_chains,
    _geometry,
    _join,
    _layout,
    _pairwise_edges,
    _path,
    _rows,
)
from tilegraphs.lattice import box, contained_translates, p_add, p_leq
from tilegraphs.shifts import WindowConfig, entropy_sequence
from tilegraphs.limits import Limits
from tilegraphs.serialize import basic_data_from_dict

from conftest import DATA_DIR, relabel_data, small_data, transpose_data

ROOT = DATA_DIR.parent
BASIC_DATA_INPUTS = sorted(
    path
    for path in [*DATA_DIR.glob("*.json"), *(ROOT / "perfbench" / "inputs").rglob("*.json")]
    if path.name != "cap1024.json" and "bijections" in json.loads(path.read_text())
)
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
    def test_edge_path_refuses_a_pair_that_is_no_edge(self, ledrappier_sk):
        # Bad input, not an internal fault: a pair off v's red out-list, or
        # an index outside the skeleton, is refused naming the colour and
        # the pair.  Vertex 3 (index -1) has the red edge 3 -> 3.
        for v, u in ((0, 2), (9, 2), (0, 9), (-1, 3)):
            with pytest.raises(ValidationError, match=rf"\({v}, {u}\) is not a red edge"):
                ledrappier_sk.edge_path("red", v, u)

    def test_edge_path_on_an_inconsistent_edge_is_an_invariant(self, ledrappier_sk):
        # An edge the skeleton holds whose overlap disagrees is an internal
        # fault, as before.
        sk = rewired(ledrappier_sk, ledrappier_sk.blue, ledrappier_sk.red + ((0, 2),))
        with pytest.raises(InvariantViolation, match="inconsistent overlap"):
            sk.edge_path("red", 0, 2)

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

    def test_paths_of_another_tile_are_rejected(self, ledrappier, ledrappier_sk, square_sk):
        # The fills are those of the data's tile: an operand on the square's
        # tile is refused in either position, while an equal tile parsed
        # separately composes.
        mu = square_sk.edge_path("blue", 0, 0)
        nu = ledrappier_sk.edge_path("blue", 0, 1)
        for a, b in ((mu, nu), (nu, mu)):
            with pytest.raises(ValidationError, match="the data's tile"):
                compose(ledrappier, a, b)
        red = ledrappier_sk.edge_path("red", 1, 3)
        assert compose(ledrappier_data(), nu, red) == compose(ledrappier, nu, red)

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

    def test_deep_walks_build_no_layout_or_plan_per_step(self, flat):
        # Each walk, on a fresh skeleton, builds the layouts of a few degrees,
        # at (750, 0) as at (1500, 0), though it decides one step geometry
        # per prefix degree: a layout per prefix degree, in a step or in its
        # geometry, would make a walk quadratic in its depth.
        from tilegraphs.graph import _slice

        tripod = validate_basic_data(TRIPOD, ["a"], {"a": ["a"]})
        misses = {}
        for k in (750, 1500):
            for name, bd, walk in (
                ("enumerate", flat, lambda sk: enumerate_paths(flat, sk.vertices[0], (k, 0), sk)),
                ("witness", tripod, lambda sk: periodicity_witness_search(
                    tripod, sk.vertices[0], (1, 0), (0, 0), depth=(k + 1, 0), skeleton=sk
                )),
            ):
                sk = build_skeleton(bd)
                for cache in (_layout, _geometry, _slice):
                    cache.cache_clear()
                walk(sk)
                misses[k, name] = (
                    _layout.cache_info().misses, _geometry.cache_info().misses
                )
        # The layouts: T(0) and T(e1) for the edges, T(k, 0) for the paths,
        # and the witness slices' T(k, 0) besides the tripod's T(k + 1, 0).
        # The geometries: one per blue step, k of them, or k + 1.
        want = {"enumerate": (3, 0), "witness": (4, 1)}
        assert misses == {
            (k, name): (layouts, k + steps)
            for k in (750, 1500) for name, (layouts, steps) in want.items()
        }

    def test_brute_force_backtracks_deeper_than_the_recursion_limit(
        self, flat, flat_sk
    ):
        # 1202 cells: recursing once per cell would pass the recursion limit.
        brute = brute_force_paths(flat, (1200, 0))
        chained = all_paths(flat, (1200, 0), skeleton=flat_sk)
        assert len(brute) == len(flat_sk.vertices)
        assert sorted(p.labels for p in brute) == sorted(p.labels for p in chained)

    @pytest.mark.parametrize("walk", ["enumerate_paths", "all_paths", "brute_force"])
    def test_windows_past_the_path_cap_are_refused_at_once(
        self, flat, flat_sk, walk
    ):
        # One path per range vertex at every blue degree of the flat tile,
        # so the path count never refuses: the windows, (n1 + 1)(n2 + 1),
        # are refused before any region, layout or geometry is built.
        v = flat_sk.vertices[0]
        call = {
            "enumerate_paths": lambda n, lim: enumerate_paths(flat, v, n, flat_sk, lim),
            "all_paths": lambda n, lim: all_paths(flat, n, flat_sk, lim),
            "brute_force": lambda n, lim: brute_force_paths(flat, n, lim),
        }[walk]
        start = time.perf_counter()
        with pytest.raises(SizeLimit) as err:
            call((10**12, 0), Limits())
        assert time.perf_counter() - start < 1
        assert str(err.value) == (
            "the windows of a path of degree (1000000000000, 0) would exceed "
            "the cap of 200000"
        )
        assert len(call((9, 0), Limits(max_paths=10))) >= 1  # 10 windows
        with pytest.raises(SizeLimit) as err:
            call((9, 0), Limits(max_paths=9))
        assert str(err.value) == (
            "the windows of a path of degree (9, 0) would exceed the cap of 9"
        )

    def test_the_path_count_refuses_before_the_windows(
        self, ledrappier, ledrappier_sk
    ):
        # Degree (3, 3): 2 ** 6 paths and 16 windows, both past a cap of 15.
        v, limits = ledrappier_sk.vertices[0], Limits(max_paths=15)
        with pytest.raises(SizeLimit) as err:
            enumerate_paths(ledrappier, v, (3, 3), ledrappier_sk, limits)
        assert str(err.value) == "64 paths of degree (3, 3) would exceed the cap of 15"

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
        # One frontier step per degree past (0, 0), ending at that degree,
        # and one window filter per degree.
        import tilegraphs.checks as checks
        import tilegraphs.graph as graph

        steps = Counter()
        real = graph._chain_step

        def counted(*args):
            batch = real(*args)
            steps[batch[0]] += 1
            return batch

        monkeypatch.setattr(graph, "_chain_step", counted)
        brute = Counter()
        real_brute = checks._window_filter

        def counted_brute(bd, n, *args, **kwargs):
            brute[n] += 1
            return real_brute(bd, n, *args, **kwargs)

        monkeypatch.setattr(checks, "_window_filter", counted_brute)
        assert check_unique_factorisation(ledrappier, (2, 2), sk=ledrappier_sk).ok
        assert brute == Counter(box((0, 0), (2, 2)))
        assert steps == brute - Counter([(0, 0)])

    def test_a_batch_raises_the_error_of_its_first_row_with_a_hole(
        self, ledrappier, ledrappier_sk
    ):
        # Composing degree (0, 2) with (1, 0) fills (2, 1) from the window
        # at (1, 1), then (2, 0) from the one at (1, 0).  Row 1 breaks only
        # the second fill's pattern cell and row 2 the first fill's key
        # cell: the batch meets row 2's hole first, but must raise row 1's
        # error, as a loop over the rows does.
        bd, sk = ledrappier, ledrappier_sk
        geometry = _geometry(bd.tile, (0, 2), (1, 0))
        assert [fill[0] for fill in geometry[1]] == [(2, 1), (2, 0)]
        mu = enumerate_paths(bd, sk.vertices[0], (0, 2), skeleton=sk)[0]
        nu = enumerate_paths(bd, mu.source_vertex, (1, 0), skeleton=sk)[0]
        row = [s for _, s in mu.labels + nu.labels]
        rows = [row, list(row), list(row)]
        slot = _layout(bd.tile, (0, 2)).slot
        rows[1][slot[1, 0]] = "x"
        rows[2][slot[1, 2]] = "y"
        # Through compose, row 2's change is made in nu's range window too.
        mu_x = _path(bd.tile, (0, 2), rows[1][:len(mu.labels)])
        mu_y = _path(bd.tile, (0, 2), rows[2][:len(mu.labels)])
        nu_y = _path(bd.tile, (1, 0), [
            "y" if c == (1, 0) else s for c, s in nu.labels
        ])
        with pytest.raises(MissingPattern, match="'x'"):
            compose(bd, mu_x, nu)
        with pytest.raises(UnknownSymbol, match="'y'"):
            compose(bd, mu_y, nu_y)
        # The operands as columns by cell; the batch reads row k of each.
        columns = [list(c) for c in zip(*rows)]
        left = dict(zip(mu.as_dict(), columns))
        right = dict(zip(nu.as_dict(), columns[len(mu.labels):]))
        out = _join(bd, geometry, left, right, [0, 1, 2], [0, 1, 2])
        cells = _layout(bd.tile, (1, 2)).cells
        assert [None in lam for lam in zip(*map(out.__getitem__, cells))] == [False, True, True]
        batch = _rows(bd, geometry, out)
        assert next(batch) == tuple(s for _, s in compose(bd, mu, nu).labels)
        with pytest.raises(MissingPattern) as err:
            next(batch)
        assert str(err.value) == "no bijection for pattern 'x'"

    @pytest.mark.parametrize("path", BASIC_DATA_INPUTS, ids=lambda path: path.stem)
    def test_associativity_composes_no_row_on_valid_data(self, path, monkeypatch):
        # On valid data the per-tile runner decides the check: no row of the
        # table goes through the composition executor.
        import tilegraphs.checks as checks

        bd = basic_data_from_dict(json.loads(path.read_text()))
        sk = build_skeleton(bd)
        edges = sk.blue + sk.red
        out = Counter(v for v, _ in edges)
        count = sum(out[x] for _, w in edges for w2, x in edges if w2 == w)
        rows = Counter()
        real = checks._join

        def counted(data, geometry, left, right, mus, nus):
            if data is bd:  # the runner joins terms, not the table's rows
                rows["rows"] += len(left[(0, 0)]) if mus is None else len(mus)
            return real(data, geometry, left, right, mus, nus)

        monkeypatch.setattr(checks, "_join", counted)
        result = check_associativity(bd, sk=sk)
        assert (result.ok, result.detail) == (True, f"all {count} composable edge triples agree")
        assert rows["rows"] == 0

    @pytest.mark.parametrize("dead", [None, 3], ids=["ledrappier", "dead-end"])
    def test_associativity_falls_back_to_the_definition(
        self, ledrappier, ledrappier_sk, monkeypatch, dead
    ):
        # Where the per-tile runner refutes the tile, every triple is composed
        # in both orders by compose, and the result is the twin's: 256
        # triples on ledrappier, and 39 with vertex ``dead`` left without
        # out-edges and vertex 0 without in-edges.  That is three composes a
        # triple, and one more for each two-edge chain that has a third edge.
        import tilegraphs.checks as checks

        sk = ledrappier_sk
        if dead is not None:
            sk = rewired(
                sk,
                *({e for e in es if e[0] != dead and e[1] != 0} for es in (sk.blue, sk.red)),
            )
        calls = Counter()
        real = checks.compose

        def counted(bd, mu, nu):
            calls["compose"] += 1
            return real(bd, mu, nu)

        monkeypatch.setattr(checks, "_order_gap", lambda tile: (("blue",) * 3, (0, 0)))
        monkeypatch.setattr(checks, "compose", counted)
        result = check_associativity(ledrappier, sk=sk)
        triples = 256 if dead is None else 39
        assert (result.ok, result.detail) == (True, f"all {triples} composable edge triples agree")
        edges = sk.blue + sk.red
        out = Counter(v for v, _ in edges)
        chains = sum(1 for _, w in edges for w2, x in edges if w2 == w and out[x])
        assert (chains, calls["compose"]) == ((64, 832) if dead is None else (12, 129))
        assert calls["compose"] == 3 * triples + chains
        assert result_key(result) == result_key(twin_associativity(ledrappier, sk=sk))

    @pytest.mark.parametrize("path", BASIC_DATA_INPUTS, ids=lambda path: path.stem)
    def test_unique_factorisation_composes_no_row_on_valid_data(self, path, monkeypatch):
        # On valid data f_inv undoes f and every split's geometry rewrites
        # the path, so slice-and-compose is decided; the cover test is a
        # pair count.  No row goes through the composition executor.
        import tilegraphs.checks as checks

        bd = basic_data_from_dict(json.loads(path.read_text()))
        rows = Counter()
        real = checks._join

        def counted(data, geometry, left, right, mus, nus):
            rows[geometry[2]] += len(left[(0, 0)]) if mus is None else len(mus)
            return real(data, geometry, left, right, mus, nus)

        monkeypatch.setattr(checks, "_join", counted)
        result = check_unique_factorisation(bd, (2, 2))
        assert (result.ok, rows) == (True, Counter())

    def test_unique_factorisation_composes_only_the_slices(
        self, ledrappier, ledrappier_sk, monkeypatch
    ):
        # Where the decision is refuted, each path's slices are composed back
        # as one batch per split, and only they: each path of degree
        # d <= (2, 2) once per split, (d1 + 1)(d2 + 1) |Λ^d| in all, with
        # |Λ^d| = 4 * 2 ** (d1 + d2).  The result is the twin's.
        import tilegraphs.checks as checks

        rows = Counter()
        real = checks._join

        def counted(bd, geometry, left, right, mus, nus):
            rows[geometry[2]] += len(left[(0, 0)]) if mus is None else len(mus)
            return real(bd, geometry, left, right, mus, nus)

        monkeypatch.setattr(checks, "_join", counted)
        want = {d: (d[0] + 1) * (d[1] + 1) * len(brute_force_paths(ledrappier, d))
                for d in box((0, 0), (2, 2))}
        assert sum(want.values()) == 4 * sum((i + 1) * 2**i for i in range(3)) ** 2 == 1156
        with monkeypatch.context() as patch:
            patch.setattr(checks, "_rewrites", lambda tile, geometry, dmu: False)
            result = check_unique_factorisation(ledrappier, (2, 2), sk=ledrappier_sk)
        assert (result.ok, rows) == (True, want)
        twin = twin_unique_factorisation(ledrappier, (2, 2), sk=ledrappier_sk)
        assert result_key(result) == result_key(twin)
        # With f_inv's row for '0' swapped, f_inv no longer undoes f: the
        # table refutes the decision, so each degree's slices are composed
        # until the edge chains, whose backward fills now go astray, leave
        # the brute force at degree (1, 1).
        inverses = {**ledrappier.inverses, ("0",): ledrappier.inverses["0",][::-1]}
        bad = BasicData(ledrappier.tile, ledrappier.alphabet, ledrappier.bijections, inverses)
        rows.clear()
        result = check_unique_factorisation(bad, (2, 2), sk=ledrappier_sk)
        assert result.detail.startswith("edge-chain and window-filter path sets differ at "
                                        "degree (1, 1)")
        assert rows == {d: want[d] for d in [(0, 0), (0, 1), (0, 2), (1, 0)]}
        twin = twin_unique_factorisation(bad, (2, 2), sk=ledrappier_sk)
        assert result_key(result) == result_key(twin)

    @pytest.mark.parametrize("variant", ["hole", "difference"])
    def test_associativity_reports_the_first_bad_triple_in_order(self, ledrappier, variant):
        # From vertex 0 the triples run in out-list order: triple 8 is the
        # first blue-red-blue one and triple 18 a blue-blue-red one.  Without
        # f_inv's row for '1', triple 18 is the first to meet a missing
        # pattern; a check that composed by colour triple, blue-blue-red
        # before blue-red-blue, would report that hole first.
        f, inv = dict(ledrappier.bijections), dict(ledrappier.inverses)
        del inv["1",]
        sk = build_skeleton(ledrappier)
        if variant == "hole":
            # Without f's row for '0' too, triple 8 meets a missing pattern.
            del f["0",]
            want = "MissingPattern: no bijection for pattern '0'"
        else:
            # The red loop at vertex 0 gets a source window that is not
            # vertex 0.  Triple 8, whose nu it is, is the first whose windows
            # disagree, which compose names before it reaches triple 18's
            # hole.
            columns, _, spans = sk._edge_batch("red")
            column, i = columns[0, 2], spans[0][sk.out_neighbours("red", 0).index(0)]
            column[i] = "1" if column[i] == "0" else "0"
            want = (
                "SourceRangeMismatch: cannot compose: source window of the first "
                "path differs from the range window of the second"
            )
        bd = BasicData(ledrappier.tile, ledrappier.alphabet, f, inv)
        result = check_associativity(bd, sk=sk)
        assert (result.ok, result.detail) == (False, want)
        assert result_key(result) == result_key(twin_associativity(bd, sk=sk))
        intact = BasicData(ledrappier.tile, ledrappier.alphabet, ledrappier.bijections, inv)
        assert check_associativity(intact).detail == (
            "MissingPattern: no bijection for pattern '1'"
        )

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

    def test_brute_force_refuses_before_any_layout(self, ledrappier, monkeypatch):
        # Degree (9, 9) has 2 ** 20 paths: refused from the bound, before the
        # filter builds the layout it would run on.
        import tilegraphs.checks as checks

        def no_layout(*args):
            raise AssertionError("layout built before the cap was decided")

        monkeypatch.setattr(checks, "_layout", no_layout)
        with pytest.raises(SizeLimit) as err:
            brute_force_paths(ledrappier, (9, 9))
        assert str(err.value) == (
            "brute force: paths of degree (9, 9) exceed the path cap of 200000"
        )

    @given(
        st.one_of(small_data(), small_data(("0", "1", "2"))),
        st.sampled_from([None, "non-bijective", "missing-pattern", "unknown-symbol"]),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_brute_force_stays_within_its_bound(self, bd, how, n):
        # At most |A| ** (cells of T(n) that are no window's bottom-right
        # corner) paths, and exactly that many on validated data.
        bad = corrupt(bd, how)
        free = len(translate_union(bd.tile, n).points) - (n[0] + 1) * (n[1] + 1)
        bound = len(bad.alphabet) ** free
        got = len(brute_force_paths(bad, n))
        assert got <= bound
        if how is None:
            assert got == bound == bd.vertex_count() * path_count(bd, n)

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
# union.  The library composes from cached per-(tile, degree) layouts and
# geometries; it must give the same labels and raise the same errors.


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


def twin_walk(bd, roots, n, sk, limits, strict):
    """The order twin: the symbols of the degree-``n`` paths from each root
    in turn, in the slot order of ``T(n)``, depth first.  Each node's
    children are composed with ``compose``, one edge path each, in out-list
    order and pushed reversed on an explicit stack.  One cap check covers
    all roots; a root's strict count runs before its first compose."""
    expected = _checked_path_count(bd, n, len(roots), limits)
    sk = sk if sk is not None else build_skeleton(bd, limits)
    colours = ("blue",) * n[0] + ("red",) * n[1]
    for v in roots:
        if v not in sk.index:
            raise ValidationError(f"range vertex {v.labels} is not a skeleton vertex")
        if strict and twin_chain_count(sk, v, n) != expected:
            raise InvariantViolation(
                f"enumerated {twin_chain_count(sk, v, n)} paths of degree {n}, "
                f"expected {expected}"
            )
        stack = [(Path.from_vertex(bd.tile, v), sk.index[v])]
        while stack:
            lam, src = stack.pop()
            i = sum(lam.degree)
            if i == len(colours):
                yield tuple(s for _, s in lam.labels)
                continue
            stack.extend(reversed([
                (compose(bd, lam, sk.edge_path(colours[i], src, u)), u)
                for u in sk.out_neighbours(colours[i], src)
            ]))


def twin_brute_force_paths(bd, n, limits):
    """The window-filter backtracker as first written: one recursion level
    per cell of ``T(n)``, symbols tried in alphabet order, after the
    library's refusals of more windows than the path cap, then of more
    labellings of the cells that are no window's bottom-right corner."""
    if (n[0] + 1) * (n[1] + 1) > limits.max_paths:
        raise SizeLimit(
            f"the windows of a path of degree {n} would exceed the cap of "
            f"{limits.max_paths}"
        )
    tile = bd.tile
    cells = translate_union(tile, n).sorted_points
    if len(bd.alphabet) ** (len(cells) - (n[0] + 1) * (n[1] + 1)) > limits.max_paths:
        raise SizeLimit(
            f"brute force: paths of degree {n} exceed the path cap of "
            f"{limits.max_paths}"
        )
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
        # A fresh skeleton: each colour's edge batch stays on it once built,
        # so rem3's 48 edges are derived in two batches.
        sk = build_skeleton(rem3)
        paths = all_paths(rem3, (2, 2), skeleton=sk, strict=False)
        assert len(paths) == path_count(rem3, (2, 2)) * len(sk.vertices)
        assert len(edge_derivations) == 2
        assert set(edge_derivations) == {(sk, "blue"), (sk, "red")}
        assert len(sk.blue) + len(sk.red) == 48

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


def input_data(name):
    return basic_data_from_dict(json.loads((DATA_DIR / f"{name}.json").read_text()))


def square_over_1_0():
    """The square table read over the alphabet ``1, 0``, whose order is
    not its symbols' string order."""
    rows = {",".join(p): list(row) for p, row in input_data("square").bijections.items()}
    return validate_basic_data(parse_tile([(0, 0), (1, 0), (0, 1), (1, 1)]), ["1", "0"], rows)


# A window's last cell in slot order is its bottom-right corner on the flat
# row, its upper-left one on the tall row, a reduced cell on the square, and
# both corners on the one-cell tile.
FILTER_EDGE_CASES = {
    "one-cell": ONE_CELL,
    "square": input_data("square"),
    "square-over-1-0": square_over_1_0(),
    "flat": input_data("flat"),
    "tall-flat": transpose_data(input_data("flat")),
}


class TestWindowFilterAgainstTwin:
    # At a window's last cell the brute force extends each row by the symbols
    # the vertex keys index under the window's other cells, in alphabet
    # order; the twin tries every symbol and tests the window.  Both must
    # give the same paths in the same order, or the same refusal.

    @pytest.mark.parametrize("how", [None, "unknown-symbol", "missing-pattern"])
    @pytest.mark.parametrize("name", FILTER_EDGE_CASES)
    def test_each_kind_of_last_cell(self, name, how):
        bad = corrupt(FILTER_EDGE_CASES[name], how)
        for d in box((0, 0), (3, 3)):
            got = outcome(brute_force_paths, bad, d, Limits())
            assert got == outcome(twin_brute_force_paths, bad, d, Limits())

    @pytest.mark.parametrize("path", BASIC_DATA_INPUTS, ids=lambda path: path.stem)
    def test_every_input_up_to_degree_3_3(self, path):
        bd = basic_data_from_dict(json.loads(path.read_text()))
        for d in box((0, 0), (3, 3)):
            got = outcome(brute_force_paths, bd, d, Limits())
            assert got == outcome(twin_brute_force_paths, bd, d, Limits())

    def test_a_one_cell_key_reads_its_cell_as_both_corners(self):
        # The one-cell window's vertex key is its one symbol twice, so a key
        # whose corners differ matches no window.  The compiled rules never
        # hold such a key; planted ones must still be read so.
        bd = BasicData(ONE_CELL.tile, ONE_CELL.alphabet, {}, {}, "1")
        vars(bd)["_vertex_keys"] = frozenset({("0", "1"), ("1", "0"), ("1", "1")})
        for d in box((0, 0), (2, 2)):
            got = outcome(brute_force_paths, bd, d, Limits())
            assert got == outcome(twin_brute_force_paths, bd, d, Limits())
            assert [{s for _, s in lam.labels} for lam in got] == [{"1"}]


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
    # The staircase's first (1, 1) path from its last vertex, written out so
    # that collecting this module composes nothing.
    @example((corrupt(staircase_data(), "missing-pattern"), (1, 1),
              {(0, 0): "1", (0, 1): "1", (0, 2): "0", (1, 0): "1", (1, 1): "1", (1, 2): "0",
               (2, 0): "0", (2, 1): "0", (2, 2): "0", (3, 0): "0", (3, 1): "1"},
              (0, -3), set()))
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
# ``Vertex``.  The library runs the same loops over batches of columns by
# cell, composed by ``graph._join``, and must return the same results.


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
        # Every edge path, blue edges first, before any compose.
        paths = {
            (c, v, u): sk.edge_path(c, v, u)
            for c in ("blue", "red")
            for v in vertices
            for u in sk.out_neighbours(c, v)
        }
        out = [[(u, path) for (_, w, u), path in paths.items() if w == v] for v in vertices]
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


TRIPOD3 = validate_basic_data(
    TRIPOD, ["0", "1", "2"], {"0": ["0", "1", "2"], "1": ["1", "2", "0"], "2": ["2", "0", "1"]}
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
    # Ledrappier's skeleton without vertex 0's blue edges, plus the bad blue
    # edge (1, 0) and the bad red edge (0, 2): both read blue first.
    @example((ledrappier_data(), (0, 0), rewired(
        build_skeleton(ledrappier_data()),
        {(1, 0), (1, 2), (1, 3), (2, 2), (2, 3), (3, 0), (3, 1)},
        {(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 0), (2, 1), (3, 2), (3, 3)})))
    # A vertex listed twice (without edges) is two chain rows of one path,
    # so each slice pair still composes back while the (0, 0) pairs outnumber
    # the paths: 12 for 9 on the three-symbol tripod, 7 for 4 on ledrappier.
    # The pairs are then composed, and the duplicate named.
    @example((TRIPOD3, (0, 0), rewire(build_skeleton(TRIPOD3), "repeated-vertex", 4)))
    @example((ledrappier_data(), (1, 1),
              rewire(build_skeleton(ledrappier_data()), "repeated-vertex", 0)))
    def test_checks_match_the_twins(self, case):
        bd, d, sk = case
        assert result_key(outcome(check_unique_factorisation, bd, d, sk)) == result_key(
            outcome(twin_unique_factorisation, bd, d, sk)
        )
        assert result_key(outcome(check_associativity, bd, sk)) == result_key(
            outcome(twin_associativity, bd, sk)
        )


# -- the transposed-table oracle -----------------------------------------------


def column_heights(cells, top=None):
    """Each way to stack ``cells`` cells in columns no taller than ``top``,
    each no taller than the one before: one hereditary tile each."""
    if cells == 0:
        yield ()
    for h in range(min(cells, top or cells), 0, -1):
        for rest in column_heights(cells - h, h):
            yield (h, *rest)


SMALL_TILES = [heights for cells in range(1, 9) for heights in column_heights(cells)]
DEEP_DEGREES = [d for k in (40, 41) for d in ((k, 0), (0, k), (k, 1), (1, k))]


def geometry_tile(case):
    """The tile of an input file, or of a stack of column heights."""
    if isinstance(case, tuple):
        return parse_tile([(x, y) for x, h in enumerate(case) for y in range(h)])
    return basic_data_from_dict(json.loads(case.read_text())).tile


@pytest.mark.parametrize(
    "case", [*BASIC_DATA_INPUTS, *SMALL_TILES],
    ids=lambda case: "-".join(map(str, case)) if isinstance(case, tuple) else case.stem,
)
def test_each_geometry_writes_the_rest_of_its_translate_union(case):
    # The oracle of the composition geometry: for the 66 hereditary tiles of
    # at most 8 cells and the inputs' tiles, composing any degree up to
    # (3, 3) with another one, and a deep strip with one edge either way,
    # moves nu's cells outside T(dmu), runs each fill once its pattern and
    # key cells are written (on the one-cell tile the key is the target),
    # and writes each cell of T(dmu + dnu) outside T(dmu) once.
    tile = geometry_tile(case)
    unions = {}

    def union(n):
        if n not in unions:
            unions[n] = translate_union(tile, n).points
        return unions[n]

    small = box((0, 0), (3, 3))
    deep = [p for d in DEEP_DEGREES for e in ((1, 0), (0, 1)) for p in ((d, e), (e, d))]
    for dmu, dnu in [*itertools.product(small, repeat=2), *deep]:
        moved, fills, total = _geometry(tile, dmu, dnu)
        assert total == p_add(dmu, dnu)
        written = [p for _, p in moved]
        assert not union(dmu) & set(written)
        have = set(union(dmu)) | set(written)
        for target, pattern, key, _ in fills:
            assert len(tile) == 1 or {*pattern, key} <= have
            have.add(target)
            written.append(target)
        assert sorted(written) == sorted(union(total) - union(dmu))


HEREDITARY_TILES = [
    parse_tile([(x, y) for x, h in enumerate(heights) for y in range(h)])
    for cells in range(1, 13) for heights in column_heights(cells)
]


def test_the_two_orders_agree_on_every_tile():
    # The per-tile runner that decides associativity: on every hereditary
    # tile of at most 12 cells (271 of them) and every input's tile, both
    # orders write the same term at every cell for all eight colour triples.
    tiles = [*HEREDITARY_TILES, *map(geometry_tile, BASIC_DATA_INPUTS)]
    assert len(HEREDITARY_TILES) == 271
    assert [tile for tile in tiles if _order_gap(tile) is not None] == []


def reversed_fills(geometry, dmu, dnu):
    return geometry[0], geometry[1][::-1], geometry[2]


def last_fill_dropped(geometry, dmu, dnu):
    return geometry[0], geometry[1][:-1], geometry[2]


def moved_by_dnu(geometry, dmu, dnu):
    return [(c, p_add(c, dnu)) for c, _ in geometry[0]], geometry[1], geometry[2]


def first_fill_flipped(geometry, dmu, dnu):
    fills = [(*fill[:3], not fill[3]) if i == 0 else fill for i, fill in enumerate(geometry[1])]
    return geometry[0], fills, geometry[2]


@pytest.mark.parametrize(
    "broken", [reversed_fills, last_fill_dropped, moved_by_dnu, first_fill_flipped]
)
def test_the_runner_refutes_a_broken_geometry(monkeypatch, broken):
    # With any of four faults in the composition geometry, the runner finds
    # the orders apart, or cannot run them (a step reads a cell no step
    # wrote), on every tile of 2 to 8 cells: its agreement is no vacuous pass.
    import tilegraphs.checks as checks

    monkeypatch.setattr(checks, "_geometry", lambda t, a, b: broken(_geometry(t, a, b), a, b))

    def refuted(tile):
        try:
            return _order_gap(tile) is not None
        except KeyError:
            return True

    tiles = [tile for tile in HEREDITARY_TILES if 2 <= len(tile) <= 8]
    assert len(tiles) == 65
    assert all(map(refuted, tiles))


@pytest.mark.parametrize("path", BASIC_DATA_INPUTS, ids=lambda path: path.stem)
def test_the_chain_batch_is_the_walk(path):
    # Each degree's edge chains, one frontier step from the degree one edge
    # below, are the order twin's paths in its order, with their sources;
    # so are the breadth-first enumerations and the witness search's walk,
    # read to the end, from every root.
    bd = basic_data_from_dict(json.loads(path.read_text()))
    sk, limits = build_skeleton(bd), Limits()
    symbols = [v.symbols for v in sk.vertices]
    enumerated = {(0, 0): ([list(c) for c in zip(*symbols)], list(range(len(sk.vertices))))}
    for d in box((0, 0), (2, 2)):
        if d != (0, 0):
            base, colour = ((d[0], d[1] - 1), "red") if d[1] else ((d[0] - 1, 0), "blue")
            cells = dict(zip(_layout(bd.tile, base).cells, enumerated[base][0]))
            _, cells, sources = _chain_step(bd, sk, (base, cells, enumerated[base][1]), colour)
            enumerated[d] = [cells[c] for c in _layout(bd.tile, d).cells], sources
        columns, sources = enumerated[d]
        walk = list(twin_walk(bd, sk.vertices, d, sk, limits, False))
        assert list(zip(*columns)) == walk
        assert sources == [sk.index[_path(bd.tile, d, lam).source_vertex] for lam in walk]
        assert all_paths(bd, d, skeleton=sk) == [_path(bd.tile, d, lam) for lam in walk]
        assert [lam for v in sk.vertices for lam in _chain_walk(bd, v, d, sk, limits)] == walk


@pytest.mark.parametrize("path", BASIC_DATA_INPUTS, ids=lambda path: path.stem)
class TestTransposedData:
    """Swapping the axes swaps the colours and turns each forward fill into
    an inverse one, so the transposed table drives the compositions'
    ``f_inv`` steps where the original drives their ``f`` steps."""

    def test_transposing_twice_gives_the_table_back(self, path):
        bd = basic_data_from_dict(json.loads(path.read_text()))
        back = transpose_data(transpose_data(bd))
        assert (back.tile, back.bijections) == (bd.tile, bd.bijections)

    def test_the_transposed_table_passes_the_axiom_suite(self, path):
        bd = transpose_data(basic_data_from_dict(json.loads(path.read_text())))
        results = run_axiom_suite(bd)
        assert len(results) == 5
        assert [(r.name, r.detail) for r in results if not r.ok] == []

    def test_brute_force_paths_transpose(self, path):
        bd = basic_data_from_dict(json.loads(path.read_text()))
        flipped = transpose_data(bd)
        for a, b in box((0, 0), (2, 2)):
            paths = brute_force_paths(bd, (a, b))
            transposed = brute_force_paths(flipped, (b, a))
            assert len(transposed) == len(paths)
            assert {frozenset(((y, x), s) for (x, y), s in p.labels) for p in paths} == {
                frozenset(p.labels) for p in transposed
            }

    def test_paths_compose_and_factorize_transpose(self, path):
        bd = basic_data_from_dict(json.loads(path.read_text()))
        flipped = transpose_data(bd)
        t = flipped.tile
        for v in build_skeleton(bd).vertices:
            tv = vertex_from_labels(t, {_t(p): s for p, s in v.labels})
            for a, b in box((0, 0), (2, 1)):
                paths = enumerate_paths(bd, v, (a, b))
                transposed = enumerate_paths(flipped, tv, (b, a))
                assert {_transpose(t, lam) for lam in paths} == set(transposed)
                for lam in paths:
                    tlam = _transpose(t, lam)
                    for m in box((0, 0), (a, b)):
                        mu, nu = factorize(lam, (0, 0), m), factorize(lam, m, (a, b))
                        assert _transpose(t, mu) == factorize(tlam, (0, 0), _t(m))
                        assert _transpose(t, nu) == factorize(tlam, _t(m), (b, a))
                        assert _transpose(t, compose(bd, mu, nu)) == compose(
                            flipped, _transpose(t, mu), _transpose(t, nu)
                        )

    def test_corner_fills_transpose(self, path):
        # The bottom-right fill at n reads the windows at n + e1 and n - e2;
        # transposed, they are the upper-left fill's windows at n' + e1 and
        # n' - e2, for n' = (n1 - 1, n0 + 1).
        bd = basic_data_from_dict(json.loads(path.read_text()))
        flipped = transpose_data(bd)
        for v in build_skeleton(bd).vertices:
            for lam in enumerate_paths(bd, v, (2, 1)):
                for n in ((0, 1), (1, 1)):
                    cells = {c for k in (p_add(n, (1, 0)), p_add(n, (0, -1)))
                             for c in bd.tile.translate(k)}
                    labels = {p: s for p, s in lam.labels if p in cells}
                    corner, symbol = fill_corner_br(bd, labels, n)
                    assert corner == p_add(n, (bd.tile.c1 + 1, -1))
                    assert symbol == lam.label(corner)
                    assert fill_corner_ul(
                        flipped, {_t(p): s for p, s in labels.items()}, (n[1] - 1, n[0] + 1)
                    ) == (_t(corner), symbol)


def _t(p):
    return p[1], p[0]


def _transpose(tile, lam):
    """``lam`` with its axes swapped, as a path on the transposed ``tile``."""
    return Path.make(tile, _t(lam.degree), {_t(p): s for p, s in lam.labels})


# -- the relabelled-table oracle -----------------------------------------------


def assert_relabelling_is_invisible(bd, sigma, degree, dmax):
    """Renaming the symbols by ``sigma`` keeps every answer: the axioms hold,
    the skeleton is the same under the vertex map, and so are the report's
    verdict and flags and the block census."""
    rd = relabel_data(bd, sigma)
    assert [(r.name, r.detail) for r in run_axiom_suite(rd, degree) if not r.ok] == []
    sk, rsk = build_skeleton(bd), build_skeleton(rd)
    index = {v.symbols: i for i, v in enumerate(rsk.vertices)}
    at = [index[tuple(sigma[s] for s in v.symbols)] for v in sk.vertices]
    assert sorted(at) == list(range(len(rsk.vertices)))
    for colour in ("blue", "red"):
        assert sorted((at[v], at[u]) for v, u in sk.edges(colour)) == sorted(rsk.edges(colour))
    report, relabelled = simplicity_report(bd, sk), simplicity_report(rd, rsk)
    assert relabelled.verdict.status == report.verdict.status
    assert relabelled.flags == report.flags
    assert entropy_sequence(rd, dmax) == entropy_sequence(bd, dmax)


@st.composite
def relabellings(draw):
    bd = draw(st.one_of(small_data(), small_data(("0", "1", "2"))))
    symbols = list(bd.alphabet)
    return bd, dict(zip(symbols, draw(st.permutations(symbols))))


@given(relabellings())
@example((validate_basic_data(parse_tile([(0, 0)]), ["0", "1"], None, "0"), {"0": "1", "1": "0"}))
@settings(max_examples=40, deadline=None)
def test_relabelling_the_alphabet_changes_no_answer(case):
    bd, sigma = case
    assert_relabelling_is_invisible(bd, sigma, degree=(1, 1), dmax=3)


@pytest.mark.parametrize("path", BASIC_DATA_INPUTS, ids=lambda path: path.stem)
def test_relabelled_inputs_give_the_same_answers(path):
    # Each symbol moves one place along the alphabet.
    bd = basic_data_from_dict(json.loads(path.read_text()))
    symbols = list(bd.alphabet)
    sigma = dict(zip(symbols, symbols[1:] + symbols[:1]))
    assert_relabelling_is_invisible(bd, sigma, degree=(2, 2), dmax=3)
