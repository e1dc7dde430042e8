import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tilegraphs import (
    Alphabet,
    MissingPattern,
    NotBijective,
    NotInvertible,
    SizeLimit,
    UnknownSymbol,
    ValidationError,
    enumerate_vertices,
    import_prw,
    make_vertex,
    parse_tile,
    prw_vertex_labellings,
    validate_basic_data,
    validate_prw,
)
from tilegraphs.limits import Limits

TRIPOD = parse_tile([(0, 0), (1, 0), (0, 1)])
SQUARE = parse_tile([(0, 0), (1, 0), (0, 1), (1, 1)])

LEDRAPPIER_TABLE = {"0": ["0", "1"], "1": ["1", "0"]}
SQUARE_TABLE = {
    "0,0": ["0", "1"],
    "0,1": ["1", "0"],
    "1,0": ["1", "0"],
    "1,1": ["1", "0"],
}


def two_symbol_data(tile, table):
    return validate_basic_data(tile, ["0", "1"], table)


@st.composite
def permutation_tables(draw, tile, symbols=("0", "1")):
    table = {}
    for pat in itertools.product(symbols, repeat=len(tile.reduced)):
        table[",".join(pat)] = list(draw(st.permutations(symbols)))
    return table


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))

    def test_rejects_comma_symbols(self):
        with pytest.raises(ValidationError):
            Alphabet(("a,b",))

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            Alphabet(("a", "b")).index("c")


class TestValidateBasicData:
    def test_ledrappier_is_valid(self):
        bd = two_symbol_data(TRIPOD, LEDRAPPIER_TABLE)
        assert bd.f(("0",), "1") == "1"
        assert bd.f(("1",), "0") == "1"
        assert bd.f_inv(("1",), "1") == "0"

    def test_constant_row_is_not_bijective(self):
        with pytest.raises(NotBijective) as err:
            two_symbol_data(TRIPOD, {"0": ["0", "1"], "1": ["0", "0"]})
        assert "'0'" in str(err.value)

    def test_square_data_is_valid(self):
        bd = two_symbol_data(SQUARE, SQUARE_TABLE)
        assert bd.f(("0", "0"), "0") == "0"
        assert bd.f(("1", "1"), "0") == "1"

    def test_missing_pattern(self):
        with pytest.raises(MissingPattern):
            two_symbol_data(TRIPOD, {"0": ["0", "1"]})

    def test_unknown_symbol_in_image(self):
        with pytest.raises(UnknownSymbol):
            two_symbol_data(TRIPOD, {"0": ["0", "2"], "1": ["1", "0"]})

    def test_unknown_symbol_in_key(self):
        with pytest.raises(UnknownSymbol):
            two_symbol_data(TRIPOD, {"0": ["0", "1"], "2": ["1", "0"]})

    def test_vertex_cap(self):
        with pytest.raises(SizeLimit):
            validate_basic_data(
                TRIPOD, ["0", "1"], LEDRAPPIER_TABLE, limits=Limits(max_vertices=3)
            )

    def test_degenerate_wants_distinguished_symbol(self):
        dot = parse_tile([(0, 0)])
        with pytest.raises(ValidationError):
            validate_basic_data(dot, ["0", "1"], None)
        bd = validate_basic_data(dot, ["0", "1"], None, distinguished="1")
        assert bd.degenerate and bd.distinguished == "1"

    @given(permutation_tables(TRIPOD))
    def test_bijection_round_trip(self, table):
        bd = two_symbol_data(TRIPOD, table)
        for pat in bd.patterns():
            for a in bd.alphabet.symbols:
                assert bd.f_inv(pat, bd.f(pat, a)) == a
                assert bd.f(pat, bd.f_inv(pat, a)) == a


class TestMakeVertex:
    def test_ledrappier_flip_pattern(self):
        bd = two_symbol_data(TRIPOD, LEDRAPPIER_TABLE)
        v = make_vertex(bd, ("1",), "0")
        assert v.as_dict() == {(0, 0): "1", (0, 1): "0", (1, 0): "1"}

    def test_ledrappier_all_zero(self):
        bd = two_symbol_data(TRIPOD, LEDRAPPIER_TABLE)
        v = make_vertex(bd, ("0",), "0")
        assert set(v.as_dict().values()) == {"0"}

    def test_square_pattern_zero_one_top_one(self):
        # pattern (0, 1), top symbol 1: the flip bijection sends 1 to 0 at
        # the bottom-right corner.
        bd = two_symbol_data(SQUARE, SQUARE_TABLE)
        v = make_vertex(bd, ("0", "1"), "1")
        assert v.as_dict() == {
            (0, 0): "0",
            (1, 1): "1",
            (0, 1): "1",
            (1, 0): "0",
        }
        assert (v.top, v.corner) == ("1", "0")

    def test_flat_tile_corners(self):
        # Two-cell tile: the upper-left extreme corner is the origin.
        domino = parse_tile([(0, 0), (1, 0)])
        bd = validate_basic_data(domino, ["0", "1"], {"": ["1", "0"]})
        v = make_vertex(bd, (), "0")
        assert v.as_dict() == {(0, 0): "0", (1, 0): "1"}

    def test_distinct_inputs_distinct_vertices(self):
        bd = two_symbol_data(SQUARE, SQUARE_TABLE)
        seen = {make_vertex(bd, p, a).labels for p in bd.patterns() for a in "01"}
        assert len(seen) == 8


class TestEnumerateVertices:
    def test_ledrappier_count(self):
        assert len(enumerate_vertices(two_symbol_data(TRIPOD, LEDRAPPIER_TABLE))) == 4

    def test_square_count(self):
        assert len(enumerate_vertices(two_symbol_data(SQUARE, SQUARE_TABLE))) == 8

    def test_single_symbol_alphabet(self):
        bd = validate_basic_data(TRIPOD, ["a"], {"a": ["a"]})
        assert len(enumerate_vertices(bd)) == 1

    def test_cap(self):
        bd = two_symbol_data(SQUARE, SQUARE_TABLE)
        with pytest.raises(SizeLimit):
            enumerate_vertices(bd, limits=Limits(max_vertices=7))

    @given(permutation_tables(SQUARE))
    @settings(max_examples=20)
    def test_count_identity(self, table):
        bd = two_symbol_data(SQUARE, table)
        assert len(enumerate_vertices(bd)) == 2 ** (len(SQUARE.reduced) + 1)


ONE_CELL = parse_tile([(0, 0)])


class TestVertexCapBoundaries:
    # One refusal for every vertex count: a cap equal to the count passes,
    # one below refuses with the count in the message.
    CASES = [
        (TRIPOD, ["0", "1"], LEDRAPPIER_TABLE, 4),
        (SQUARE, ["0", "1"], SQUARE_TABLE, 8),
        (TRIPOD, ["a"], {"a": ["a"]}, 1),
    ]

    @pytest.mark.parametrize("tile, alphabet, table, count", CASES)
    def test_validate_basic_data(self, tile, alphabet, table, count):
        limits = Limits(max_vertices=count)
        bd = validate_basic_data(tile, alphabet, table, limits=limits)
        assert bd.vertex_count() == count
        if count > 1:
            with pytest.raises(SizeLimit) as err:
                validate_basic_data(
                    tile, alphabet, table, limits=Limits(max_vertices=count - 1)
                )
            assert str(err.value) == (
                f"{count} vertices would exceed the cap of {count - 1}"
            )

    @pytest.mark.parametrize("tile, alphabet, table, count", CASES)
    def test_enumerate_vertices(self, tile, alphabet, table, count):
        bd = validate_basic_data(tile, alphabet, table)
        assert len(enumerate_vertices(bd, Limits(max_vertices=count))) == count
        if count > 1:
            with pytest.raises(SizeLimit) as err:
                enumerate_vertices(bd, Limits(max_vertices=count - 1))
            assert str(err.value) == (
                f"{count} vertices would exceed the cap of {count - 1}"
            )

    @pytest.mark.parametrize(
        "tile, q, count, what",
        [
            (TRIPOD, 3, 9, "vertices"),
            (SQUARE, 2, 8, "vertices"),
            (ONE_CELL, 5, 5, "symbols"),
        ],
    )
    def test_import_prw(self, tile, q, count, what):
        # The one-cell tile has one vertex, but its q symbols are capped.
        params = validate_prw(tile, q, 0, {p: 1 for p in tile.points})
        bd = import_prw(params, Limits(max_vertices=count))
        assert len(bd.alphabet) == q
        with pytest.raises(SizeLimit) as err:
            import_prw(params, Limits(max_vertices=count - 1))
        assert str(err.value) == f"{count} {what} would exceed the cap of {count - 1}"

    def test_one_cell_counts_one_vertex_and_one_pattern(self):
        bd = validate_basic_data(ONE_CELL, ["0", "1", "2"], None, distinguished="2")
        assert bd.vertex_count() == 1 and bd.patterns() == [()]
        assert len(enumerate_vertices(bd, Limits(max_vertices=1))) == 1

    def test_a_count_past_the_printable_range_is_named_as_a_power(self):
        # 2 ** 14999 has more than 4,300 decimal digits: neither built nor
        # printed in decimal.
        row = parse_tile([(x, 0) for x in range(15000)], Limits(max_tile_cells=15000))
        with pytest.raises(SizeLimit) as err:
            validate_basic_data(row, ["0", "1"], {})
        assert str(err.value) == "2**14999 vertices would exceed the cap of 1024"


class TestPrwImport:
    def test_ledrappier_rule(self):
        # Weight 1 everywhere, trace 0, modulus 2 forces
        # f_p(a) = p(0) + a mod 2: identity and flip.
        params = validate_prw(TRIPOD, 2, 0, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        bd = import_prw(params)
        assert bd.bijections == {
            ("0",): ("0", "1"),
            ("1",): ("1", "0"),
        }

    def test_wide_tile_rule(self):
        # Weight zero at the origin: the bijection ignores the first
        # pattern slot, f_p(a) = p(e1) + a mod 2.
        tile = parse_tile([(0, 0), (1, 0), (2, 0), (0, 1)])
        params = validate_prw(
            tile, 2, 0, {(0, 0): 0, (1, 0): 1, (2, 0): 1, (0, 1): 1}
        )
        bd = import_prw(params)
        assert bd.bijections == {
            ("0", "0"): ("0", "1"),
            ("0", "1"): ("1", "0"),
            ("1", "0"): ("0", "1"),
            ("1", "1"): ("1", "0"),
        }

    def test_zero_divisor_corner_rejected(self):
        with pytest.raises(NotInvertible):
            validate_prw(TRIPOD, 4, 0, {(0, 0): 1, (1, 0): 2, (0, 1): 1})

    def test_degenerate_import(self):
        dot = parse_tile([(0, 0)])
        params = validate_prw(dot, 5, 3, {(0, 0): 2})
        bd = import_prw(params)
        # 2 * 4 = 8 = 3 mod 5
        assert bd.distinguished == "4"

    @pytest.mark.parametrize(
        "tile,q,t,w",
        [
            (TRIPOD, 2, 0, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
            (TRIPOD, 3, 2, {(0, 0): 2, (1, 0): 1, (0, 1): 2}),
            (SQUARE, 2, 1, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 0}),
            (SQUARE, 4, 3, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): 2}),
        ],
    )
    def test_trace_identity_over_all_vertices(self, tile, q, t, w):
        params = validate_prw(tile, q, t, w)
        bd = import_prw(params)
        for v in enumerate_vertices(bd):
            total = sum(int(s) * params.w[p] for p, s in v.labels)
            assert total % q == t % q

    @pytest.mark.parametrize(
        "tile,q,t,w",
        [
            (TRIPOD, 2, 0, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
            (TRIPOD, 3, 1, {(0, 0): 0, (1, 0): 2, (0, 1): 1}),
            (SQUARE, 2, 1, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 0}),
        ],
    )
    def test_import_matches_brute_force_filter(self, tile, q, t, w):
        params = validate_prw(tile, q, t, w)
        ours = {v.labels for v in enumerate_vertices(import_prw(params))}
        oracle = {
            tuple(sorted(d.items())) for d in prw_vertex_labellings(params)
        }
        assert ours == oracle

    @pytest.mark.parametrize(
        "q, size",
        [(59, "205379"), (10**2000 + 1, f"{10**2000 + 1}**3")],
        ids=["decimal", "power"],
    )
    def test_brute_force_cap(self, q, size):
        # A count past Python's 4,300 printable digits is named as a power.
        params = validate_prw(TRIPOD, q, 0, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        with pytest.raises(SizeLimit) as err:
            prw_vertex_labellings(params)
        assert str(err.value) == (
            f"brute force over {size} labellings exceeds the cap of 200000"
        )

    @pytest.mark.parametrize(
        "tile,q,t,w",
        [
            (TRIPOD, 2, 0, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
            (parse_tile([(0, 0), (1, 0), (2, 0), (0, 1)]), 2, 0,
             {(0, 0): 0, (1, 0): 1, (2, 0): 1, (0, 1): 1}),
        ],
    )
    def test_import_skeleton_matches_brute_force_edge_for_edge(self, tile, q, t, w):
        # Build the skeleton twice: once through the imported bijections and
        # once directly from the trace-filtered labellings, then compare
        # vertex labellings and both edge sets.
        from tilegraphs import build_skeleton, edge_condition, vertex_from_labels

        params = validate_prw(tile, q, t, w)
        bd = import_prw(params)
        sk = build_skeleton(bd)
        oracle = [
            vertex_from_labels(tile, d) for d in prw_vertex_labellings(params)
        ]
        assert {v.labels for v in oracle} == {v.labels for v in sk.vertices}
        pos = {v.labels: i for i, v in enumerate(oracle)}
        for colour, axis in (("blue", 1), ("red", 2)):
            want = {
                (pos[v.labels], pos[u.labels])
                for v in oracle
                for u in oracle
                if edge_condition(tile, v, u, axis)
            }
            have = {
                (pos[sk.vertices[i].labels], pos[sk.vertices[j].labels])
                for i, j in sk.edges(colour)
            }
            assert want == have
