import pytest
from hypothesis import given, strategies as st

from tilegraphs import (
    DegenerateTile,
    EmptyTile,
    NotHereditary,
    SizeLimit,
    overlap,
    parse_tile,
    reduced_set,
    translate_union,
)
from tilegraphs.lattice import box, contained_translates, p_join, p_leq, p_meet
from tilegraphs.limits import Limits, _check_cap

STAIRCASE = [(0, 0), (1, 0), (2, 0), (1, 1), (0, 1)]


@st.composite
def tiles(draw):
    # Non-increasing column heights give exactly the hereditary point sets.
    heights = sorted(
        draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)), reverse=True
    )
    pts = {(x, y) for x, h in enumerate(heights) for y in range(h)}
    return parse_tile(pts)


class TestParseTile:
    def test_staircase_corner_extent(self):
        tile = parse_tile(STAIRCASE)
        assert (tile.c1, tile.c2) == (2, 1)
        assert not tile.degenerate

    def test_missing_origin_is_not_hereditary(self):
        with pytest.raises(NotHereditary) as err:
            parse_tile([(1, 0)])
        assert err.value.point == (1, 0)
        assert err.value.missing == (0, 0)

    def test_degenerate_tile(self):
        tile = parse_tile([(0, 0)])
        assert tile.degenerate
        assert (tile.c1, tile.c2) == (0, 0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTile):
            parse_tile([])

    def test_negative_coordinates_rejected(self):
        with pytest.raises(NotHereditary):
            parse_tile([(0, 0), (0, -1)])

    def test_interior_hole_reports_witness(self):
        with pytest.raises(NotHereditary) as err:
            parse_tile([(0, 0), (2, 0), (1, 1)])
        assert err.value.missing in {(1, 0), (0, 1)}

    def test_size_cap(self):
        pts = [(x, 0) for x in range(5)]
        with pytest.raises(SizeLimit) as err:
            parse_tile(pts, limits=Limits(max_tile_cells=4))
        assert str(err.value) == "tile has 5 cells, cap is 4"
        assert len(parse_tile(pts[:4], limits=Limits(max_tile_cells=4)).points) == 4

    @given(tiles())
    def test_accepted_tiles_are_hereditary(self, tile):
        for (x, y) in tile.points:
            for (mx, my) in box((0, 0), (x, y)):
                assert (mx, my) in tile.points


@pytest.mark.parametrize("name", ["max_tile_cells", "max_vertices", "max_paths"])
@pytest.mark.parametrize("cap", [0, -1, 2.5, "9", True])
def test_limits_refuse_caps_that_are_not_positive_ints(name, cap):
    with pytest.raises(ValueError, match="^size caps must be positive$"):
        Limits(**{name: cap})


def test_a_cap_message_is_formatted_only_on_refusal():
    # A template naming a missing field would fail to format.
    _check_cap(4, 4, "{missing}")
    _check_cap((2, 2), 4, "{missing}")
    with pytest.raises(SizeLimit, match=r"^5 > 4$"):
        _check_cap(5, 4, "{size} > {cap}")
    with pytest.raises(SizeLimit, match=r"^3 \* 2\*\*20000 at \(1, 2\)$"):
        _check_cap((2, 20000, 3), 4, "{size} at {n}", n=(1, 2))


class TestReducedSet:
    def test_tripod(self):
        tile = parse_tile([(0, 0), (1, 0), (0, 1)])
        assert reduced_set(tile).points == {(0, 0)}

    def test_domino_is_empty(self):
        tile = parse_tile([(0, 0), (1, 0)])
        assert len(reduced_set(tile)) == 0

    def test_square(self):
        tile = parse_tile([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert reduced_set(tile).points == {(0, 0), (1, 1)}

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTile):
            reduced_set(parse_tile([(0, 0)]))

    @given(tiles())
    def test_size_identity(self, tile):
        if tile.degenerate:
            return
        assert len(reduced_set(tile)) == len(tile.points) - 2
        # empty exactly for the two-cell tiles
        assert (len(reduced_set(tile)) == 0) == (len(tile.points) == 2)


class TestTranslateUnion:
    def test_staircase_window(self):
        # The 14-cell region swept by the staircase tile over offsets
        # up to (2, 1): rows 0 and 1 span x 0..4, row 2 spans x 0..3.
        tile = parse_tile(STAIRCASE)
        expected = {(x, 0) for x in range(5)}
        expected |= {(x, 1) for x in range(5)}
        expected |= {(x, 2) for x in range(4)}
        region = translate_union(tile, (2, 1))
        assert region.points == expected
        assert len(region) == 14

    def test_zero_offset_is_the_tile(self):
        tile = parse_tile(STAIRCASE)
        assert translate_union(tile, (0, 0)).points == tile.points

    def test_tripod_offsets_one_one(self):
        tile = parse_tile([(0, 0), (1, 0), (0, 1)])
        expected = {
            (0, 0), (1, 0), (2, 0),
            (0, 1), (1, 1), (2, 1),
            (0, 2), (1, 2),
        }
        assert translate_union(tile, (1, 1)).points == expected

    @given(tiles(), st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_monotone_in_the_offset(self, tile, n):
        smaller = translate_union(tile, n)
        for e in ((1, 0), (0, 1)):
            bigger = translate_union(tile, (n[0] + e[0], n[1] + e[1]))
            assert smaller.points <= bigger.points

    @given(tiles(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_contained_translates_are_the_box(self, tile, n):
        region = translate_union(tile, n).points
        assert contained_translates(tile, region) == sorted(box((0, 0), n))


class TestOverlap:
    def test_tripod(self):
        tile = parse_tile([(0, 0), (1, 0), (0, 1)])
        assert overlap(tile, 1).points == {(1, 0)}
        assert overlap(tile, 2).points == {(0, 1)}

    def test_flat_tile_has_no_vertical_overlap(self):
        tile = parse_tile([(0, 0), (1, 0), (2, 0)])
        assert len(overlap(tile, 2)) == 0
        assert overlap(tile, 1).points == {(1, 0), (2, 0)}

    @pytest.mark.parametrize(
        "pts",
        [STAIRCASE, [(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (2, 0)]],
    )
    def test_emptiness_matches_corner_extent(self, pts):
        tile = parse_tile(pts)
        assert (len(overlap(tile, 1)) == 0) == (tile.c1 == 0)
        assert (len(overlap(tile, 2)) == 0) == (tile.c2 == 0)

    @given(tiles(), st.sampled_from([1, 2]))
    def test_shifted_overlap_stays_in_the_tile(self, tile, axis):
        e = (1, 0) if axis == 1 else (0, 1)
        for m in overlap(tile, axis):
            assert (m[0] - e[0], m[1] - e[1]) in tile.points


class TestPointHelpers:
    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_join_meet_bound_the_order(self, a, b):
        assert p_leq(p_meet(a, b), a) and p_leq(p_meet(a, b), b)
        assert p_leq(a, p_join(a, b)) and p_leq(b, p_join(a, b))
