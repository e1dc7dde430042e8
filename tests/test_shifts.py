import math

import pytest

import tilegraphs.shifts as shifts
from tilegraphs import (
    InvariantViolation,
    NotAdmissible,
    RegionShapeMismatch,
    SizeLimit,
    Skeleton,
    WindowConfig,
    all_paths,
    build_skeleton,
    config_to_path,
    count_blocks,
    entropy_sequence,
    factorize,
    parse_tile,
    path_to_config,
    translate_union,
    validate_basic_data,
    window_admissible,
)
from tilegraphs.lattice import box, p_sub
from tilegraphs.limits import Limits

ONE_CELL = validate_basic_data(parse_tile([(0, 0)]), ["0", "1"], None, "1")
ONE_SYMBOL = validate_basic_data(
    parse_tile([(0, 0), (1, 0), (0, 1)]), ["a"], {"a": ["a"]}
)


def rewired(bd, sk, colour, how):
    """``sk`` with its first ``colour`` edge deleted, or with that edge's
    head (its source-side vertex) moved to the next vertex."""
    edges = list(sk.edges(colour))
    v, u = edges.pop(0)
    if how == "head-moved":
        edges.insert(0, (v, (u + 1) % len(sk.vertices)))
    blue, red = (edges, sk.red) if colour == "blue" else (sk.blue, edges)
    return Skeleton(bd, sk.vertices, tuple(blue), tuple(red), sk.index)


class TestWindowAdmissible:
    def test_every_path_is_admissible(self, ledrappier, ledrappier_sk):
        for lam in all_paths(ledrappier, (1, 1), skeleton=ledrappier_sk):
            assert window_admissible(ledrappier, path_to_config(lam))

    def test_all_zero_region_is_admissible(self, ledrappier):
        config = WindowConfig.make({(x, y): "0" for x in range(4) for y in range(3)})
        assert window_admissible(ledrappier, config)

    def test_bad_window_detected(self, ledrappier):
        config = WindowConfig.make({(0, 0): "0", (1, 0): "0", (0, 1): "1"})
        assert not window_admissible(ledrappier, config)

    def test_vacuous_when_nothing_fits(self, ledrappier):
        config = WindowConfig.make({(0, 0): "1", (5, 5): "0"})
        assert window_admissible(ledrappier, config)

    def test_signed_coordinates(self, ledrappier):
        config = WindowConfig.make(
            {(-1, -1): "0", (0, -1): "0", (-1, 0): "0"}
        )
        assert window_admissible(ledrappier, config)

    def test_locality(self, ledrappier):
        # Flipping a cell outside every fully contained window never
        # changes the verdict.
        base = {(0, 0): "0", (1, 0): "0", (0, 1): "0", (3, 3): "0"}
        far = {**base, (3, 3): "1"}
        assert window_admissible(ledrappier, WindowConfig.make(base))
        assert window_admissible(ledrappier, WindowConfig.make(far))
        bad = {**base, (0, 1): "1"}  # breaks the single window
        bad_far = {**bad, (3, 3): "1"}
        assert not window_admissible(ledrappier, WindowConfig.make(bad))
        assert not window_admissible(ledrappier, WindowConfig.make(bad_far))

    def test_degenerate_constant_only(self):
        dot = parse_tile([(0, 0)])
        bd = validate_basic_data(dot, ["0", "1"], None, distinguished="1")
        assert window_admissible(bd, WindowConfig.make({(0, 0): "1", (4, 2): "1"}))
        assert not window_admissible(bd, WindowConfig.make({(0, 0): "0"}))


class TestCountBlocks:
    def test_ledrappier_small_counts(self, ledrappier, ledrappier_sk):
        assert count_blocks(ledrappier, 1, skeleton=ledrappier_sk).count == 16
        assert count_blocks(ledrappier, 2, skeleton=ledrappier_sk).count == 64

    def test_square_d1(self, square, square_sk):
        assert count_blocks(square, 1, skeleton=square_sk).count == 32

    def test_rem3_d2(self, rem3, rem3_sk):
        assert count_blocks(rem3, 2, skeleton=rem3_sk).count == 512

    def test_log_space_beyond_512_bits(self, ledrappier):
        row = count_blocks(ledrappier, 300, cross_check_upto=0)
        assert row.count is None
        assert row.log_count == pytest.approx((2 + 2 * 300) * math.log(2))

    def test_rejects_nonpositive(self, ledrappier):
        with pytest.raises(ValueError):
            count_blocks(ledrappier, 0)

    @pytest.mark.parametrize(
        "name", ["ledrappier", "square", "rem3", "flat", "one-cell", "one-symbol"]
    )
    def test_chain_counts_match_the_enumerated_paths(self, request, name):
        # The census checked by edge-chain counts gives what the path walk
        # enumerates, on every bundled graph and both degenerate tables.
        if name == "one-cell":
            bd = ONE_CELL
        elif name == "one-symbol":
            bd = ONE_SYMBOL
        else:
            bd = request.getfixturevalue(name)
        sk = build_skeleton(bd)
        for d in (1, 2):
            row = count_blocks(bd, d, skeleton=sk)
            assert row.count == len(all_paths(bd, (d, d), skeleton=sk))

    @pytest.mark.parametrize(
        "colour, how, d, message",
        [
            ("blue", "deleted", 1, "blue^1 red^1 edge chains end [3, 4] times at 4 "
             "vertices, not 2**2 times at 2**2"),
            ("red", "deleted", 2, "blue^2 red^2 edge chains end [8, 12, 16] times "
             "at 4 vertices, not 2**4 times at 2**2"),
            ("blue", "head-moved", 1, "blue^1 red^1 edge chains end [3, 5] times at 4 "
             "vertices, not 2**2 times at 2**2"),
            # Every blue^2 red^2 chain total and end count survives this move.
            ("blue", "head-moved", 2, "red^2 blue^2 edge chains end [8, 16, 20] "
             "times at 4 vertices, not 2**4 times at 2**2"),
        ],
    )
    def test_rewired_skeleton_is_caught_naming_the_order(
        self, ledrappier, ledrappier_sk, colour, how, d, message
    ):
        bad = rewired(ledrappier, ledrappier_sk, colour, how)
        with pytest.raises(InvariantViolation) as err:
            count_blocks(ledrappier, d, skeleton=bad)
        assert str(err.value) == message

    def test_a_checked_side_past_the_path_cap_is_refused(
        self, ledrappier, ledrappier_sk
    ):
        limits = Limits(max_paths=2)
        assert count_blocks(ledrappier, 2, ledrappier_sk, limits).count == 64
        with pytest.raises(SizeLimit) as err:
            count_blocks(ledrappier, 3, ledrappier_sk, limits, cross_check_upto=3)
        assert str(err.value) == "block census: side 3 exceeds the path cap of 2"
        assert count_blocks(ledrappier, 3, ledrappier_sk, limits).count == 256


class TestEntropySequence:
    def test_ledrappier_closed_form(self, ledrappier, ledrappier_sk):
        rows = entropy_sequence(ledrappier, 10, skeleton=ledrappier_sk)
        for row in rows:
            assert row.entropy_term == pytest.approx(
                (2 + 2 * row.d) * math.log(2) / 2**row.d
            )

    def test_single_symbol_entropy_is_zero(self):
        bd = validate_basic_data(
            parse_tile([(0, 0), (1, 0), (0, 1)]), ["a"], {"a": ["a"]}
        )
        rows = entropy_sequence(bd, 8)
        assert all(row.entropy_term == 0.0 for row in rows)
        assert all(row.count == 1 for row in rows)

    def test_upper_bound_and_vanishing(self, request):
        # Block counts follow the path identity, so their domain is the
        # translate union rather than a bare d x d square; the square-count
        # bound therefore only applies once d absorbs the corner extent,
        # while the bounding-box bound holds throughout.
        for name in ("ledrappier", "square", "rem3", "flat"):
            bd = request.getfixturevalue(name)
            sk = request.getfixturevalue(f"{name}_sk")
            c1, c2 = bd.tile.c1, bd.tile.c2
            rows = entropy_sequence(bd, 20, skeleton=sk)
            assert rows[-1].entropy_term < 1e-2
            for row in rows:
                box_cells = (row.d + c1 + 1) * (row.d + c2 + 1)
                assert row.entropy_term <= box_cells / 2**row.d * math.log(2) + 1e-12
                if row.d >= 4:
                    assert row.entropy_term <= row.d**2 / 2**row.d * math.log(2) + 1e-12
            for prev, cur in zip(rows[2:], rows[3:]):
                assert cur.entropy_term < prev.entropy_term

    def test_degenerate_counts_are_one(self):
        dot = parse_tile([(0, 0)])
        bd = validate_basic_data(dot, ["0", "1"], None, distinguished="0")
        rows = entropy_sequence(bd, 5)
        assert [row.count for row in rows] == [1] * 5

    def test_rows_are_checked_under_a_small_path_cap(self, ledrappier, ledrappier_sk):
        # 4 * 4 = 16 paths of degree (1, 1), more than a cap of 10: no path
        # is walked, yet rows 1 and 2 are checked by chain counts, so a
        # rewired skeleton is caught.
        limits = Limits(max_paths=10)
        rows = entropy_sequence(ledrappier, 10, skeleton=ledrappier_sk, limits=limits)
        assert [row.count for row in rows[:2]] == [16, 64]
        bad = rewired(ledrappier, ledrappier_sk, "blue", "deleted")
        with pytest.raises(InvariantViolation):
            entropy_sequence(ledrappier, 10, skeleton=bad, limits=limits)

    def test_one_skeleton_for_all_checked_rows(self, ledrappier, monkeypatch):
        built = []
        build = shifts.build_skeleton
        monkeypatch.setattr(
            shifts, "build_skeleton", lambda *a, **k: built.append(a) or build(*a, **k)
        )
        entropy_sequence(ledrappier, 6)
        assert len(built) == 1
        entropy_sequence(ledrappier, 6, cross_check_upto=0)
        assert len(built) == 1


class TestExtensionRecurrence:
    def test_path_counts_multiply_per_step(self, request):
        # Appending a unit degree multiplies the path count by the edge
        # count of that colour, for every degree up to (2,2).
        for name in ("ledrappier", "square"):
            bd = request.getfixturevalue(name)
            sk = request.getfixturevalue(f"{name}_sk")
            a = len(bd.alphabet)
            sizes = {
                n: len(all_paths(bd, n, skeleton=sk)) for n in box((0, 0), (2, 2))
            }
            for (x, y), size in sizes.items():
                if x + 1 <= 2:
                    assert sizes[(x + 1, y)] == size * a**bd.tile.c2
                if y + 1 <= 2:
                    assert sizes[(x, y + 1)] == size * a**bd.tile.c1


class TestPathConfigCorrespondence:
    def test_round_trip_all_degree_one_one(self, ledrappier, ledrappier_sk):
        for lam in all_paths(ledrappier, (1, 1), skeleton=ledrappier_sk):
            back = config_to_path(ledrappier, path_to_config(lam))
            assert back.labels == lam.labels and back.degree == lam.degree

    def test_degree_zero_is_the_vertex_labelling(self, ledrappier, ledrappier_sk):
        v = ledrappier_sk.vertices[2]
        from tilegraphs import Path

        lam = Path.from_vertex(ledrappier.tile, v)
        config = path_to_config(lam)
        assert config.as_dict() == v.as_dict()
        assert config_to_path(ledrappier, config).labels == lam.labels

    def test_translated_region_normalises(self, ledrappier, ledrappier_sk):
        lam = all_paths(ledrappier, (1, 0), skeleton=ledrappier_sk)[3]
        shifted = WindowConfig.make(
            {(x - 5, y + 7): s for (x, y), s in lam.labels}
        )
        assert config_to_path(ledrappier, shifted).labels == lam.labels

    def test_region_shape_mismatch(self, ledrappier):
        config = WindowConfig.make({(0, 0): "0", (1, 0): "0"})
        with pytest.raises(RegionShapeMismatch):
            config_to_path(ledrappier, config)

    def test_not_admissible(self, ledrappier):
        config = WindowConfig.make({(0, 0): "0", (1, 0): "0", (0, 1): "1"})
        with pytest.raises(NotAdmissible):
            config_to_path(ledrappier, config)

    def test_degenerate_constant_configuration(self):
        dot = parse_tile([(0, 0)])
        bd = validate_basic_data(dot, ["0", "1"], None, distinguished="1")
        config = WindowConfig.make({(x, y): "1" for x in range(3) for y in range(2)})
        lam = config_to_path(bd, config)
        assert lam.degree == (2, 1)

    @pytest.mark.parametrize("degree", [(1, 1), (2, 2)])
    def test_shift_equivariance(self, degree, ledrappier, ledrappier_sk):
        # Translating the configuration and re-reading a path equals
        # factorising the original path at the translation offset.
        tile = ledrappier.tile
        for lam in all_paths(ledrappier, degree, skeleton=ledrappier_sk):
            config = path_to_config(lam)
            for b in box((0, 0), p_sub(degree, (1, 1))):
                target = p_sub(degree, b)
                window = translate_union(tile, target).points
                moved = config.translate(b).restrict(window)
                assert (
                    config_to_path(ledrappier, moved).labels
                    == factorize(lam, b, degree).labels
                )
