import itertools
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from tilegraphs import build_skeleton, parse_tile, validate_basic_data
from tilegraphs.graph import Skeleton
from tilegraphs.serialize import basic_data_from_dict

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@st.composite
def small_data(draw, symbols=("0", "1")):
    """Random data on a random tile of at most four cells."""
    pts = draw(
        st.sampled_from(
            [
                [(0, 0), (1, 0)],
                [(0, 0), (0, 1)],
                [(0, 0), (1, 0), (0, 1)],
                [(0, 0), (1, 0), (2, 0), (0, 1)],
                [(0, 0), (1, 0), (0, 1), (1, 1)],
            ]
        )
    )
    tile = parse_tile(pts)
    table = {}
    for pat in itertools.product(symbols, repeat=len(tile.reduced)):
        table[",".join(pat)] = list(draw(st.permutations(symbols)))
    return validate_basic_data(tile, list(symbols), table)


def transpose_data(bd):
    """The same data with its axes swapped, ``(x, y) -> (y, x)``.

    The two extreme corners trade places, so the bottom-right corner of a
    transposed window is forced by the inverse bijection.  Each pattern is
    re-keyed in the transposed tile's point order.
    """
    if bd.degenerate:
        return bd
    tile = parse_tile([(y, x) for x, y in bd.tile.points])
    # For each reduced point of the transposed tile, in its order, the
    # position of the original point in the original order.
    order = [bd.tile.sorted_reduced.index((y, x)) for x, y in tile.sorted_reduced]
    table = {
        ",".join(pattern[i] for i in order): list(row)
        for pattern, row in bd.inverses.items()
    }
    return validate_basic_data(tile, list(bd.alphabet), table)


def relabel_data(bd, sigma):
    """The same data with every symbol ``s`` renamed ``sigma[s]``.

    A pattern ``p`` becomes ``sigma(p)`` and its bijection is conjugated,
    ``sigma . f_p . sigma^-1``, so the relabelled table's configurations are
    the originals relabelled cell by cell.
    """
    alphabet = list(bd.alphabet)
    if bd.degenerate:
        return validate_basic_data(bd.tile, alphabet, None, sigma[bd.distinguished])
    inverse = {t: s for s, t in sigma.items()}
    table = {
        ",".join(sigma[s] for s in pattern): [sigma[bd.f(pattern, inverse[a])] for a in alphabet]
        for pattern in bd.bijections
    }
    return validate_basic_data(bd.tile, alphabet, table)


@pytest.fixture
def edge_derivations(monkeypatch):
    """The edge batches built during a test, as ``(skeleton, colour)``: each
    call of ``Skeleton._edge_batch`` on a colour not built yet."""
    calls = []
    edge_batch = Skeleton._edge_batch

    def counted(sk, colour):
        if colour not in sk._edge_batches:
            calls.append((sk, colour))
        return edge_batch(sk, colour)

    monkeypatch.setattr(Skeleton, "_edge_batch", counted)
    return calls


def load_corpus(name):
    with open(DATA_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def ledrappier():
    return basic_data_from_dict(load_corpus("ledrappier"))


@pytest.fixture(scope="session")
def square():
    return basic_data_from_dict(load_corpus("square"))


@pytest.fixture(scope="session")
def rem3():
    return basic_data_from_dict(load_corpus("rem3"))


@pytest.fixture(scope="session")
def flat():
    return basic_data_from_dict(load_corpus("flat"))


@pytest.fixture(scope="session")
def ledrappier_sk(ledrappier):
    return build_skeleton(ledrappier)


@pytest.fixture(scope="session")
def square_sk(square):
    return build_skeleton(square)


@pytest.fixture(scope="session")
def rem3_sk(rem3):
    return build_skeleton(rem3)


@pytest.fixture(scope="session")
def flat_sk(flat):
    return build_skeleton(flat)
