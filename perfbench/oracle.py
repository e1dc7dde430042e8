"""Known answers computed from the definitions, without the library.

Everything here re-derives from the README's definitions: a vertex is a
tile labelling whose bottom-right corner is the bijection image of its
upper-left corner under the pattern on the reduced set; a ``colour`` edge
``v -> u`` exists iff ``v(m) == u(m - e)`` on ``T n (T + e)``; a breaking
cycle of a colour and symbol lives on the vertices reading that symbol
across the other colour's overlap, and is either two or more looped
candidates or a cycle through two or more distinct candidates.  The
benchmark checks the CLI's outputs against these answers, so they must not
import ``tilegraphs``.
"""

from __future__ import annotations

import itertools
import json

AXES = {"blue": (1, 0), "red": (0, 1)}


class Shape:
    """A tile with its corners, reduced set and overlaps."""

    def __init__(self, tile):
        self.points = sorted((int(x), int(y)) for x, y in tile)
        pts = set(self.points)
        self.c1 = max(x for x, _ in pts)
        self.c2 = max(y for _, y in pts)
        self.br, self.ul = (self.c1, 0), (0, self.c2)
        self.reduced = [p for p in self.points if p not in (self.br, self.ul)]
        self.overlap = {
            colour: [p for p in self.points if (p[0] - e[0], p[1] - e[1]) in pts]
            for colour, e in AXES.items()
        }

    @property
    def flat(self) -> bool:
        return self.c1 == 0 or self.c2 == 0


def vertices(doc: dict) -> list[dict]:
    """Every labelling of the tile that the bijection table admits."""
    shape = Shape(doc["tile"])
    alphabet = list(doc["alphabet"])
    table = doc["bijections"]
    out = []
    for values in itertools.product(alphabet, repeat=len(shape.points)):
        lab = dict(zip(shape.points, values))
        key = ",".join(lab[p] for p in shape.reduced)
        if lab[shape.br] == table[key][alphabet.index(lab[shape.ul])]:
            out.append(lab)
    return out


def rule_labellings(rule: dict) -> list[dict]:
    """Every labelling satisfying the modular rule's trace identity."""
    shape = Shape(rule["tile"])
    q, t = int(rule["q"]), int(rule["t"])
    w = {tuple(map(int, k.split(","))): int(v) for k, v in rule["w"].items()}
    return [
        {p: str(a) for p, a in zip(shape.points, values)}
        for values in itertools.product(range(q), repeat=len(shape.points))
        if sum(w[p] * a for p, a in zip(shape.points, values)) % q == t % q
    ]


def edges(shape: Shape, verts: list[dict], colour: str) -> set[tuple[int, int]]:
    """All ``colour`` edges between the given labellings, by index."""
    e = AXES[colour]
    ov = shape.overlap[colour]
    heads: dict[tuple, list[int]] = {}
    for j, u in enumerate(verts):
        heads.setdefault(tuple(u[(x - e[0], y - e[1])] for x, y in ov), []).append(j)
    return {
        (i, j)
        for i, v in enumerate(verts)
        for j in heads.get(tuple(v[p] for p in ov), [])
    }


def edge_ok(shape: Shape, v: dict, u: dict, colour: str) -> bool:
    e = AXES[colour]
    return all(v[(x, y)] == u[(x - e[0], y - e[1])] for x, y in shape.overlap[colour])


def _has_cycle(nodes: set[int], es: set[tuple[int, int]]) -> bool:
    """A directed cycle through two or more distinct nodes exists."""
    out = {n: {u for v, u in es if v == n and u != n} for n in nodes}
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for n in list(alive):
            if not out[n] & alive:
                alive.discard(n)
                changed = True
    return bool(alive)


def verdict(doc: dict) -> str:
    """The aperiodicity status the ``analyze`` command must report."""
    shape = Shape(doc["tile"])
    if shape.flat:
        return "PeriodicFlatTile"
    verts = vertices(doc)
    for colour, other in (("blue", "red"), ("red", "blue")):
        es = edges(shape, verts, colour)
        for s in doc["alphabet"]:
            cands = {
                i for i, v in enumerate(verts)
                if all(v[p] == s for p in shape.overlap[other])
            }
            sub = {(v, u) for v, u in es if v in cands and u in cands}
            if sum(1 for v, u in sub if v == u) >= 2 or _has_cycle(cands, sub):
                return "AperiodicCertified"
    return "Unknown"


def block_count(doc: dict, d: int) -> int:
    """Degree-(d, d) path count ``|A| ** (|P| + 1 + d (c1 + c2))``."""
    shape = Shape(doc["tile"])
    return len(doc["alphabet"]) ** (len(shape.reduced) + 1 + d * (shape.c1 + shape.c2))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
