"""Basic data: a tile, an alphabet, and one bijection per reduced-set pattern.

A *pattern* assigns a symbol to every point of the tile's reduced set; it is
represented as a tuple of symbols in lexicographic point order.  A set of
basic data carries one alphabet bijection ``f_p`` per pattern ``p``, stored
as an explicit permutation table on symbol indices so that validation and
inversion are table lookups.

A *vertex* is the labelling of the whole tile determined by a pattern and a
top-corner symbol ``a``: the upper-left extreme corner carries ``a``, the
bottom-right extreme corner carries ``f_p(a)``, and the reduced set carries
``p``.  Distinct ``(p, a)`` give distinct labellings, so there are exactly
``|A| ** (|P| + 1)`` vertices.

The one-cell tile is a degenerate special case: its data consists of a
single distinguished symbol, and the vertex set is the single constant
labelling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    MissingPattern,
    NotBijective,
    NotInvertible,
    SizeLimit,
    UnknownSymbol,
    ValidationError,
)
from .lattice import ORIGIN, Point, Tile
from .limits import DEFAULT_LIMITS, Limits, _over_cap

PatternT = tuple[str, ...]


def pattern_key(pattern: Sequence[str]) -> str:
    """Canonical string key: symbols in lex point order, comma-joined."""
    return ",".join(pattern)


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet of distinct opaque string symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("alphabet must be nonempty")
        for s in self.symbols:
            if not isinstance(s, str) or s == "" or "," in s:
                # Commas are the pattern-key separator; empty symbols would
                # make keys ambiguous.
                raise ValidationError(f"invalid alphabet symbol {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")
        # Not a field: equality, hashing and repr stay those of ``symbols``.
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except (KeyError, TypeError):
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class Vertex:
    """A full tile labelling of the form determined by a pattern and a top symbol.

    ``labels`` is sorted by point and total on the tile; ``pattern`` repeats
    the reduced-set symbols in lex point order; ``top`` sits at the
    upper-left extreme corner and ``corner`` at the bottom-right one.
    ``symbols`` holds the labels' symbols alone, in their (tile slot) order.
    """

    labels: tuple[tuple[Point, str], ...]
    pattern: PatternT
    top: str
    corner: str

    def __post_init__(self):
        # Not a field, so equality, hashing and repr are unchanged.
        object.__setattr__(self, "symbols", tuple(s for _, s in self.labels))

    def label(self, point: Point) -> str:
        return dict(self.labels)[point]

    def as_dict(self) -> dict[Point, str]:
        return dict(self.labels)


def vertex_from_labels(tile: Tile, labels: Mapping[Point, str]) -> Vertex:
    """Package a total tile labelling as a Vertex (no validity check)."""
    items = tuple((p, labels[p]) for p in tile.sorted_points)
    pattern = tuple(labels[p] for p in tile.sorted_reduced)
    return Vertex(
        labels=items,
        pattern=pattern,
        top=labels[tile.corner_ul],
        corner=labels[tile.corner_br],
    )


@dataclass(frozen=True, eq=False)
class BasicData:
    """Validated basic data; construct through :func:`validate_basic_data`."""

    tile: Tile
    alphabet: Alphabet
    bijections: dict[PatternT, tuple[str, ...]]
    inverses: dict[PatternT, tuple[str, ...]]
    distinguished: str | None = None

    @property
    def degenerate(self) -> bool:
        return self.tile.degenerate

    def f(self, pattern: PatternT, symbol: str) -> str:
        table = self.bijections.get(pattern)
        if table is None:
            raise MissingPattern(f"no bijection for pattern {pattern_key(pattern)!r}")
        return table[self.alphabet.index(symbol)]

    def f_inv(self, pattern: PatternT, symbol: str) -> str:
        table = self.inverses.get(pattern)
        if table is None:
            raise MissingPattern(f"no bijection for pattern {pattern_key(pattern)!r}")
        return table[self.alphabet.index(symbol)]

    def patterns(self) -> list[PatternT]:
        """All patterns in canonical (symbol-index lexicographic) order."""
        if self.degenerate:
            return [()]
        k = len(self.tile.reduced)
        return list(itertools.product(self.alphabet.symbols, repeat=k))

    def vertex_count(self) -> int:
        if self.degenerate:
            return 1
        return len(self.alphabet) ** (len(self.tile.reduced) + 1)

    def is_vertex(self, v: Vertex) -> bool:
        """Whether a tile labelling is one of this data's vertices."""
        return self.bad_window(v.as_dict(), [ORIGIN]) is None

    def bad_window(
        self, labels: Mapping[Point, str], offsets: Iterable[Point]
    ) -> Point | None:
        """The first offset ``k`` whose window ``tile + k`` of ``labels`` is
        no vertex (an unknown symbol or pattern counts as none), else None."""
        if self.degenerate:
            return next((k for k in offsets if labels[k] != self.distinguished), None)
        tile, table, index = self.tile, self.bijections, self.alphabet._index
        reduced = tile.sorted_reduced
        (ux, uy), (bx, by) = tile.corner_ul, tile.corner_br
        for kx, ky in offsets:
            row = table.get(tuple([labels[(x + kx, y + ky)] for x, y in reduced]))
            i = index.get(labels[(ux + kx, uy + ky)])
            if row is None or i is None or row[i] != labels[(bx + kx, by + ky)]:
                return kx, ky
        return None


def validate_basic_data(
    tile: Tile,
    alphabet: Alphabet | Sequence[str],
    bijections: Mapping[Sequence[str] | str, Sequence[str]] | None,
    distinguished: str | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> BasicData:
    """Validate a raw bijection table against a tile and alphabet.

    Parameters
    ----------
    tile : Tile
    alphabet : Alphabet or sequence of symbols
    bijections : mapping
        Keys are patterns (symbol tuples, or comma-joined key strings);
        values are image rows ``[f_p(a_0), f_p(a_1), ...]`` in alphabet
        order.  Ignored for the degenerate tile.
    distinguished : str, optional
        Required for the degenerate one-cell tile, forbidden otherwise.

    Raises
    ------
    MissingPattern
        Some pattern has no bijection entry.
    NotBijective
        An entry has colliding outputs (reported) or the wrong length.
    UnknownSymbol
        A key or image symbol is outside the alphabet.
    SizeLimit
        The vertex count would exceed ``limits.max_vertices``.
    """
    if not isinstance(alphabet, Alphabet):
        alphabet = Alphabet(tuple(alphabet))

    if tile.degenerate:
        if distinguished is None:
            raise ValidationError(
                "the one-cell tile needs a distinguished symbol"
            )
        if distinguished not in alphabet:
            raise UnknownSymbol(
                f"distinguished symbol {distinguished!r} is not in the alphabet"
            )
        if bijections:
            raise ValidationError(
                "the one-cell tile takes no bijection table"
            )
        return BasicData(tile, alphabet, {}, {}, distinguished)

    if distinguished is not None:
        raise ValidationError(
            "a distinguished symbol is only meaningful for the one-cell tile"
        )

    n_patterns = len(alphabet) ** len(tile.reduced)
    if n_patterns * len(alphabet) > limits.max_vertices:
        raise SizeLimit(
            f"{n_patterns * len(alphabet)} vertices would exceed the cap "
            f"of {limits.max_vertices}"
        )

    raw: dict[PatternT, Sequence[str]] = {}
    for key, row in (bijections or {}).items():
        if isinstance(key, str):
            pat = tuple(key.split(",")) if key else ()
        else:
            pat = tuple(key)
        for s in pat:
            if s not in alphabet:
                raise UnknownSymbol(
                    f"pattern key {pattern_key(pat)!r} uses unknown symbol {s!r}"
                )
        if len(pat) != len(tile.reduced):
            raise ValidationError(
                f"pattern key {pattern_key(pat)!r} has {len(pat)} symbols, "
                f"the reduced set has {len(tile.reduced)} points"
            )
        raw[pat] = row

    table: dict[PatternT, tuple[str, ...]] = {}
    inv: dict[PatternT, tuple[str, ...]] = {}
    for pat in itertools.product(alphabet.symbols, repeat=len(tile.reduced)):
        if pat not in raw:
            raise MissingPattern(
                f"no bijection for pattern {pattern_key(pat)!r}"
            )
        row = tuple(raw[pat])
        if len(row) != len(alphabet):
            raise NotBijective(
                f"bijection for {pattern_key(pat)!r} lists {len(row)} images "
                f"for {len(alphabet)} symbols"
            )
        seen: dict[str, str] = {}
        for src, img in zip(alphabet.symbols, row):
            if img not in alphabet:
                raise UnknownSymbol(
                    f"bijection for {pattern_key(pat)!r} maps {src!r} to "
                    f"unknown symbol {img!r}"
                )
            if img in seen:
                raise NotBijective(
                    f"bijection for {pattern_key(pat)!r} maps both "
                    f"{seen[img]!r} and {src!r} to {img!r}"
                )
            seen[img] = src
        table[pat] = row
        inv[pat] = tuple(seen[s] for s in alphabet.symbols)
    return BasicData(tile, alphabet, table, inv, None)


def make_vertex(bd: BasicData, pattern: Sequence[str], a: str) -> Vertex:
    """The vertex determined by ``pattern`` and top symbol ``a``."""
    if bd.degenerate:
        if tuple(pattern) != () or a != bd.distinguished:
            raise ValidationError(
                "degenerate data admits only the empty pattern and its "
                "distinguished symbol"
            )
        return vertex_from_labels(bd.tile, {(0, 0): a})
    pat = tuple(pattern)
    if a not in bd.alphabet:
        raise UnknownSymbol(f"symbol {a!r} is not in the alphabet")
    if len(pat) != len(bd.tile.reduced):
        raise ValidationError(
            f"pattern {pattern_key(pat)!r} does not match the reduced set"
        )
    labels: dict[Point, str] = dict(zip(bd.tile.sorted_reduced, pat))
    labels[bd.tile.corner_ul] = a
    labels[bd.tile.corner_br] = bd.f(pat, a)
    return vertex_from_labels(bd.tile, labels)


def enumerate_vertices(bd: BasicData, limits: Limits = DEFAULT_LIMITS) -> list[Vertex]:
    """All vertices in canonical (pattern-lex, then symbol-index) order."""
    if bd.vertex_count() > limits.max_vertices:
        raise SizeLimit(
            f"{bd.vertex_count()} vertices would exceed the cap of "
            f"{limits.max_vertices}"
        )
    if bd.degenerate:
        return [make_vertex(bd, (), bd.distinguished)]
    return [
        make_vertex(bd, pat, a)
        for pat in bd.patterns()
        for a in bd.alphabet.symbols
    ]


# -- modular-rule parameterisation ------------------------------------------

@dataclass(frozen=True, eq=False)
class PrwParams:
    """Tile, modulus, trace, and weight rule defining a modular vertex family.

    The vertex labellings are the functions ``v`` on the tile with
    ``sum(v(i) * w(i)) == t (mod q)``; both extreme-corner weights must be
    invertible mod ``q`` for the family to define basic data.
    """

    tile: Tile
    q: int
    t: int
    w: dict[Point, int]


def validate_prw(
    tile: Tile, q: int, t: int, w: Mapping[Point, int]
) -> PrwParams:
    """Check a modular rule; residues are normalised into ``[0, q)``.

    Raises
    ------
    NotInvertible
        Naming the offending corner weight.
    """
    if q < 2:
        raise ValidationError(f"modulus must be at least 2, got {q}")
    weights: dict[Point, int] = {}
    for p in tile.sorted_points:
        if p not in w:
            raise ValidationError(f"rule is missing a weight for point {p}")
        weights[p] = int(w[p]) % q
    extra = set(w) - set(tile.points)
    if extra:
        raise ValidationError(f"rule has weights outside the tile: {sorted(extra)}")
    for name, corner in (("bottom-right", tile.corner_br), ("upper-left", tile.corner_ul)):
        if math.gcd(weights[corner], q) != 1:
            raise NotInvertible(
                f"{name} corner weight w({corner}) = {weights[corner]} is not "
                f"invertible mod {q}"
            )
    return PrwParams(tile, q, int(t) % q, weights)


def import_prw(params: PrwParams, limits: Limits = DEFAULT_LIMITS) -> BasicData:
    """Basic data equivalent to a modular rule.

    For each pattern ``p`` the bijection solves the trace identity for the
    bottom-right corner:

        f_p(a) = (t - sum_{i in P} w(i) p(i) - w(ul) a) * w(br)^{-1}  (mod q)

    so every resulting vertex satisfies ``sum(v(i) w(i)) == t (mod q)``.
    The alphabet is the residues ``"0" .. str(q - 1)``.
    """
    tile, q, t, w = params.tile, params.q, params.t, params.w
    reduced = tile.sorted_reduced
    # Checked before the q symbols exist.  The one-cell tile (no reduced
    # set) has one vertex but lists its whole alphabet: there q is capped.
    size = _over_cap(q, len(reduced) + 1, limits.max_vertices)
    if size is not None:
        what = "symbols" if tile.degenerate else "vertices"
        raise SizeLimit(f"{size} {what} would exceed the cap of {limits.max_vertices}")
    alphabet = Alphabet(tuple(str(i) for i in range(q)))
    if tile.degenerate:
        # Trace condition v(0) * w(0) == t has the single solution below.
        a = (t * pow(w[(0, 0)], -1, q)) % q
        return validate_basic_data(tile, alphabet, None, distinguished=str(a))

    inv_br = pow(w[tile.corner_br], -1, q)
    w_ul = w[tile.corner_ul]

    table: dict[str, list[str]] = {}
    for pat in itertools.product(range(q), repeat=len(reduced)):
        base = t - sum(w[pt] * val for pt, val in zip(reduced, pat))
        row = [str(((base - w_ul * a) * inv_br) % q) for a in range(q)]
        table[pattern_key(tuple(str(v) for v in pat))] = row
    return validate_basic_data(tile, alphabet, table, limits=limits)


def prw_vertex_labellings(
    params: PrwParams, limits: Limits = DEFAULT_LIMITS
) -> list[dict[Point, str]]:
    """Brute-force oracle: every tile labelling satisfying the trace identity.

    Enumerates all ``q ** |T|`` functions and filters; independent of the
    bijection construction in :func:`import_prw`.
    """
    tile, q, t, w = params.tile, params.q, params.t, params.w
    size = _over_cap(q, len(tile.points), limits.max_paths)
    if size is not None:
        raise SizeLimit(
            f"brute force over {size} labellings exceeds the cap of {limits.max_paths}"
        )
    pts = tile.sorted_points
    out = []
    for values in itertools.product(range(q), repeat=len(pts)):
        if sum(v * w[p] for p, v in zip(pts, values)) % q == t:
            out.append({p: str(v) for p, v in zip(pts, values)})
    return out
