"""JSON and CSV formats.

Basic data::

    { "alphabet": ["0", "1"],
      "tile": [[0, 0], [1, 0], [0, 1]],
      "bijections": { "<pattern-key>": ["<image of symbol 0>", ...], ... } }

The pattern key lists the symbols at the reduced-set points in lexicographic
point order, joined by commas (the empty string when the reduced set is
empty).  The degenerate one-cell tile instead carries a single
``"distinguished"`` symbol and no bijection table.

Modular-rule parameters::

    { "tile": [[0, 0], ...], "q": 2, "t": 0, "w": { "<x>,<y>": 1, ... } }
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain
from json.encoder import encode_basestring
from typing import Any

from .data import BasicData, PrwParams, Vertex, pattern_key, validate_prw
from .dynamics import SimplicityReport
from .errors import ValidationError
from .lattice import Point, parse_tile
from .limits import DEFAULT_LIMITS, Limits
from .shifts import BlockCensus


def _point_key(p: Point) -> str:
    return f"{p[0]},{p[1]}"


def _parse_point_key(key: str) -> Point:
    try:
        x, y = key.split(",")
        return (int(x), int(y))
    except ValueError:
        raise ValidationError(f"bad point key {key!r}, expected 'x,y'") from None


def _typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``; a boolean is no integer."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValidationError(what)


def _tile(doc: dict, limits: Limits):
    what = "'tile' must be a list of [x, y] integer pairs"
    cells = [_typed(p, list, what) for p in _typed(doc["tile"], list, what)]
    if any(len(p) != 2 for p in cells):
        raise ValidationError(what)
    return parse_tile([[_typed(c, int, what) for c in p] for p in cells], limits)


def basic_data_from_dict(doc: dict, limits: Limits = DEFAULT_LIMITS) -> BasicData:
    from .data import validate_basic_data

    if not isinstance(doc, dict):
        raise ValidationError("basic data document must be a JSON object")
    for field in ("alphabet", "tile"):
        if field not in doc:
            raise ValidationError(f"basic data document is missing {field!r}")
    tile = _tile(doc, limits)
    what = "'bijections' must map pattern keys to lists of symbols"
    for row in _typed(doc.get("bijections") or {}, dict, what).values():
        _typed(row, list, what)
    return validate_basic_data(
        tile,
        _typed(doc["alphabet"], list, "'alphabet' must be a list of symbols"),
        doc.get("bijections"),
        distinguished=doc.get("distinguished"),
        limits=limits,
    )


def basic_data_to_dict(bd: BasicData) -> dict:
    doc: dict[str, Any] = {
        "alphabet": list(bd.alphabet.symbols),
        "tile": [list(p) for p in bd.tile.sorted_points],
    }
    if bd.degenerate:
        doc["distinguished"] = bd.distinguished
    else:
        doc["bijections"] = {
            pattern_key(pat): list(bd.bijections[pat])
            for pat in sorted(bd.bijections)
        }
    return doc


def prw_from_dict(doc: dict, limits: Limits = DEFAULT_LIMITS) -> PrwParams:
    if not isinstance(doc, dict):
        raise ValidationError("rule document must be a JSON object")
    for field in ("tile", "q", "t", "w"):
        if field not in doc:
            raise ValidationError(f"rule document is missing {field!r}")
    tile = _tile(doc, limits)
    what = "'w' must map point keys to integer weights"
    w = {
        _parse_point_key(k): _typed(v, int, what)
        for k, v in _typed(doc["w"], dict, what).items()
    }
    q, t = (_typed(doc[f], int, f"{f!r} must be an integer") for f in ("q", "t"))
    return validate_prw(tile, q, t, w)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        # Bad JSON and bad UTF-8 raise ValueError, deep nesting RecursionError.
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:
            raise ValidationError(f"{path}: not valid JSON ({err})") from None


def vertex_to_dict(v: Vertex) -> dict[str, str]:
    return {_point_key(p): s for p, s in v.labels}


def report_to_dict(report: SimplicityReport) -> dict:
    cert = report.verdict.certificate
    return {
        "verdict": report.verdict.status.value,
        "certificate": None
        if cert is None
        else {
            "colour": cert.colour,
            "symbol": cert.symbol,
            "kind": cert.kind,
            "vertices": [vertex_to_dict(v) for v in cert.vertices],
        },
        "witness_note": report.verdict.witness_note,
        "strongly_connected": report.strongly_connected,
        "k": report.connectivity_degree,
        "cofinal": report.cofinal,
        "flags": dict(report.flags),
        "justifications": dict(report.justifications),
        "notes": list(report.notes),
    }


def census_to_rows(census: list[BlockCensus]) -> list[dict]:
    return [
        {
            "d": row.d,
            "count": None if row.count is None else str(row.count),
            "log_count": row.log_count,
            "entropy_term": row.entropy_term,
        }
        for row in census
    ]


def census_to_csv(census: list[BlockCensus]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "count", "log_count", "entropy_term"])
    for row in census_to_rows(census):
        writer.writerow(
            [
                row["d"],
                "" if row["count"] is None else row["count"],
                f"{row['log_count']:.12g}",
                f"{row['entropy_term']:.12g}",
            ]
        )
    return buf.getvalue()


def dumps(doc: Any) -> str:
    """Deterministic JSON, as the CLI writes it on stdout and stderr.

    The result is byte-identical to ``json.dumps(doc, indent=2,
    sort_keys=True, ensure_ascii=False) + "\\n"`` for any document of dicts
    with string keys, lists, tuples, strings, ints, floats, booleans and
    ``None``, but it is built without the stdlib's pure-Python indenting
    encoder.  Strings and keys go through the stdlib's C string encoder and
    other scalars through its compact C encoder, so floats, ``NaN`` and
    ``Infinity`` read exactly as there.  A list whose items are lists or
    tuples of one length, all of plain ints (no bools), such as the
    skeleton's edge lists, is formatted by one ``%`` over its flattened
    items.
    """
    return _emit(doc, "\n") + "\n"


_encode_scalar = json.JSONEncoder().encode


def _emit(o: Any, nl: str) -> str:
    """``o`` as JSON, continuation lines starting with ``nl`` (a newline
    and the indent of the line ``o`` starts on)."""
    if isinstance(o, str):
        return encode_basestring(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        rows = _int_rows(o, nl, inner)
        if rows is not None:
            return rows
        body = ("," + inner).join([_emit(v, inner) for v in o])
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        body = ("," + inner).join(
            [encode_basestring(k) + ": " + _emit(v, inner)
             for k, v in sorted(o.items())]
        )
        return "{" + inner + body + nl + "}"
    return _encode_scalar(o)


def _int_rows(rows: list | tuple, nl: str, inner: str) -> str | None:
    """``rows`` as JSON if its items are equal-length lists or tuples of
    plain ints, else None."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    flat = tuple(chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return None
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(["%d"] * widths.pop()) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + nl + "]") % flat
