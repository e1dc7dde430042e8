"""The benchmark's jobs and the known answers their outputs must match.

A job is one CLI invocation.  Its id is its argv joined by spaces; paths are
relative to the repository root.  Every job's stdout is checked twice: its
SHA-256 must equal the digest recorded in ``expected.json`` (CLI output is
byte-identical by contract), and its content must agree with an answer
derived in :mod:`oracle` or stated in the README, never by the library.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = "perfbench/inputs"
MANIFEST = os.path.join(HERE, "inputs", "manifest.json")
EXPECTED = os.path.join(HERE, "expected.json")

BUNDLED = ["ledrappier", "square", "rem3", "flat"]
# Tables per witness-unknown run, drawn from each pool by the run's seed.
WITNESS_DRAW = {"corner3": 4, "square2": 2}


class Job:
    def __init__(self, argv: list[str], check):
        self.argv = argv
        self.id = " ".join(argv)
        self.check = check  # stdout -> None if right, else a message


def _doc(path: str) -> dict:
    return oracle.load(os.path.join(ROOT, path))


def manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


# -- known-answer checks -------------------------------------------------------

def check_verify(out: str):
    lines = out.splitlines()
    names = [ln.split(":")[0].split(" ", 1)[-1] for ln in lines]
    want = ["vertex-count", "degree-counts", "commuting-squares",
            "unique-factorisation", "associativity"]
    if names != want or not all(ln.startswith("PASS ") for ln in lines):
        return "the axiom battery does not pass every check"
    return None


def check_entropy(path: str, dmax: int):
    doc = _doc(path)

    def check(out: str):
        rows = list(csv.reader(out.splitlines()))
        if rows[0] != ["d", "count", "log_count", "entropy_term"] or len(rows) != dmax + 1:
            return "census is not a header plus one row per d"
        for d, row in enumerate(rows[1:], start=1):
            want = oracle.block_count(doc, d)
            if int(row[0]) != d or int(row[1]) != want:
                return f"block count at d={d} is {row[1]}, expected {want}"
            if not math.isclose(float(row[2]), math.log(want), rel_tol=1e-9, abs_tol=1e-9):
                return f"log count at d={d} is {row[2]}"
        return None

    return check


def _import_summary(rule: dict) -> list[str]:
    """The ``import-prw --format text`` lines a right import prints."""
    return [f"imported {len(oracle.rule_labellings(rule))} vertices",
            "vertex sets equal: True", "edge sets equal: True"]


def _same_basic_data(a: dict, b: dict) -> bool:
    def norm(d):
        return (list(d["alphabet"]), sorted(map(tuple, d["tile"])), d.get("bijections"))

    return norm(a) == norm(b)


def check_import_json(rule_path: str, same_as: str | None):
    want = _import_summary(_doc(rule_path))

    def check(out: str):
        doc = json.loads(out)
        iso = doc["isomorphism_check"]
        got = [f"imported {iso['vertices']} vertices",
               f"vertex sets equal: {iso['vertex_sets_equal']}",
               f"edge sets equal: {iso['edge_sets_equal']}"]
        if got != want:
            return f"isomorphism summary {got}, expected {want}"
        if same_as and not _same_basic_data(doc["basic_data"], _doc(same_as)):
            return f"imported data differs from {same_as}"
        return None

    return check


def check_import_text(rule_path: str):
    want = _import_summary(_doc(rule_path))

    def check(out: str):
        got = out.splitlines()
        return None if got == want else f"import summary {got}, expected {want}"

    return check


def _labelling(d: dict) -> dict:
    return {tuple(map(int, k.split(","))): s for k, s in d.items()}


def check_skeleton_json(path: str, known: dict):
    doc = _doc(path)
    shape = oracle.Shape(doc["tile"])

    def check(out: str):
        sk = json.loads(out)
        verts = [_labelling(v) for v in sk["vertices"]]
        if len(verts) != known["vertices"]:
            return f"{len(verts)} vertices, expected {known['vertices']}"
        want = {tuple(sorted(v.items())) for v in oracle.vertices(doc)}
        if {tuple(sorted(v.items())) for v in verts} != want:
            return "vertex set differs from the table's labellings"
        for colour in ("blue", "red"):
            have = {tuple(e) for e in sk[f"{colour}_edges"]}
            if len(have) != known["edges_per_colour"]:
                return f"{len(have)} {colour} edges, expected {known['edges_per_colour']}"
            if have != oracle.edges(shape, verts, colour):
                return f"{colour} edges differ from the overlap condition"
        return None

    return check


def check_analyze(path: str, verdict: str):
    doc = _doc(path)
    shape = oracle.Shape(doc["tile"])

    def check(out: str):
        rep = json.loads(out)
        if rep["verdict"] != verdict:
            return f"verdict {rep['verdict']}, expected {verdict}"
        cert = rep["certificate"]
        if verdict == "Unknown":
            witnessed = any(n.startswith("bounded witness search") for n in rep["notes"])
            return None if cert is None and witnessed else "no witness evidence note"
        if verdict != "AperiodicCertified":
            return None
        verts = [_labelling(v) for v in cert["vertices"]]
        keys = [tuple(sorted(v.items())) for v in verts]
        admitted = {tuple(sorted(v.items())) for v in oracle.vertices(doc)}
        other = "red" if cert["colour"] == "blue" else "blue"
        if len(set(keys)) != len(keys) or len(keys) < 2 or not admitted.issuperset(keys):
            return "certificate vertices are not two or more distinct vertices"
        if any(v[p] != cert["symbol"] for v in verts for p in shape.overlap[other]):
            return "certificate vertices do not read the symbol"
        steps = [(v, v) for v in verts] if cert["kind"] == 2 else list(
            zip(verts, verts[1:] + verts[:1]))
        if not all(oracle.edge_ok(shape, v, u, cert["colour"]) for v, u in steps):
            return "certificate is not a cycle of the colour"
        return None

    return check


# -- workloads -----------------------------------------------------------------

def axioms(seed: int, smoke: bool = False) -> list[Job]:
    """verify and entropy on the bundled graphs, import on the bundled rules."""
    jobs = []
    for g in BUNDLED[:1] if smoke else BUNDLED:
        path = f"data/{g}.json"
        jobs.append(Job(["verify", path], check_verify))
        jobs.append(Job(["entropy", "--dmax", "12", path], check_entropy(path, 12)))
    rules = [("prw-ledrappier", "data/ledrappier.json"), ("prw-rem3", None)]
    for rule, same_as in rules[:1] if smoke else rules:
        path = f"data/{rule}.json"
        jobs.append(Job(["import-prw", path], check_import_json(path, same_as)))
    return jobs


def skeleton_scale(seed: int, smoke: bool = False) -> list[Job]:
    """The 1024-vertex skeleton and report, and a 256-vertex rule import."""
    known = manifest()["graphs"]
    name = "cap16" if smoke else "cap1024"
    graph = f"{INPUTS}/{name}.json"
    rule = f"{INPUTS}/prw-cap16.json" if smoke else f"{INPUTS}/prw-cap256.json"
    return [
        Job(["skeleton", "--format", "json", graph], check_skeleton_json(graph, known[name])),
        Job(["analyze", graph], check_analyze(graph, known[name]["verdict"])),
        Job(["import-prw", "--format", "text", rule], check_import_text(rule)),
    ]


def _unknown_job(name: str) -> Job:
    path = f"{INPUTS}/{name}"
    return Job(["analyze", path], check_analyze(path, "Unknown"))


def witness_unknown(seed: int, smoke: bool = False) -> list[Job]:
    """analyze on Unknown-verdict tables drawn from the pools by the seed."""
    pools = manifest()["unknown"]
    if smoke:
        return [_unknown_job(pools["square2"][0])]
    rng = random.Random(seed)
    return [_unknown_job(f) for shape, k in WITNESS_DRAW.items()
            for f in rng.sample(pools[shape], k)]


WORKLOADS = {
    "axioms": axioms,
    "skeleton-scale": skeleton_scale,
    "witness-unknown": witness_unknown,
}


def all_jobs() -> list[Job]:
    """Every job any seed or the smoke mode can run, once each."""
    pools = manifest()["unknown"]
    return (axioms(0) + skeleton_scale(0) + skeleton_scale(0, smoke=True)
            + [_unknown_job(f) for shape in WITNESS_DRAW for f in pools[shape]])
