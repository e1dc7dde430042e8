"""Regenerate the benchmark's inputs and its recorded outputs.

    python3 perfbench/make_inputs.py            # inputs/ and inputs/manifest.json
    python3 perfbench/make_inputs.py --record   # expected.json from the current code

Inputs: the modular rules of the skeleton-scale workload and its smoke
version, the basic data the library imports from the 1024- and 16-vertex
rules (checked here against the rules' trace identity), and pools of
bijection tables with no breaking cycle, drawn at random with
``GENERATOR_SEED``.  The manifest holds each input's known
answers from :mod:`oracle`.  ``--record`` runs every job once and stores its
exit code and stdout digest; run it only on a commit whose output is the
reference.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

import oracle
import workloads

GENERATOR_SEED = 2009
POOL_SIZE = {"corner3": 8, "square2": 4}
SHAPES = {
    "corner3": ([[0, 0], [1, 0], [0, 1]], ["0", "1", "2"]),
    "square2": ([[0, 0], [1, 0], [0, 1], [1, 1]], ["0", "1"]),
}
CAP_TILE = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]
# Modular rules mod 4 with w = 3 except w(br) = 1 and t = 0, by vertex count.
# cap256 is only imported; cap16 stands in for cap1024 in the smoke mode.
RULES = {
    "cap1024": CAP_TILE,
    "cap256": [p for p in CAP_TILE if p != [1, 1]],
    "cap16": [[0, 0], [1, 0], [0, 1]],
}
WITH_DATA = ("cap1024", "cap16")
INPUT_DIR = os.path.join(workloads.HERE, "inputs")


def _write(name: str, doc: dict) -> None:
    path = os.path.join(INPUT_DIR, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _import(rule: dict) -> dict:
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    from tilegraphs.data import import_prw, validate_prw
    from tilegraphs.lattice import parse_tile
    from tilegraphs.serialize import basic_data_to_dict

    w = {tuple(map(int, k.split(","))): v for k, v in rule["w"].items()}
    params = validate_prw(parse_tile(map(tuple, rule["tile"])), rule["q"], rule["t"], w)
    return basic_data_to_dict(import_prw(params))


def make_graphs() -> dict:
    known = {}
    for name, tile in RULES.items():
        shape = oracle.Shape(tile)
        rule = {"tile": tile, "q": 4, "t": 0,
                "w": {f"{x},{y}": 1 if (x, y) == shape.br else 3 for x, y in shape.points}}
        _write(f"prw-{name}.json", rule)
        if name not in WITH_DATA:
            continue
        doc = _import(rule)
        verts = oracle.vertices(doc)
        labellings = {tuple(sorted(v.items())) for v in oracle.rule_labellings(rule)}
        if {tuple(sorted(v.items())) for v in verts} != labellings:
            raise SystemExit(f"{name}: imported data does not match its rule")
        per_colour = {len(oracle.edges(shape, verts, c)) for c in oracle.AXES}
        known[name] = {
            "vertices": len(verts),
            "edges_per_colour": per_colour.pop(),
            "verdict": oracle.verdict(doc),
        }
        _write(f"{name}.json", doc)
    if known["cap1024"] != {"vertices": 1024, "edges_per_colour": 16384,
                            "verdict": "AperiodicCertified"}:
        raise SystemExit(f"cap1024 known answers are off: {known['cap1024']}")
    return known


def draw_unknown() -> dict:
    rng = random.Random(GENERATOR_SEED)
    pools = {}
    for name, (tile, alphabet) in SHAPES.items():
        shape = oracle.Shape(tile)
        keys = [",".join(p) for p in itertools.product(alphabet, repeat=len(shape.reduced))]
        found: list[dict] = []
        for _ in range(20_000):
            table = {k: rng.sample(alphabet, len(alphabet)) for k in keys}
            doc = {"alphabet": alphabet, "tile": tile, "bijections": table}
            if doc not in found and oracle.verdict(doc) == "Unknown":
                found.append(doc)
                if len(found) == POOL_SIZE[name]:
                    break
        else:
            raise SystemExit(f"{name}: only {len(found)} Unknown tables found")
        pools[name] = []
        for i, doc in enumerate(found, start=1):
            fname = f"unknown/{name}-{i:02d}.json"
            _write(fname, doc)
            pools[name].append(fname)
    return pools


def record() -> None:
    import run

    expected = {}
    for job in workloads.all_jobs():
        res = run.spawn(job, "-", seed=0, timeout=600)
        if res.get("rc") != 0 or res.get("error"):
            raise SystemExit(f"{job.id}: exit {res.get('rc')} {res.get('error')}")
        bad = job.check(res["stdout"])
        if bad:
            raise SystemExit(f"{job.id}: {bad}")
        expected[job.id] = {"rc": res["rc"], "sha256": res["sha256"]}
        print(f"{res['run_s']:8.3f} s  {job.id}", flush=True)
    with open(workloads.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true", help="record expected.json")
    args = ap.parse_args()
    if args.record:
        record()
    else:
        _write("manifest.json", {
            "generator_seed": GENERATOR_SEED,
            "graphs": make_graphs(),
            "unknown": draw_unknown(),
        })
