import json
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import tilegraphs.cli as cli
from tilegraphs import Skeleton, build_skeleton, import_prw, parse_tile, validate_prw
from tilegraphs.cli import main
from tilegraphs.serialize import basic_data_from_dict, basic_data_to_dict, dumps

from conftest import DATA_DIR
from test_dynamics import identity_data, twin_witness_evidence

LEDRAPPIER = str(DATA_DIR / "ledrappier.json")
SQUARE = str(DATA_DIR / "square.json")
REM3 = str(DATA_DIR / "rem3.json")
FLAT = str(DATA_DIR / "flat.json")
PRW_LEDRAPPIER = str(DATA_DIR / "prw-ledrappier.json")
PRW_REM3 = str(DATA_DIR / "prw-rem3.json")


ONE_SYMBOL_TRIPOD = {
    "alphabet": ["a"],
    "tile": [[0, 0], [1, 0], [0, 1]],
    "bijections": {"a": ["a"]},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ledrappier(self, capsys):
        code, out, _ = run(capsys, "validate", LEDRAPPIER)
        assert code == 0
        assert out.strip() == "4 vertices, OK"

    def test_square(self, capsys):
        code, out, _ = run(capsys, "validate", SQUARE)
        assert code == 0
        assert out.strip() == "8 vertices, OK"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "validate", REM3, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == 8 and doc["vertex_count_identity"]

    def test_missing_bijection_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "alphabet": ["0", "1"],
                    "tile": [[0, 0], [1, 0], [0, 1]],
                    "bijections": {"0": ["0", "1"]},
                }
            )
        )
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "MissingPattern"

    def test_non_bijective_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "alphabet": ["0", "1"],
                    "tile": [[0, 0], [1, 0], [0, 1]],
                    "bijections": {"0": ["0", "1"], "1": ["0", "0"]},
                }
            )
        )
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "NotBijective"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2


class TestSkeleton:
    def test_ledrappier_dot(self, capsys):
        code, out, _ = run(capsys, "skeleton", LEDRAPPIER)
        assert code == 0
        assert out.count("->") == 16
        assert out.count("style=solid") == 8
        assert out.count("style=dashed") == 8
        assert out.count("[label=") == 4

    def test_square_dot_counts(self, capsys):
        code, out, _ = run(capsys, "skeleton", SQUARE)
        assert code == 0
        assert out.count("[label=") == 8
        assert out.count("style=solid") == 16
        assert out.count("style=dashed") == 16

    def test_single_symbol_loops(self, capsys, tmp_path):
        doc = {"alphabet": ["a"], "tile": [[0, 0], [1, 0], [0, 1]], "bijections": {"a": ["a"]}}
        f = tmp_path / "one.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "skeleton", str(f))
        assert code == 0
        assert out.count("[label=") == 1
        assert out.count("v0 -> v0") == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "skeleton", LEDRAPPIER, "--format", "json")
        doc = json.loads(out)
        assert len(doc["vertices"]) == 4
        assert len(doc["blue_edges"]) == 8 and len(doc["red_edges"]) == 8

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "skeleton", REM3)
        _, second, _ = run(capsys, "skeleton", REM3)
        assert first == second


class TestAnalyze:
    def test_ledrappier_flags(self, capsys):
        code, out, _ = run(capsys, "analyze", LEDRAPPIER)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "AperiodicCertified"
        assert doc["flags"] == {
            "unital": True,
            "simple": True,
            "purely_infinite": True,
        }
        assert doc["certificate"]["colour"] == "blue"
        assert doc["certificate"]["symbol"] == "0"
        assert doc["strongly_connected"] and doc["cofinal"]

    def test_flat_not_simple(self, capsys):
        code, out, _ = run(capsys, "analyze", FLAT)
        doc = json.loads(out)
        assert doc["verdict"] == "PeriodicFlatTile"
        assert doc["flags"]["simple"] is False
        assert doc["certificate"] is None

    def test_rem3_certified_by_blue_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", REM3)
        doc = json.loads(out)
        assert doc["verdict"] == "AperiodicCertified"
        assert doc["certificate"]["colour"] == "blue"
        assert doc["certificate"]["symbol"] == "0"

    def test_unknown_gets_witness_evidence(self, capsys, tmp_path):
        doc = {
            "alphabet": ["0", "1"],
            "tile": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "bijections": {
                "0,0": ["0", "1"],
                "0,1": ["0", "1"],
                "1,0": ["0", "1"],
                "1,1": ["0", "1"],
            },
        }
        f = tmp_path / "identity.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", str(f), "--witness-bound", "1,1")
        report = json.loads(out)
        assert report["verdict"] == "Unknown"
        assert any("bounded witness search" in note for note in report["notes"])
        # The batched evidence loop the CLI used to run gives the same note.
        bd = basic_data_from_dict(doc)
        assert report["notes"][-1] == twin_witness_evidence(bd, build_skeleton(bd), (1, 1))

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", LEDRAPPIER, "--format", "text")
        assert code == 0
        assert "verdict: AperiodicCertified" in out


class TestImportPrw:
    def test_ledrappier_round_trip(self, capsys):
        code, out, _ = run(capsys, "import-prw", PRW_LEDRAPPIER)
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphism_check"]["vertex_sets_equal"] is True
        assert doc["isomorphism_check"]["edge_sets_equal"] is True
        with open(LEDRAPPIER, encoding="utf-8") as fh:
            assert doc["basic_data"] == json.load(fh)

    def test_rem3_parameters(self, capsys):
        code, out, _ = run(capsys, "import-prw", PRW_REM3)
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphism_check"]["vertex_sets_equal"] is True
        # zero origin weight makes the rule ignore the first pattern slot
        assert doc["basic_data"]["bijections"]["1,0"] == ["0", "1"]

    def test_not_invertible_exits_2(self, capsys, tmp_path):
        f = tmp_path / "rule.json"
        f.write_text(
            json.dumps(
                {
                    "tile": [[0, 0], [1, 0], [0, 1]],
                    "q": 4,
                    "t": 0,
                    "w": {"0,0": 1, "1,0": 2, "0,1": 1},
                }
            )
        )
        code, _, err = run(capsys, "import-prw", str(f))
        assert code == 2
        assert json.loads(err)["error"] == "NotInvertible"


    @pytest.mark.parametrize("colour", ["blue", "red"])
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_edge_mismatch_prints_false(self, capsys, monkeypatch, colour, change):
        # The oracle must notice a skeleton that lost or gained one edge.
        real = cli.build_skeleton

        def tampered(bd, limits):
            sk = real(bd, limits)
            edges = set(sk.edges(colour))
            if change == "drop":
                edges.remove(sk.edges(colour)[-1])
            else:
                n = len(sk.vertices)
                edges.add(next(
                    (i, j) for i in range(n) for j in range(n) if (i, j) not in edges
                ))
            new = {"blue": sk.blue, "red": sk.red, colour: tuple(sorted(edges))}
            return Skeleton(bd, sk.vertices, new["blue"], new["red"], sk.index)

        monkeypatch.setattr(cli, "build_skeleton", tampered)
        code, out, _ = run(capsys, "import-prw", PRW_LEDRAPPIER, "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "imported 4 vertices",
            "vertex sets equal: True",
            "edge sets equal: False",
        ]


class TestEntropy:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "entropy", LEDRAPPIER, "--dmax", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,count,log_count,entropy_term"
        assert len(lines) == 5
        assert lines[1].startswith("1,16,")
        assert lines[2].startswith("2,64,")

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "entropy", SQUARE, "--dmax", "3", "--format", "json")
        doc = json.loads(out)
        assert [row["count"] for row in doc["census"]] == ["32", "128", "512"]


class TestVerify:
    def test_ledrappier_passes(self, capsys):
        code, out, _ = run(capsys, "verify", LEDRAPPIER, "--degree", "2,2")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_square_passes(self, capsys):
        code, out, _ = run(capsys, "verify", SQUARE, "--degree", "1,1")
        assert code == 0
        assert "FAIL" not in out

    def test_corrupted_table_fails_nonzero(self, capsys, tmp_path):
        # A well-formed file whose table is silently patched after load is
        # not constructible through the CLI; instead feed a file that fails
        # validation and confirm the validation diagnostics win.
        f = tmp_path / "broken.json"
        f.write_text(
            json.dumps(
                {
                    "alphabet": ["0", "1"],
                    "tile": [[0, 0], [1, 0], [0, 1]],
                    "bijections": {"0": ["0", "1"], "1": ["1", "1"]},
                }
            )
        )
        code, _, err = run(capsys, "verify", str(f))
        assert code == 2
        assert json.loads(err)["error"] == "NotBijective"

    def test_degree_parse_error(self, capsys):
        code, _, err = run(capsys, "verify", LEDRAPPIER, "--degree", "nope")
        assert code == 2


class TestSizeCaps:
    def test_vertex_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "--max-vertices", "3", "validate", LEDRAPPIER)
        assert code == 3
        assert json.loads(err)["error"] == "SizeLimit"

    def test_path_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "--max-paths", "10", "verify", SQUARE)
        assert code == 3
        assert json.loads(err)["error"] == "SizeLimit"


    def test_entropy_row_cap_exits_3(self, capsys):
        # Refused before the first row is counted, not after hours of rows.
        code, out, err = run(capsys, "entropy", FLAT, "--dmax", "99999999999")
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "SizeLimit",
            "message": "entropy census: 99999999999 rows exceed the path cap of 200000",
        }

    def test_entropy_rows_up_to_the_path_cap(self, capsys):
        argv = ("--max-paths", "5", "entropy", LEDRAPPIER, "--format", "json")
        code, out, _ = run(capsys, *argv, "--dmax", "5")
        assert code == 0 and len(json.loads(out)["census"]) == 5
        code, out, err = run(capsys, *argv, "--dmax", "6")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "entropy census: 6 rows exceed the path cap of 5"
        )

    def test_associativity_cap_exits_3(self, capsys, tmp_path):
        # A 1024-vertex modular rule has 33,554,432 composable edge triples:
        # verify must refuse them instead of composing for minutes.
        tile = parse_tile([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]])
        w = {p: 1 if p == tile.corner_br else 3 for p in tile.points}
        f = tmp_path / "cap.json"
        f.write_text(dumps(basic_data_to_dict(import_prw(validate_prw(tile, 4, 0, w)))))
        code, out, err = run(capsys, "verify", str(f), "--degree", "0,0")
        assert code == 3 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "SizeLimit"
        assert diag["message"].startswith("associativity: 33554432 ")

    def test_witness_bound_past_the_printable_range_exits_3_at_once(self, capsys, tmp_path):
        # 2 ** 2000000001 paths: refused from the exponent, neither built
        # nor printed in decimal.
        f = tmp_path / "identity.json"
        f.write_text(dumps(basic_data_to_dict(identity_data())))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "analyze", str(f), "--witness-bound", "1000000000,1000000000"
        )
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "SizeLimit",
            "message": "2**2000000001 paths of degree (1000000001, 1000000000) "
            "would exceed the cap of 200000",
        }

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"q": 1000001}, "1000002000001 vertices would exceed the cap of 1024"),
            ({"q": 10**4000 + 1}, f"{10**4000 + 1}**2 vertices would exceed the cap of 1024"),
            (
                {"tile": [[0, 0]], "q": 1025, "w": {"0,0": 1}},
                "1025 symbols would exceed the cap of 1024",
            ),
        ],
        ids=["1000001", "10**4000+1", "one-cell"],
    )
    def test_import_prw_modulus_cap_exits_3_at_once(self, capsys, tmp_path, change, message):
        # Checked before an alphabet of q symbols is built.
        f = tmp_path / "rule.json"
        f.write_text(json.dumps({**RULE_DOC, **change}))
        start = time.perf_counter()
        code, out, err = run(capsys, "import-prw", str(f))
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "SizeLimit", "message": message}

    @pytest.mark.parametrize(
        "doc,degree",
        [(FLAT, "1000000000000,0"), (None, "1000000000000,1000000000000")],
        ids=["flat", "one-cell"],
    )
    def test_split_cap_exits_3_at_once(self, capsys, tmp_path, doc, degree):
        # One path per degree, but (a + 1)(b + 1) degrees to split: refused
        # from the split count before the first walk.
        if doc is None:
            doc = tmp_path / "one-cell.json"
            doc.write_text(json.dumps(ONE_CELL_DOC))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "--max-paths", "2000", "verify", str(doc), "--degree", degree
        )
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "SizeLimit",
            "message": f"unique factorisation: the path splits of degrees up to "
            f"({degree.replace(',', ', ')}) exceed the path cap of 2000",
        }

    def test_split_cap_on_ledrappier(self, capsys):
        # 4 * (1 + 2 * 2 + 3 * 4) ** 2 = 1,156 splits at degree (2, 2).
        argv = ("verify", LEDRAPPIER, "--degree", "2,2")
        code, _, _ = run(capsys, "--max-paths", "1156", *argv)
        assert code == 0
        code, out, err = run(capsys, "--max-paths", "1155", *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "unique factorisation: the path splits of degrees up to (2, 2) "
            "exceed the path cap of 1155"
        )

    def test_vertex_count_past_the_printable_range_exits_3_at_once(
        self, capsys, tmp_path
    ):
        # A 15,000-cell row over two symbols has 2 ** 14999 vertices, more
        # than 4,300 decimal digits: named as a power, never printed.
        f = tmp_path / "row.json"
        doc = {"alphabet": ["0", "1"], "tile": [[x, 0] for x in range(15000)]}
        f.write_text(json.dumps({**doc, "bijections": {}}))
        start = time.perf_counter()
        code, out, err = run(capsys, "--max-tile-cells", "20000", "validate", str(f))
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "SizeLimit",
            "message": "2**14999 vertices would exceed the cap of 1024",
        }

    def test_one_path_per_degree_still_has_a_windows_cap(self, capsys, tmp_path):
        # The one-symbol tripod has one path at every degree and no breaking
        # cycle; the witness depth's windows are refused before any search.
        f = tmp_path / "tripod.json"
        f.write_text(json.dumps(ONE_SYMBOL_TRIPOD))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "analyze", str(f), "--witness-bound", "1000000000000,0"
        )
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "SizeLimit",
            "message": "the windows of a path of degree (1000000000001, 0) would "
            "exceed the cap of 200000",
        }
        code, out, _ = run(capsys, "analyze", str(f), "--witness-bound", "100,0")
        assert code == 0 and json.loads(out)["verdict"] == "Unknown"

    def test_one_cell_import_prw_up_to_the_vertex_cap(self, capsys, tmp_path):
        f = tmp_path / "rule.json"
        f.write_text(json.dumps({**RULE_DOC, "tile": [[0, 0]], "q": 1024, "w": {"0,0": 1}}))
        code, out, _ = run(capsys, "import-prw", str(f))
        assert code == 0
        assert len(json.loads(out)["basic_data"]["alphabet"]) == 1024


def test_repeated_runs_are_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        for argv in (
            ["analyze", LEDRAPPIER],
            ["entropy", REM3, "--dmax", "6"],
            ["skeleton", SQUARE],
        ):
            code = main(argv)
            assert code == 0
            outputs.add((tuple(argv), capsys.readouterr().out))
    assert len(outputs) == 3


def stdlib_json(text):
    """``text`` re-encoded by the stdlib's own indenting encoder."""
    doc = json.loads(text)
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "command", ["validate", "skeleton", "analyze", "import-prw", "entropy", "verify"]
)
@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_json_output_is_the_stdlib_encoding(capsys, command, path):
    # Basic data fed to import-prw, and rules fed to the rest, exit 2.
    code, out, err = run(capsys, command, str(path), "--format", "json")
    if code == 0:
        assert err == "" and out == stdlib_json(out)
    else:
        assert code == 2 and out == ""
        assert err == stdlib_json(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-vertices", "3", "skeleton", LEDRAPPIER, "--format", "json"],
        ["entropy", SQUARE, "--dmax", "99999999999", "--format", "json"],
        ["verify", "--degree", "1,é"],
    ],
)
def test_diagnostics_are_the_stdlib_encoding(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (2, 3) and out == ""
    assert err == stdlib_json(err)


TRIPOD = [[0, 0], [1, 0], [0, 1]]
LEDRAPPIER_DOC = {
    "alphabet": ["0", "1"],
    "tile": TRIPOD,
    "bijections": {"0": ["0", "1"], "1": ["1", "0"]},
}
RULE_DOC = {"tile": TRIPOD, "q": 2, "t": 0, "w": {"0,0": 1, "1,0": 1, "0,1": 1}}
ONE_CELL_DOC = {"alphabet": ["0", "1"], "tile": [[0, 0]], "distinguished": "1"}


@pytest.mark.parametrize(
    "command,change",
    [
        ("validate", {"tile": [[0]]}),
        ("validate", {"tile": 5}),
        ("validate", {"tile": [[0, 0], [1, 0], [0, True]]}),
        ("validate", {"bijections": [1, 2]}),
        ("validate", {"bijections": {"0": "01", "1": ["1", "0"]}}),
        ("validate", {"alphabet": "01"}),
        ("validate", {"alphabet": [["0"], ["1"]]}),
        ("import-prw", {"w": [1]}),
        ("import-prw", {"w": {"0,0": "1", "1,0": 1, "0,1": 1}}),
        ("import-prw", {"q": "x"}),
        ("import-prw", {"tile": 5}),
    ],
    ids=lambda x: x if isinstance(x, str) else json.dumps(x),
)
def test_malformed_document_exits_2(capsys, tmp_path, command, change):
    base = LEDRAPPIER_DOC if command == "validate" else RULE_DOC
    f = tmp_path / "doc.json"
    f.write_text(json.dumps({**base, **change}))
    code, out, err = run(capsys, command, str(f))
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "contents",
    [None, b"\xff\xfe{}", b"[" * 100_000],
    ids=["directory", "not-utf8", "deeply-nested"],
)
def test_unreadable_input_exits_2(capsys, tmp_path, contents):
    f = tmp_path / "input"
    if contents is None:
        f.mkdir()
    else:
        f.write_bytes(contents)
    code, out, err = run(capsys, "validate", str(f))
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


BAD_ARGUMENTS = [
    ["entropy", LEDRAPPIER, "--dmax", "0"],
    ["entropy", LEDRAPPIER, "--dmax", "-3"],
    ["entropy", LEDRAPPIER, "--dmax", "x"],
    ["--max-paths", "0", "verify", LEDRAPPIER],
    ["--max-vertices", "0", "validate", LEDRAPPIER],
    ["--max-tile-cells", "-1", "validate", LEDRAPPIER],
    ["verify", LEDRAPPIER, "--degree", "nope"],
]


@pytest.mark.parametrize(
    "argv", BAD_ARGUMENTS, ids=lambda argv: " ".join(a for a in argv if a != LEDRAPPIER)
)
def test_bad_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [["--help"], ["entropy", "--help"]])
def test_help_exits_0_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: tilegraphs")


# -- the grammar table's two readers -------------------------------------------

ROOT = DATA_DIR.parent


def benchmark_argvs():
    """The argv of every job the benchmark can run, from perfbench/workloads.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [job.argv for job in workloads.all_jobs()]


BENCHMARK_ARGVS = benchmark_argvs()
CORPUS = [
    *BENCHMARK_ARGVS,
    ["--help"],
    *([name, "--help"] for name in cli._COMMANDS),
    *BAD_ARGUMENTS,
]


@pytest.mark.parametrize(
    "argv", CORPUS, ids=lambda argv: " ".join(a for a in argv if a != LEDRAPPIER)
)
def test_argparse_alone_runs_the_corpus_the_same(capsys, monkeypatch, argv):
    # Exit code, stdout and stderr are the same whether the reader or
    # argparse reads the line, and the reader reads every benchmark job.
    monkeypatch.chdir(ROOT)
    assert (cli._read_argv(argv) is not None) == (argv in BENCHMARK_ARGVS)
    shipped = run(capsys, *argv)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert run(capsys, *argv) == shipped


def argparse_reads(argv):
    """``vars`` of argparse's namespace for ``argv``, or the name of its error."""
    try:
        return vars(cli.build_parser().parse_args(argv))
    except (cli.UsageError, SystemExit) as exc:
        return type(exc).__name__


CAP_FLAGS = list(cli._CAPS)
COMMAND_FLAGS = sorted({flag for *_, options in cli._COMMANDS.values() for flag in options})
VALID = {"--format": ["text", "json", "dot", "csv"], "--degree": ["0,1", "(1,2)"],
         "--witness-bound": ["0,1", "(1,2)"]}  # and "1", "8" for the rest
VALUES = [
    "1", "8", "200000", "0", "-3", "x", "0,1", "(1,2)", "-0,1", "-1,2", "nope",
    "text", "json", "dot", "csv", "yaml", "",
]
STRAYS = ["-h", "--help", "--format=json", "--max-p", "--", "-", "other.json", *VALUES]


@st.composite
def command_lines(draw):
    """Mostly canonical lines: cap flags, a subcommand, its flags and a file,
    with flags of the other level, extra files and stray tokens mixed in."""

    def flags(pool):
        line = []
        for flag in draw(st.lists(st.sampled_from(pool), max_size=3)):
            valid = st.sampled_from(VALID.get(flag, ["1", "8"]))
            line += [flag, draw(st.one_of(valid, valid, st.sampled_from(VALUES)))]
        return line

    tail = flags(COMMAND_FLAGS + draw(st.sampled_from([[], [], CAP_FLAGS])))
    for file in [LEDRAPPIER, "other.json"][: draw(st.sampled_from([1, 1, 1, 0, 2]))]:
        tail.insert(draw(st.sampled_from(range(0, len(tail) + 1, 2))), file)
    argv = [*flags(CAP_FLAGS), draw(st.sampled_from(list(cli._COMMANDS))), *tail]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAYS)))
    return argv


@given(command_lines())
@example(["--max-paths", "8", "entropy", "--format", "json", LEDRAPPIER, "--dmax", "3"])
@example(["verify", LEDRAPPIER, "--format", "yaml"])  # a value outside the choices
@example(["validate", LEDRAPPIER, "--max-paths", "8"])  # a cap after the subcommand
@example(["validate", LEDRAPPIER, "other.json"])  # a second file
@example(["verify", "--degree", "-0,1", LEDRAPPIER])  # a value starting with "-"
@settings(max_examples=300, deadline=None)
def test_the_reader_agrees_with_argparse(argv):
    # Where the reader gives a namespace, argparse gives an equal one.
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == argparse_reads(argv)


def test_the_readers_share_every_default(monkeypatch):
    # Every option gets a default that no literal holds; a reader that kept a
    # default of its own would then disagree with argparse.
    options = [cli._CAPS, *(options for *_, options in cli._COMMANDS.values())]
    for i, keywords in enumerate(kw for table in options for kw in table.values()):
        monkeypatch.setitem(keywords, "default", ("default", i))
    for name in cli._COMMANDS:
        args = cli._read_argv([name, LEDRAPPIER])
        assert vars(args) == argparse_reads([name, LEDRAPPIER])
        assert args.max_paths[0] == args.format[0] == "default"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# A valid document with some fields replaced, so values also reach the
# schema checks past the first field.
NEAR_VALID = st.builds(
    lambda base, change: {**base, **change},
    st.sampled_from([LEDRAPPIER_DOC, RULE_DOC]),
    st.dictionaries(
        st.sampled_from(["alphabet", "tile", "bijections", "q", "t", "w"]),
        JSON_VALUES,
        max_size=2,
    ),
)
SUBCOMMANDS = {
    "validate": [],
    "skeleton": ["--format", "json"],
    "analyze": ["--witness-bound", "0,0"],
    "import-prw": [],
    "entropy": ["--dmax", "2"],
    "verify": ["--degree", "1,1"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@given(doc=st.one_of(JSON_VALUES, NEAR_VALID))
@example(doc={**RULE_DOC, "q": 2**70})
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_json_value_gets_an_exit_code_and_a_diagnostic(
    capsys, tmp_path, command, doc
):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        "--max-tile-cells", "8", "--max-vertices", "64", "--max-paths", "2000",
        command, str(f), *SUBCOMMANDS[command],
    )
    assert code in (0, 2, 3)
    if code:
        assert "error" in json.loads(err)


DEGREES = st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)).map(
    lambda d: f"{d[0]},{d[1]}"
)


@given(
    doc=st.sampled_from([
        LEDRAPPIER_DOC,
        basic_data_to_dict(identity_data()),
        json.loads((DATA_DIR / "flat.json").read_text()),
        ONE_CELL_DOC,
    ]),
    option=st.one_of(
        st.tuples(st.just("analyze"), st.just("--witness-bound"), DEGREES),
        st.tuples(st.just("verify"), st.just("--degree"), DEGREES),
        st.tuples(st.just("entropy"), st.just("--dmax"), st.integers(0, 10**12).map(str)),
    ),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(doc=LEDRAPPIER_DOC, option=("verify", "--degree", "1000000000000,1000000000000"))
@example(doc=LEDRAPPIER_DOC, option=("entropy", "--dmax", "1000000000000"))
def test_any_degree_or_row_count_gets_an_exit_code_and_a_diagnostic(
    capsys, tmp_path, doc, option
):
    # Caps are checked from the sizes asked for: no count is built or
    # printed beyond what Python can handle, whatever the option's value.
    # The identity table has no breaking cycle, so its witness bound is used;
    # the flat row and the one-cell table have one path per degree along an
    # axis, so only the split count bounds their verify.
    command, flag, value = option
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        "--max-tile-cells", "8", "--max-vertices", "64", "--max-paths", "2000",
        command, str(f), flag, value,
    )
    assert code in (0, 2, 3)
    if code:
        assert "error" in json.loads(err)
