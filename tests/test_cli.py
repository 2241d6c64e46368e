from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c1atlas
from c1atlas import nilcon, verify
from c1atlas.catalog import default_catalog, find_space
from c1atlas.classify import classify
from c1atlas.cli import main, render_hasse
from c1atlas.errors import C1AtlasError, CheckFailed
from c1atlas.rootsys import FAMILIES, FIXED_RANK, RootSystem, root_system
from c1atlas.verify import CHECKS, run_verify

TG_SAMPLE = str(Path(__file__).parent / "data" / "tg_table_sample.json")
# Recorded stdout of `shape`, text and JSON, on split and complexified models
# over both scalar rings, with zero and nonzero shape operators.
SHAPE_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "shape_outputs.json").read_text(encoding="utf-8")
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text_and_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "BC", "--rank", "2")
    assert code == 0 and "6 positive roots" in out
    code, out, _ = run(capsys, "roots", "--type", "BC", "--rank", "2", "--format", "json")
    payload = json.loads(out)
    assert len(payload) == 6
    assert {tuple(r["coeffs"]) for r in payload} == {
        (1, 0), (0, 1), (1, 1), (1, 2), (0, 2), (2, 2),
    }


def test_grading_f4_level_one_json(capsys):
    code, out, _ = run(
        capsys, "grading", "--type", "F4", "--j", "1", "--level", "1", "--format", "json"
    )
    assert code == 0
    vectors = json.loads(out)
    assert len(vectors) == 14
    assert all(v[0] == 1 for v in vectors)


def test_grading_level_zero_lists_the_level_zero_positives(capsys):
    # A3 at a2: level 0 is spanned by a1 and a3, which are orthogonal.
    code, out, _ = run(capsys, "grading", "--type", "A", "--rank", "3", "--j", "2")
    assert code == 0 and "level 0 (subsystem): 2 roots" in out
    code, out, _ = run(capsys, "grading", "--type", "A", "--rank", "3", "--j", "2", "--level", "0")
    assert code == 0
    assert out == "level 0 of the grading at a2 (2 roots)\na3\na1\n"
    code, out, _ = run(
        capsys, "grading", "--type", "A", "--rank", "3", "--j", "2", "--level", "0", "--format", "json"
    )
    assert code == 0 and json.loads(out) == [[0, 0, 1], [1, 0, 0]]
    code, out, _ = run(capsys, "grading", "--type", "F4", "--j", "1", "--format", "json")
    summary = json.loads(out)["level_zero_positives"]
    code, out, _ = run(capsys, "grading", "--type", "F4", "--j", "1", "--level", "0", "--format", "json")
    assert json.loads(out) == summary and len(summary) == 9


def test_grading_negative_level_lists_the_negated_roots(capsys):
    # A3 at a2: level 1 is a2, a2+a3, a1+a2, a1+a2+a3; level -1 their negatives
    code, out, _ = run(capsys, "grading", "--type", "A", "--rank", "3", "--j", "2", "--level", "-1")
    assert code == 0
    assert out == "level -1 of the grading at a2 (4 roots)\n-a2\n-a2-a3\n-a1-a2\n-a1-a2-a3\n"
    code, out, _ = run(
        capsys, "grading", "--type", "F4", "--j", "1", "--level", "1", "--format", "json"
    )
    level_one = json.loads(out)
    code, out, _ = run(
        capsys, "grading", "--type", "F4", "--j", "1", "--level", "-1", "--format", "json"
    )
    assert code == 0 and json.loads(out) == [[-c for c in v] for v in level_one]
    code, out, _ = run(capsys, "grading", "--type", "F4", "--j", "1", "--level", "-3")
    assert code == 0 and out.startswith("level -3 of the grading at a1 (0 roots)")


def test_grading_summary_roundtrip(capsys):
    code, out, _ = run(capsys, "grading", "--type", "C", "--rank", "5", "--j", "5", "--format", "json")
    payload = json.loads(out)
    assert len(payload["levels"]["1"]) == 15
    assert json.loads(json.dumps(payload)) == payload


def test_strings_subcommand(capsys):
    code, out, _ = run(
        capsys, "strings", "--type", "G2", "--root", "1,0", "--beta", "0,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [[1, 0], [1, 1], [1, 2], [1, 3]]
    code, out, _ = run(
        capsys, "strings", "--type", "B", "--rank", "5", "--root", "0,0,0,0,1", "--phi", "1,2,3,4"
    )
    assert code == 0 and "5 roots" in out


@pytest.mark.parametrize(
    "extra",
    [
        ("--root", "1,0", "--phi", "7"),
        ("--root", "2,0"),
        ("--root", "1,0", "--beta", "3,3"),
        ("--root", "1,-1"),
    ],
    ids=["phi-out-of-range", "non-root", "beta-non-root", "mixed-sign"],
)
def test_strings_bad_input_is_a_data_error(capsys, extra):
    code, out, err = run(capsys, "strings", "--type", "A", "--rank", "2", *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_single_and_sweep(capsys):
    code, out, _ = run(capsys, "analyze", "--space", "G2^2/SO(4)", "--j", "2")
    assert code == 0 and "SURVIVES_W_ZERO_G2" in out
    code, out, _ = run(capsys, "analyze", "--all", "--format", "json")
    verdicts = json.loads(out)
    sur = [[v["space"], v["j"]] for v in verdicts if v["status"].startswith("SURVIVES")]
    assert sorted(sur) == [["G2(C)/G2", 2], ["G2^2/SO(4)", 2]]


def test_analyze_requires_arguments(capsys):
    code, out, err = run(capsys, "analyze")
    assert code == 2 and "analyze needs" in err


def test_shape_subcommand_dichotomy(capsys):
    code, out, _ = run(capsys, "shape", "--space", "G2^2/SO(4)", "--j", "1")
    assert code == 0 and "is totally geodesic" in out
    code, out, _ = run(capsys, "shape", "--space", "G2^2/SO(4)", "--j", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["totally_geodesic"] is False
    assert any(
        any(any(x != "0" for x in row) for row in op["matrix"]) for op in payload["operators"]
    )


@pytest.mark.parametrize(
    "expected", SHAPE_OUTPUTS, ids=lambda e: f"{e['argv'][2]}-j{e['argv'][4]}-{e['argv'][6]}"
)
def test_shape_output_matches_recording(capsys, expected):
    code, out, _ = run(capsys, *expected["argv"])
    assert code == 0 and out == expected["stdout"]


@pytest.mark.parametrize(
    "argv",
    [
        ("shape", "--space", "G2^2/SO(4)", "--j", "7"),
        ("grading", "--type", "G2", "--j", "9"),
        ("analyze", "--space", "G2^2/SO(4)", "--j", "5"),
    ],
    ids=["shape", "grading", "analyze"],
)
def test_out_of_range_j_is_a_data_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "out of range for rank 2" in err


def test_shape_rejects_nonmodel_spaces(capsys):
    code, _, err = run(capsys, "shape", "--space", "E6^{-14}", "--j", "1")
    assert code == 1 and "neither split nor complexified" in err


def test_classify_subcommand(capsys):
    code, out, _ = run(capsys, "classify", "--space", "E6^{-14}", "--format", "json")
    payload = json.loads(out)
    nil = [f for f in payload["families"] if f["kind"] == "NILPOTENT"]
    assert nil[0]["parameters"]["moduli"]["formula"] == "(0,π/2) × {2,4,…,2⌊n/2⌋} ⊔ {π/2} × {2,…,n}"
    code, out, _ = run(
        capsys, "classify", "--space", "CH^3", "--space", "CH^3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["spaces"] == ["CH^3", "CH^3"]
    assert any(f["kind"] == "CE_DIAGONAL" for f in payload["families"])


def test_classify_refuses_when_sweep_and_catalog_disagree(capsys, monkeypatch, catalog):
    analyze = nilcon.analyze

    def demote_survivor(space, j):
        verdict = analyze(space, j)
        if verdict.status == nilcon.SURVIVES_W_ZERO_G2:
            return nilcon.NCVerdict(space.name, j, nilcon.W_ZERO_TOTALLY_GEODESIC)
        return verdict

    monkeypatch.setattr(nilcon, "analyze", demote_survivor)
    with pytest.raises(C1AtlasError, match="disagree"):
        classify([find_space(catalog, "G2^2/SO(4)")])
    code, out, err = run(capsys, "classify", "--space", "G2^2/SO(4)")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "disagree" in err


def test_classify_with_tg_table(capsys):
    code, out, _ = run(
        capsys, "classify", "--space", "RH^2", "--tg-table", TG_SAMPLE, "--format", "json"
    )
    payload = json.loads(out)
    (fam,) = [f for f in payload["families"] if f["kind"] == "CE_TOTALLY_GEODESIC"]
    assert isinstance(fam["parameters"]["actions"], list)


def test_catalog_subcommand_filters(capsys):
    code, out, _ = run(capsys, "catalog", "--family", "G2", "--format", "json")
    names = {e["name"] for e in json.loads(out)}
    assert names == {"G2^2/SO(4)", "G2(C)/G2"}
    code, out, _ = run(capsys, "catalog", "--min-rank", "5")
    assert code == 0 and "E8^8/SO(16)" in out


def test_unknown_space_is_a_data_error(capsys):
    code, _, err = run(capsys, "analyze", "--space", "nope", "--j", "1")
    assert code == 1 and "not in the catalog" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots"])  # missing --type
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_rank_is_a_usage_error(capsys):
    code, _, err = run(capsys, "roots", "--type", "A")
    assert code == 2 and "--rank is required" in err


def test_classify_without_a_space_is_a_usage_error(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 2 and out == ""
    assert err == "error: classify needs --space (repeatable) or --all\n"


def test_shape_accepts_only_w_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shape", "--space", "G2^2/SO(4)", "--j", "1", "--w", "full"])
    assert exc.value.code == 2
    assert "invalid choice: 'full'" in capsys.readouterr().err


def test_catalog_override_via_flag_and_env(tmp_path, capsys, monkeypatch):
    small = {
        "schema_version": 1,
        "spaces": [
            {"name": "only", "family": "A", "rank": 1, "mults": {"2": 1}, "dim": 2}
        ],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(small))
    code, out, _ = run(capsys, "catalog", "--catalog", str(path), "--format", "json")
    assert [e["name"] for e in json.loads(out)] == ["only"]
    monkeypatch.setenv("C1_ATLAS_CATALOG", str(path))
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert [e["name"] for e in json.loads(out)] == ["only"]


@pytest.mark.parametrize(
    "argv",
    [("catalog", "--catalog"), ("classify", "--space", "RH^2", "--tg-table")],
    ids=["catalog", "tg-table"],
)
def test_unreadable_data_path_is_a_data_error(tmp_path, capsys, argv):
    # a directory where a JSON file is expected raises IsADirectoryError
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("catalog", "--catalog"), ("classify", "--space", "RH^2", "--tg-table")],
    ids=["catalog", "tg-table"],
)
@pytest.mark.parametrize(
    "content",
    [b'{"spaces": [\xff]}', b"[" * 100_000, b"[" + b"1" * 5000 + b"]"],
    ids=["not-utf8", "deep-nesting", "int-past-the-digit-limit"],
)
def test_undecodable_json_is_a_data_error(tmp_path, capsys, argv, content):
    path = tmp_path / "data.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("key", ["1/0", "1e999999", "1e9999999"], ids=["zero-denominator", "exponent", "huge-exponent"])
def test_length_key_that_is_not_a_plain_number_is_a_data_error(tmp_path, capsys, key):
    # Fraction would take an exponent: "1e9999999" builds a ten-million-digit int
    path = tmp_path / "cat.json"
    entry = {"name": "bad", "family": "A", "rank": 1, "mults": {key: 1}, "dim": 2}
    path.write_text(json.dumps({"schema_version": 1, "spaces": [entry]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "catalog", "--catalog", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: bad: root length {key!r} is not n, n/d with d > 0, or a decimal\n"


_SL3 = {"name": "SL(3,R)/SO(3)", "family": "A", "rank": 2, "mults": {"2": 1}, "dim": 5}
_SU21 = {"name": "SU(2,1)/S(U(2)U(1))", "family": "BC", "rank": 1, "mults": {"1": 2, "4": 1}, "dim": 4}


@pytest.mark.parametrize(
    "entries, repeated",
    [
        # find_space would answer SU(2,1)/S(U(2)U(1)) with the SL(3,R)/SO(3) entry
        ([{**_SL3, "aliases": [_SU21["name"]]}, _SU21], _SU21["name"]),
        ([{**_SL3, "aliases": [_SL3["name"]]}, _SU21], _SL3["name"]),
        ([{**_SL3, "aliases": ["Gr"]}, {**_SU21, "aliases": ["Gr"]}], "Gr"),
    ],
    ids=["alias-is-another-name", "alias-is-its-own-name", "alias-of-two-entries"],
)
def test_repeated_name_or_alias_is_a_data_error(tmp_path, capsys, entries, repeated):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"schema_version": 1, "spaces": entries}))
    code, out, err = run(capsys, "analyze", "--space", _SU21["name"], "--j", "1", "--catalog", str(path))
    assert code == 1 and out == ""
    assert err == f"error: duplicate space names or aliases in catalog: {repeated}\n"


_MULT_ZERO = {"name": "bad", "family": "A", "rank": 1, "mults": {"2": 0}, "dim": 1}
_SPLIT_STRING = {"name": "bad", "family": "A", "rank": 2, "mults": {"2": 1}, "dim": 5, "split": "no"}
# "SL" must not load as the two aliases "S" and "L"
_STRING_ALIASES = {"name": "bad", "family": "A", "rank": 1, "mults": {"2": 1}, "dim": 2, "aliases": "SL"}


@pytest.mark.parametrize(
    "argv, entry",
    [
        (("analyze", "--all"), _MULT_ZERO),
        (("classify", "--all"), _MULT_ZERO),
        (("shape", "--space", "bad", "--j", "1"), _SPLIT_STRING),
        (("analyze", "--space", "S", "--j", "1"), _STRING_ALIASES),
    ],
    ids=["analyze-mult-zero", "classify-mult-zero", "shape-split-string", "analyze-string-aliases"],
)
def test_bad_catalog_entry_is_a_data_error(tmp_path, capsys, argv, entry):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"schema_version": 1, "spaces": [entry]}))
    code, out, err = run(capsys, *argv, "--catalog", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_tg_table_without_an_actions_object_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"actions": "RH^2"}))
    code, out, err = run(capsys, "classify", "--space", "RH^2", "--tg-table", str(path))
    assert code == 1 and out == ""
    assert err == "error: table needs an 'actions' object keyed by space name\n"


@pytest.mark.parametrize("value", [5, [5], {"label": "point"}], ids=["int", "list-of-int", "object"])
def test_tg_table_value_that_is_not_a_list_of_actions_is_a_data_error(tmp_path, capsys, value):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"actions": {"RH^2": value}}))
    code, out, err = run(capsys, "classify", "--space", "RH^2", "--tg-table", str(path))
    assert code == 1 and out == ""
    assert err == "error: table entry 'RH^2' must be a list of action objects\n"


def test_rank_above_the_cap_is_a_data_error(capsys):
    code, out, err = run(capsys, "roots", "--type", "A", "--rank", "100000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "cap of 20" in err


def test_hasse_text_and_dot(capsys):
    code, out, _ = run(capsys, "grading", "--type", "B", "--rank", "5", "--j", "1", "--hasse")
    assert code == 0 and "9 nodes" in out
    assert out.count("--a") == 8  # a chain has eight covering edges
    dot = render_hasse(root_system("F4", 4), 4, dot=True)
    assert dot.startswith("digraph")
    assert dot.count("->") == 8  # the eight-node diamond has eight edges
    assert 'label="a1"' in dot


def test_hasse_json(capsys):
    # F4 at a4: the eight level-one roots form a diamond with eight edges
    code, out, _ = run(capsys, "grading", "--type", "F4", "--j", "4", "--hasse", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and set(payload) == {"j", "nodes", "edges"} and payload["j"] == 4
    rs = root_system("F4", 4)
    assert payload["nodes"] == [list(lam.coeffs) for lam in rs.maximal_grading(4).level(1)]
    assert len(payload["edges"]) == 8
    for a, b, i in payload["edges"]:
        assert a in payload["nodes"] and b in payload["nodes"]
        assert [y - x for x, y in zip(a, b)] == list(rs.simple(i).coeffs)
    text = render_hasse(rs, 4)
    assert all(f"--a{i}-->" in text for _, _, i in payload["edges"])


@pytest.mark.parametrize(
    "extra", [("--dot",), ("--hasse", "--dot", "--format", "json")], ids=["no-hasse", "json"]
)
def test_dot_needs_hasse_and_text(capsys, extra):
    code, out, err = run(capsys, "grading", "--type", "B", "--rank", "5", "--j", "1", *extra)
    assert code == 2 and out == ""
    assert err == "error: --dot needs --hasse and text output\n"


@pytest.mark.parametrize("level", ["1", "5"])
def test_level_with_hasse_is_a_usage_error(capsys, level):
    code, out, err = run(capsys, "grading", "--type", "A", "--rank", "2", "--j", "1", "--hasse", "--level", level)
    assert code == 2 and out == ""
    assert err == "error: --level and --hasse exclude each other\n"


def test_hasse_rank_one_single_node(capsys):
    code, out, _ = run(capsys, "grading", "--type", "A", "--rank", "1", "--j", "1", "--hasse")
    assert code == 0 and "1 nodes" in out


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "verify: OK" in out
    assert out.count("PASS") >= 10


def test_verify_json_has_one_record_per_check(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    records = json.loads(out)
    assert code == 0
    assert [r["name"] for r in records] == [name for name, _ in CHECKS]
    for r in records:
        assert set(r) == {"name", "status", "seconds", "error_type", "message"}
        assert r["status"] == "PASS" and r["error_type"] is None and r["message"] is None
        assert isinstance(r["seconds"], float) and r["seconds"] >= 0


def _catalog_without_survivors(tmp_path):
    # a loadable catalog without the G2 spaces breaks the sweep regression
    small = {
        "schema_version": 1,
        "spaces": [
            {"name": "SL(3,R)/SO(3)", "family": "A", "rank": 2, "mults": {"2": 1},
             "dim": 5, "split": True}
        ],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(small))
    return path


def test_verify_fails_against_a_catalog_missing_the_survivors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("C1_ATLAS_CATALOG", str(_catalog_without_survivors(tmp_path)))
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 1 and "FAIL" in out and "verify: FAILED" in out
    code = main(["verify", "--format", "json"])
    failed = {r["name"]: r for r in json.loads(capsys.readouterr().out) if r["status"] == "FAIL"}
    sweep = failed["catalog validates; elimination sweep has exactly the G2 survivors"]
    assert code == 1
    assert sweep["error_type"] == "CheckFailed" and sweep["message"].startswith("survivors []")


def test_verify_reports_an_unexpected_error_in_a_string_check(monkeypatch):
    # only ProportionalRoots is an expected gap in the string check; any other
    # error is a failure of that check, not a pair to skip
    original = RootSystem.root_string

    def broken(self, lam, beta):
        if str(self.rtype) == "A3" and (lam.coeffs, beta.coeffs) == ((1, 1, 0), (0, 0, 1)):
            raise RuntimeError("string lookup broke")
        return original(self, lam, beta)

    monkeypatch.setattr(RootSystem, "root_string", broken)
    records = run_verify()
    failed = [(r["name"], r["error_type"], r["message"]) for r in records if r["status"] == "FAIL"]
    assert failed == [("root strings reach length 4 only in G2", "RuntimeError", "string lookup broke")]


def test_root_count_check_compares_the_generated_classes_with_the_closed_form(monkeypatch):
    closed_form = verify.length_class_counts

    def off_by_one_on_e7(family, rank):
        counts = closed_form(family, rank)
        return {length: k + 1 for length, k in counts.items()} if family == "E7" else counts

    verify._check_root_counts()
    monkeypatch.setattr(verify, "length_class_counts", off_by_one_on_e7)
    with pytest.raises(CheckFailed, match="^E7: "):
        verify._check_root_counts()


def test_verify_checks_fire_under_python_O(tmp_path):
    # -O strips assert statements; the sweep check must still report FAIL
    env = dict(
        os.environ,
        C1_ATLAS_CATALOG=str(_catalog_without_survivors(tmp_path)),
        PYTHONPATH=str(Path(c1atlas.__file__).parents[1]),
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "c1atlas.cli", "verify"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    (line,) = [x for x in proc.stdout.splitlines() if "elimination sweep" in x]
    assert line.startswith("FAIL  catalog validates; elimination sweep has exactly the G2 survivors")
    assert proc.returncode == 1


def test_closed_stdout_exits_quietly():
    # a reader that goes away at once, as `c1atlas roots ... | head -c 0` does
    env = dict(os.environ, PYTHONPATH=str(Path(c1atlas.__file__).parents[1]))
    argv = ["roots", "--type", "B", "--rank", "20", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "c1atlas.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert err == b""


# -- argv fuzzing: every exit is 0, 1 or 2 and nothing else escapes main ---------

_SMALL = st.integers(min_value=-3, max_value=9)
_FAMILY = st.sampled_from(FAMILIES + ("X",))
_TEXT = st.text(max_size=6)
_INTS = st.lists(st.integers(min_value=-3, max_value=3), max_size=9).map(
    lambda v: ",".join(map(str, v))
)
_SPACE = st.sampled_from([e.name for e in default_catalog()]) | _TEXT


@st.composite
def _cli_argv(draw):
    """Argv of roots, grading, strings, analyze --space/--j or catalog at rank <= 8.

    Each option is left out one time in ten, and a vector is drawn from the
    roots of the drawn system two times in three, so most draws get past
    argparse and many succeed.
    """
    command = draw(st.sampled_from(["roots", "grading", "strings", "analyze", "catalog"]))
    argv = [command]

    def option(flag, values=None):
        if draw(st.integers(min_value=0, max_value=9)):
            argv.append(flag)
            if values is not None:
                argv.append(str(draw(values)))

    def vector(roots):
        if roots and draw(st.integers(min_value=0, max_value=2)):
            sign = draw(st.sampled_from((1, -1)))
            return st.just(",".join(str(sign * n) for n in draw(st.sampled_from(roots)).coeffs))
        return _INTS | _TEXT

    if command in ("roots", "grading", "strings"):
        family = draw(_FAMILY)
        rank = draw(st.integers(min_value=-2, max_value=8))
        if family in FIXED_RANK and draw(st.booleans()):
            rank = FIXED_RANK[family]
        option("--type", st.just(family))
        option("--rank", st.just(rank))
        try:
            roots = root_system(family, rank).positives
        except C1AtlasError:
            roots = ()
        if command == "grading":
            option("--j", st.integers(min_value=-1, max_value=max(rank, 0) + 1))
            if draw(st.booleans()):
                option("--level", _SMALL)
            if draw(st.booleans()):
                option("--hasse")
                option("--dot")
        if command == "strings":
            option("--root", vector(roots))
            if draw(st.booleans()):
                option("--beta", vector(roots))
            else:
                option("--phi", _INTS | _TEXT)
    elif command == "analyze":
        option("--space", _SPACE)
        option("--j", st.integers(min_value=0, max_value=5))
    else:
        option("--family", _FAMILY)
        option("--min-rank", _SMALL)
    option("--format", st.sampled_from(["text", "json"] * 4 + ["xml"]))
    return argv


@settings(max_examples=200, deadline=None)
@given(_cli_argv())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
