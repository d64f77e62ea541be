"""CLI: round trips, exit codes, determinism, harness suites."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import cgf.factor
from cgf import cli
from cgf.cli import main, parse_ring
from cgf.matrices import Mat
from cgf.oracle import OrbitTable
from cgf.orthoquot import O2Class
from cgf.rings import ModularRing, PrimeField, TruncatedPolyLocal
from cgf.words import GenWord

from conftest import within


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ring_shorthand():
    assert parse_ring("mod:4") == ModularRing(4)
    assert parse_ring("prime:5") == PrimeField(5)
    assert parse_ring("polyloc:2:2") == TruncatedPolyLocal(2, 2)
    assert parse_ring('{"kind":"mod","n":4}') == ModularRing(4)


def test_reduce_row_documented_invocation(capsys):
    code, out = run_cli(capsys, "reduce-row", "--ring",
                        '{"kind":"mod","n":4}', "--row", "[2,3,0]")
    assert code == 0
    obj = json.loads(out)
    gens = obj["outputs"]["word"]["gens"]
    assert [(g["i"], g["j"], g["param"]) for g in gens] == \
        [(2, 1, 1), (1, 2, 1)]
    assert all(c["status"] == "pass" for c in obj["checks"])


def test_orbits_documented_invocation(capsys):
    code, out = run_cli(capsys, "orbits", "--ring", "mod:2", "--kind", "row",
                        "--size", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["orbits"] == 1 and obj["sizes"] == [3]


def test_orbits_single_orbit_and_no_workers_flag(capsys):
    code = main(["orbits", "--ring", "mod:4", "--size", "3",
                 "--workers", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    code, out = run_cli(capsys, "orbits", "--ring", "mod:4", "--size", "3")
    assert code == 0
    assert json.loads(out) == {"objects": 56, "orbits": 1, "sizes": [56]}


def test_homotopy_commute_trivial(capsys):
    spec = {
        "ring": {"kind": "mod", "n": 9},
        "delta_word": {"family": "lin", "size": 2,
                       "ring": {"kind": "poly", "base": {"kind": "mod", "n": 9},
                                "var": "T"},
                       "gens": [{"i": 1, "j": 2, "param": [0, 1]}]},
        "v": [[1, 0, 0], [0, 1, 0]],
    }
    code, out = run_cli(capsys, "homotopy-commute", "--flavor", "linear",
                        "--input", json.dumps(spec))
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "word"
    assert all(c["status"] == "pass" for c in obj["checks"])


def test_domain_error_exit_code(capsys):
    for argv, err in ((["reduce-row", "--ring", "mod:4", "--row", "[2,2]"],
                       "no_unit_entry"),
                      (["orbits", "--ring", "mod:2", "--size", "-1"],
                       "object_out_of_domain"),
                      # size 1 has no generator pair, but a paired family
                      # needs an even size
                      (["orbits", "--ring", "mod:4", "--family", "sp",
                        "--size", "1"], "bad_indices"),
                      (["orbits", "--ring", "mod:4", "--family", "orth",
                        "--size", "1"], "bad_indices")):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        obj = json.loads(out)
        assert obj["code"] == err
        assert "message" in obj


def test_two_row_refuses_a_non_local_ring_before_solving(capsys,
                                                         monkeypatch):
    # the CI smoke rows: over Z the first has a right inverse and the second
    # none, and Z/6 is not local either; each is refused before the
    # right-inverse solver runs, and before a given beta is checked
    def unreachable(mat):
        raise AssertionError("right_inverse ran over a non-local ring")

    monkeypatch.setattr(cli, "right_inverse", unreachable)
    for ring, matrix in (("int", "[[2,3,0],[1,2,1]]"),
                         ("int", "[[2,4,6],[1,1,1]]"),
                         ("mod:6", "[[2,3,1],[0,1,0]]")):
        for beta in ([], ["--beta", "[[0,0],[0,0],[0,0]]"]):
            code, out = run_cli(capsys, "two-row", "--ring", ring,
                                "--matrix", matrix, *beta)
            assert code == 2
            assert json.loads(out)["code"] == "not_local", (ring, matrix)


def test_usage_error_exit_code(capsys):
    code = main(["reduce-row", "--ring", "bogus:ring", "--row", "[1,0]"])
    capsys.readouterr()
    assert code == 1


# each of these once escaped as a raw traceback
MALFORMED_ARGV = {
    "bad JSON row": ["reduce-row", "--ring", "mod:4", "--row", "[2,3"],
    "ring missing a key": ["reduce-row", "--ring", '{"kind":"mod"}',
                           "--row", "[1,0]"],
    "bad ring integer": ["reduce-row", "--ring", "mod:x", "--row", "[1,0]"],
    "zero denominator": ["reduce-row", "--ring", "locint:5",
                         "--row", "[[1,0]]"],
    "missing @file": ["reduce-row", "--ring", "mod:4",
                      "--row", "@{missing}"],
    "input without ring": ["homotopy-commute", "--flavor", "linear",
                           "--input", "{}"],
    "ring without modulus": ["reduce-row", "--ring", "mod", "--row", "[1,0]"],
    "deeply nested ring": ["reduce-row", "--ring", "poly:" * 2000 + "int",
                           "--row", "[1,0]"],
    "deeply nested row": ["reduce-row", "--ring", "mod:4",
                          "--row", "[" * 10 ** 5],
}


@pytest.mark.parametrize("argv", MALFORMED_ARGV.values(),
                         ids=MALFORMED_ARGV.keys())
def test_malformed_input_is_a_usage_error(argv, capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code = main([a.replace("{missing}", missing) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("usage error: ")


# a JSON number with a fraction part, or a string, where an integer is
# expected: each once certified a truncated value, printed a witness whose
# entries lie outside the ring, or escaped as a traceback
NOT_AN_INTEGER_ARGV = {
    "float modulus": ["--ring", '{"kind":"mod","n":4.7}', "--row", "[1,1]"],
    "float residue": ["--ring", "mod:4", "--row", "[1.5,1]"],
    "float numerator": ["--ring", "locint:3", "--row", "[[1.5,2],1]"],
    "float polyloc constant": ["--ring", "polyloc:2:2",
                               "--row", "[[1.5],[0]]"],
    "float polyloc entry": ["--ring", "polyloc:2:2", "--row", "[[1],[0.5]]"],
    "string polyloc entry": ["--ring", "polyloc:2:2",
                             "--row", '[[1],["1"]]'],
    "string prime": ["--ring", '{"kind":"prime","p":"5"}', "--row", "[1,0]"],
    "float degree cap": ["--ring", '{"kind":"poly","base":{"kind":"mod",'
                                   '"n":4},"degree_cap":8.5}',
                         "--row", "[[1],[0]]"],
}


@pytest.mark.parametrize("argv", NOT_AN_INTEGER_ARGV.values(),
                         ids=NOT_AN_INTEGER_ARGV.keys())
def test_a_non_integer_number_is_malformed_input(argv, capsys):
    code = main(["reduce-row", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("usage error: malformed ")


def test_a_non_integer_in_a_word_or_table_is_malformed_input(capsys,
                                                             tmp_path):
    word = {"family": "lin", "size": 2,
            "ring": {"kind": "poly", "base": {"kind": "int"}, "var": "T"},
            "gens": [{"i": 1, "j": 2, "param": [0, 1]}]}
    bad_words = [dict(word, size=2.0),
                 dict(word, gens=[{"i": 1.0, "j": 2, "param": [0, 1]}]),
                 dict(word, gens=[{"i": 1, "j": "2", "param": [0, 1]}])]
    for bad in bad_words:
        code = main(["split", "--theta", json.dumps(bad),
                     "--s1", "3", "--s2", "-2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), bad
        assert len(captured.err.splitlines()) == 1
    table = tmp_path / "um2-z2.json"
    assert main(["orbits", "--ring", "mod:2", "--size", "2",
                 "--cache", str(table)]) == 0
    capsys.readouterr()
    good = json.loads(table.read_text())
    linked = next(i for i, o in enumerate(good["objects"]) if o["pred"])

    def edited(edit):
        obj = json.loads(table.read_text())
        edit(obj)
        return obj

    def pred_gen(key, value):
        def edit(obj):
            obj["objects"][linked]["pred"][1][key] = value
        return edit

    bad_tables = [edited(lambda o: o.update(size=2.0)),
                  edited(lambda o: o.update(frame_rows="0")),
                  edited(lambda o: o["objects"][0].update(orbit=0.0)),
                  edited(pred_gen("i", 2.5)), edited(pred_gen("j", "1"))]
    for bad in bad_tables:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["certify", "--table", str(path), "--v1", "[1,0]",
                     "--v2", "[1,1]"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), bad
        assert len(captured.err.splitlines()) == 1
    code, out = run_cli(capsys, "certify", "--table", str(table),
                        "--v1", "[1,0]", "--v2", "[1,1]")
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_domain_errors_in_decoded_input_still_exit_2(capsys):
    for ring, row, err in (("mod:0", "[1,0]", "unsupported_ring"),
                           ("locint:5", "[[1,5],[1,1]]",
                            "descriptor_mismatch")):
        code, out = run_cli(capsys, "reduce-row", "--ring", ring,
                            "--row", row)
        assert code == 2
        assert json.loads(out)["code"] == err


def _malformed_rings(st):
    shorthand = st.builds("{}:{}".format, st.sampled_from(
        ("mod", "prime", "locint", "polyloc", "poly", "int", "rat")),
        st.text(max_size=6))
    documents = st.sampled_from((
        "{", "{}", '{"kind":"mod"}', '{"kind":"mod","n":"x"}',
        '{"kind":"poly"}', '{"kind":"poly","base":[]}',
        '{"kind":"frac","base":{"kind":"int"},"s":0}',
        '{"kind":"quot","base":{"kind":"int"},"gens":5}', "@", "mod:4:",
        "locint", "poly:mod:4"))
    return st.one_of(st.text(max_size=12), shorthand, documents)


def _malformed_rows(st):
    # coefficient lists (polyloc, fractions) may hold floats and strings too
    coefficients = st.one_of(st.integers(-5, 5), st.text(max_size=2),
                             st.floats(-3, 3), st.floats(allow_nan=True))
    entries = st.one_of(st.integers(-50, 50), st.text(max_size=3),
                        st.lists(coefficients, max_size=3),
                        st.none(), st.floats(allow_nan=True))
    return st.one_of(st.text(max_size=10),
                     st.lists(entries, max_size=4).map(json.dumps),
                     st.sampled_from(("[", "[1,", "{}", "5", '"x"', "@")))


def test_malformed_ring_and_row_never_escape():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(_malformed_rings(st), _malformed_rows(st))
    def check(ring, row):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["reduce-row", "--ring", ring, "--row", row])
        assert code in (0, 1, 2)
        if code == 1:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert len(out.getvalue().splitlines()) == 1

    check()


def test_byte_identical_reruns(capsys):
    args = ("harness", "lemmas", "--seed", "7", "--budget", "3")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_harness_suites_pass(capsys):
    for suite in ("lemmas", "homotopy", "localglobal", "ortho"):
        code, out = run_cli(capsys, "harness", suite, "--seed", "11",
                            "--budget", "3")
        assert code == 0, out
        assert json.loads(out)["ok"] is True


def test_harness_zero_budget(capsys):
    for suite in ("lemmas", "homotopy", "localglobal", "ortho"):
        code, out = run_cli(capsys, "harness", suite, "--budget", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["failures"] == 0
        assert all(c["instances"] == 0 or c["failures"] == 0
                   for c in obj["checks"])
        assert sum(c["instances"] for c in obj["checks"]) == 0


def test_harness_negative_budget_is_a_usage_error(capsys):
    code = main(["harness", "lemmas", "--budget", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: --budget must be >= 0, got -1\n"


def test_malformed_word_limit_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CGF_WORD_LIMIT", "abc")
    for argv in (["reduce-row", "--ring", "mod:4", "--row", "[2,3,0]"],
                 ["harness", "lemmas", "--budget", "0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error: malformed CGF_WORD_LIMIT")
    # an empty value means the default limit
    monkeypatch.setenv("CGF_WORD_LIMIT", "")
    code, _ = run_cli(capsys, "reduce-row", "--ring", "mod:4", "--row",
                      "[2,3,0]")
    assert code == 0


def test_harness_corrupt_negative_control(capsys):
    code, out = run_cli(capsys, "harness", "lemmas", "--seed", "3",
                        "--budget", "2", "--corrupt")
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_split_and_patch_verbs(capsys, tmp_path):
    theta = {"family": "lin", "size": 2,
             "ring": {"kind": "poly", "var": "T",
                      "base": {"kind": "frac", "base": {"kind": "int"},
                               "s": 6}},
             "gens": [{"i": 1, "j": 2, "param": [[0, 1], [1, 6]]}]}
    code, out = run_cli(capsys, "split", "--theta", json.dumps(theta),
                        "--s1", "3", "--s2", "-2", "--exponent", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["outputs"]["b"] == [4, 1]

    sigma = {"rows": 1, "cols": 1,
             "ring": {"kind": "poly", "var": "T",
                      "base": {"kind": "frac", "base": {"kind": "int"},
                               "s": 3}},
             "entries": [[[[7, 1]]]]}
    sigma2 = {"rows": 1, "cols": 1,
              "ring": {"kind": "poly", "var": "T",
                       "base": {"kind": "frac", "base": {"kind": "int"},
                                "s": -2}},
              "entries": [[[[7, 1]]]]}
    code, out = run_cli(capsys, "patch", "--sigma1", json.dumps(sigma),
                        "--sigma2", json.dumps(sigma2), "--s1", "3",
                        "--s2", "-2")
    assert code == 0


def test_orbit_cache_and_certify(capsys, tmp_path, monkeypatch):
    # both verbs read the table's codes: neither builds its payload views
    def no_views(table):
        raise AssertionError("views built")

    monkeypatch.setattr(OrbitTable, "_views", property(no_views))
    cache = tmp_path / "table.json"
    code, out = run_cli(capsys, "orbits", "--ring", "mod:2", "--size", "2",
                        "--cache", str(cache))
    assert code == 0
    assert json.loads(out) == {"objects": 3, "orbits": 1, "sizes": [3]}
    code, out = run_cli(capsys, "certify", "--table", str(cache),
                        "--v1", "[1,0]", "--v2", "[1,1]")
    assert code == 0
    obj = json.loads(out)
    assert obj["equivalent"] is True


def test_orbit_cache_bytes_are_golden(capsys, tmp_path):
    # sha256 of the file, recorded while the table was written through
    # json.dump's pure-Python encoder
    cache = tmp_path / "um3-z4.json"
    code, _ = run_cli(capsys, "orbits", "--ring", "mod:4", "--kind", "row",
                      "--family", "lin", "--size", "3", "--cache", str(cache))
    assert code == 0
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == \
        "5b7be2fc5b95ae58c0a2f2524825eda48f917d669d37e4526d295de799449912"


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_an_unwritable_cache_is_malformed_input(capsys, tmp_path, where):
    # the table is built, then the write fails: exit 1 with one line on
    # stderr and nothing on stdout, not a traceback
    cache = tmp_path if where == "a directory" else (
        tmp_path / "missing" / "x.json")
    code = main(["orbits", "--ring", "mod:4", "--size", "2",
                 "--cache", str(cache)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("usage error: malformed --cache: ")
    assert len(captured.err.splitlines()) == 1


def test_certify_refuses_a_tampered_table(capsys, tmp_path):
    # a cached table whose orbit ids contradict its own pred links is
    # refused with exit 2 instead of answering "not equivalent"
    cache = tmp_path / "um3-z4.json"
    code, _ = run_cli(capsys, "orbits", "--ring", "mod:4", "--kind", "row",
                      "--size", "3", "--cache", str(cache))
    assert code == 0
    certify = ("certify", "--table", str(cache), "--v1", "[1,0,0]",
               "--v2", "[3,2,1]")
    code, out = run_cli(capsys, *certify)
    assert code == 0 and json.loads(out)["equivalent"] is True
    obj = json.loads(cache.read_text())
    next(e for e in obj["objects"] if e["v"] == [3, 2, 1])["orbit"] = 1
    cache.write_text(json.dumps(obj))
    code, out = run_cli(capsys, *certify)
    assert code == 2
    assert json.loads(out) == {"code": "witness_check_failed",
                               "message": "orbit table link fails its check",
                               "context": {"object": "[3, 2, 1]"}}


def test_certify_refuses_a_rerooted_table(capsys, tmp_path):
    # re-rooting [3,2,1] under a new orbit id keeps every pred link valid,
    # but the generators still join the two ids, so "not equivalent" is
    # refused with exit 2
    cache = tmp_path / "um3-z4.json"
    code, _ = run_cli(capsys, "orbits", "--ring", "mod:4", "--kind", "row",
                      "--size", "3", "--cache", str(cache))
    assert code == 0
    obj = json.loads(cache.read_text())
    children = {}
    for e in obj["objects"]:
        if e["pred"] is not None:
            children.setdefault(str(e["pred"][0]), []).append(e)
    root = next(e for e in obj["objects"] if e["v"] == [3, 2, 1])
    root["pred"], stack = None, [root]
    while stack:
        e = stack.pop()
        e["orbit"] = 1
        stack += children.get(str(e["v"]), [])
    cache.write_text(json.dumps(obj))
    code, out = run_cli(capsys, "certify", "--table", str(cache),
                        "--v1", "[1,0,0]", "--v2", "[3,2,1]")
    assert code == 2
    err = json.loads(out)
    assert (err["code"], err["message"]) == (
        "witness_check_failed",
        "orbit table orbit is not closed under the generators")


def test_certify_answers_false_across_genuine_orbits(capsys, tmp_path):
    # O_4(F_3) keeps q(v) = v1 v2 + v3 v4, so its 80 unimodular rows fall
    # into three orbits; a row with q = 0 and one with q = 1 are inequivalent
    cache = tmp_path / "orth4-f3.json"
    code, out = run_cli(capsys, "orbits", "--ring", "prime:3", "--kind",
                        "row", "--family", "orth", "--size", "4", "--cache",
                        str(cache))
    assert code == 0 and json.loads(out)["orbits"] == 3
    for v2, equivalent in (("[1,1,0,0]", False), ("[0,1,0,0]", True)):
        code, out = run_cli(capsys, "certify", "--table", str(cache),
                            "--v1", "[1,0,0,0]", "--v2", v2)
        assert code == 0 and json.loads(out)["equivalent"] is equivalent


def test_classify_and_quotient_verbs(capsys):
    code, out = run_cli(capsys, "classify-o2", "--ring", "prime:5",
                        "--matrix", "[[2,0],[0,3]]")
    assert code == 0
    obj = json.loads(out)
    assert obj["outputs"]["shape"] == "diag" and obj["outputs"]["u"] == 2

    ident6 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    code, out = run_cli(capsys, "ortho-quotient", "--ring", "prime:5",
                        "--matrix", json.dumps(ident6))
    assert code == 0


def test_ortho_commutator_refuses_a_word_of_another_family(capsys):
    f5 = {"kind": "prime", "p": 5}
    i2 = json.dumps({"rows": 2, "cols": 2, "ring": f5,
                     "entries": [[1, 0], [0, 1]]})
    orth = json.dumps({"family": "orth", "size": 6, "ring": f5,
                       "gens": [{"i": 1, "j": 3, "param": 1}]})
    lin = json.dumps({"family": "lin", "size": 6, "ring": f5,
                      "gens": [{"i": 1, "j": 3, "param": 2},
                               {"i": 4, "j": 6, "param": 1}]})
    for a_word, b_word in ((orth, lin), (lin, orth)):
        code, out = run_cli(capsys, "ortho-commutator", "--a-delta", i2,
                            "--a-word", a_word, "--b-delta", i2,
                            "--b-word", b_word)
        assert code == 2
        assert json.loads(out) == {
            "code": "unsupported_presentation", "context": {},
            "message": "the word must be in orthogonal generators"}


# sha256 of the stdout of each verb whose checks its construction enforces,
# recorded while the verbs still recomputed those checks themselves: any
# change to a check's name, count, order or status changes the digest.
GOLDEN_WITNESSES = {
    "complete-linear": (
        ["complete", "--ring", "mod:9", "--matrix", "[[1,2,3],[0,1,4]]"],
        "f219af648135962933ce0d34216155a72daaadac5725425341748a82770df1a8"),
    "complete-sp": (
        ["complete", "--flavor", "sp", "--ring", "mod:9",
         "--matrix", "[[1,2,0,3],[0,1,0,0]]"],
        "a0c69e151edfb943630c24f9cac91db3528457b2ec536efa951c62efecbee57f"),
    "complete-orth": (
        ["complete", "--flavor", "orth", "--ring", "prime:5",
         "--matrix", "[[1,0,2,3,0,0,1,4],[0,1,0,0,0,0,0,0]]"],
        "bc3a448971e061141b084428caa8aa13ebbcd7d2ac3454a77d717df59666f1cc"),
    "whitehead-linear": (
        ["whitehead", "--flavor", "linear", "--ring", "mod:9",
         "--matrix", "[[1,2],[0,1]]"],
        "ba0d320cad89d28aa7c650504b1f748ad7340447191c4e4354b4ba85756b39c8"),
    "whitehead-sp": (
        ["whitehead", "--flavor", "sp", "--ring", "prime:5",
         "--matrix", "[[2,1,0,0],[1,1,0,0],[0,0,1,3],[0,0,0,1]]"],
        "d9ca211e128edfd47ef4f0a40527497a2f8a252619a45ad8ada5809d7eae7a3d"),
    "transvection": (
        ["transvection", "--ring", "mod:9", "--col", "[1,2,3]",
         "--row", "[1,1,8]"],
        "2705eb0660cf4f828323f4963b12ca92a7d0d4b30152e631c0ad6db157d0c9e7"),
    "common-perp": (
        ["common-perp", "--ring", "mod:9", "--v1", "[1,2,3]",
         "--v2", "[1,5,7]", "--w", "[1,0,0]"],
        "3e14a9e1ac9da326b324026ca32b9ce60d4969541325135bed90e989a28b7292"),
    "two-row": (
        ["two-row", "--ring", "mod:9", "--matrix", "[[1,2,3],[0,1,4]]"],
        "d86df1e94265849b4ff0494110156fe763737143a0c69a84384de98a12749b3e"),
    "roitman": (
        ["roitman", "--ring", "mod:4", "--row", "[2,1,0]", "--k", "1",
         "--target", "[0,1]"],
        "9bd5bcd35f494d7df8923280b200ffe7314c95744bddc8e2f022080165099450"),
    "ortho-quotient": (
        ["ortho-quotient", "--ring", "prime:5", "--matrix",
         "[[0,0,2,0,0,3],[0,1,0,3,0,0],[2,0,1,0,0,1],[0,3,0,0,0,0],"
         "[0,0,0,0,0,2],[0,2,0,3,3,0]]"],
        "206f732e5d59334e3dcc007cbd5ff36b8de761adfc908f80144709f131daf198"),
    "classify-o2": (
        ["classify-o2", "--ring", "prime:5", "--matrix", "[[0,2],[3,0]]"],
        "093bf6a68bfc2d3a9c18b6df4585cc9128fab2f3721b47f3b07b9ad6046645ed"),
}


@pytest.mark.parametrize("verb", GOLDEN_WITNESSES)
def test_witness_bytes_are_golden(verb, capsys):
    argv, digest = GOLDEN_WITNESSES[verb]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _bump_matrix(row):
    """Add 1 to the last entry of one row of an evaluated matrix."""
    def corrupt(m):
        entries = [list(r) for r in m.entries]
        entries[row][-1] = entries[row][-1] + m.ring.one()
        return Mat(m.ring, entries)
    return corrupt


# verb, what to corrupt, how, which call (0 first, -1 last), and the error
# the construction must raise instead of returning
NEGATIVE_CONTROLS = {
    "complete-linear rows": (
        "complete-linear", GenWord, "eval", _bump_matrix(0), 0,
        "form_violation", "internal: completion lost the input rows"),
    "complete-sp rows": (
        "complete-sp", GenWord, "eval", _bump_matrix(0), -1,
        "form_violation", "internal: completion lost the frame rows"),
    "complete-sp group": (
        "complete-sp", GenWord, "eval", _bump_matrix(-1), -1,
        "form_violation", "internal: completion left the symplectic group"),
    "complete-orth rows": (
        "complete-orth", GenWord, "eval", _bump_matrix(0), -1,
        "form_violation", "internal: completion lost the frame rows"),
    "complete-orth group": (
        "complete-orth", GenWord, "eval", _bump_matrix(-1), -1,
        "form_violation", "internal: completion left the orthogonal group"),
    "whitehead-linear": (
        "whitehead-linear", GenWord, "eval", _bump_matrix(0), -1,
        "form_violation", "internal: Whitehead word mismatch"),
    "whitehead-sp": (
        "whitehead-sp", GenWord, "eval", _bump_matrix(0), -1,
        "form_violation", "internal: completion lost the frame rows"),
    "transvection": (
        "transvection", GenWord, "eval", _bump_matrix(0), -1,
        "form_violation", "internal: transvection word mismatch"),
    "common-perp": (
        "common-perp", cgf.factor, "apply_word_right", _bump_matrix(0), -1,
        "form_violation", "internal: common-perpendicular word mismatch"),
    "two-row": (
        "two-row", cgf.factor, "apply_word_right", _bump_matrix(0), -1,
        "form_violation", "internal: common-perpendicular word mismatch"),
    "roitman": (
        "roitman", cgf.factor, "apply_word_right", _bump_matrix(0), -1,
        "form_violation", "internal: quotient-lift word mismatch"),
    "ortho-quotient": (
        "ortho-quotient", GenWord, "eval", _bump_matrix(0), -1,
        "reduction_failed", "internal: factorization mismatch"),
    "classify-o2": (
        "classify-o2", O2Class, "reconstruct", _bump_matrix(0), -1,
        "not_classifiable", "internal: reconstruction mismatch"),
}


@pytest.mark.parametrize("case", NEGATIVE_CONTROLS)
def test_recorded_pass_is_a_check_the_construction_ran(case, capsys,
                                                       monkeypatch):
    """Corrupt the evaluation behind a check the verb records as pass:
    the construction must refuse with its own error, and no witness is
    printed."""
    verb, owner, attr, corrupt, which, code, message = NEGATIVE_CONTROLS[case]
    argv = GOLDEN_WITNESSES[verb][0]
    original = getattr(owner, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    assert run_cli(capsys, *argv)[0] == 0
    target = which % len(calls)
    calls.clear()

    def corrupted(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        return corrupt(out) if len(calls) - 1 == target else out

    monkeypatch.setattr(owner, attr, corrupted)
    exit_code, out = run_cli(capsys, *argv)
    assert exit_code == 2
    obj = json.loads(out)
    assert (obj["code"], obj["message"]) == (code, message)
    assert "checks" not in obj


# ---------------------------------------------------------------------------
# the parser is built once per process and reused by every main call

def _run_all(capsys, argvs):
    """(exit code, stdout, stderr) of each argv, in order."""
    out = []
    for argv in argvs:
        code = main(list(argv))
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_cached_parser_matches_a_fresh_one(capsys, monkeypatch):
    argvs = [argv for argv, _ in GOLDEN_WITNESSES.values()]
    # twice through the cached parser, so every parse follows all the others
    cached = _run_all(capsys, argvs + argvs)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_all(capsys, argvs)
    assert cached == fresh + fresh


USAGE_ERRORS = {
    "unknown ring": ["reduce-row", "--ring", "bogus:ring", "--row", "[1,0]"],
    "missing --size": ["orbits", "--ring", "mod:4"],
    "bad --flavor": ["homotopy-commute", "--flavor", "bogus",
                     "--input", "{}"],
    "bad reduce-row --flavor": ["reduce-row", "--flavor", "orth",
                                "--ring", "mod:9", "--row", "[1,0]"],
    "bad complete --flavor": ["complete", "--flavor", "bogus", "--ring",
                              "mod:4", "--matrix", "[[1,0]]"],
    "bad whitehead --flavor": ["whitehead", "--flavor", "orth", "--ring",
                               "mod:9", "--matrix", "[[1,2],[0,1]]"],
}


@pytest.mark.parametrize("verb", ["reduce-row", "complete", "whitehead"])
def test_a_bad_flavor_is_refused_before_the_ring_is_read(verb, capsys):
    # argparse checks --flavor's choices while it parses, so an unknown
    # ring after it is never read
    argv = [verb, "--flavor", "bogus", "--ring", "bogus:ring",
            "--row" if verb == "reduce-row" else "--matrix", "[[1,0]]"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "argument --flavor: invalid choice: 'bogus'" in err


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(),
                         ids=USAGE_ERRORS.keys())
def test_a_usage_error_leaves_no_parser_state(argv, capsys):
    for verb, (valid, digest) in GOLDEN_WITNESSES.items():
        [(code, out, err)] = _run_all(capsys, [argv])
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        [(code, out, err)] = _run_all(capsys, [valid])
        assert (code, err) == (0, ""), verb
        assert hashlib.sha256(out.encode()).hexdigest() == digest, verb


def test_help_prints_the_same_bytes_twice(capsys):
    for argv in (["--help"], ["orbits", "--help"]):
        printed = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            printed.append(capsys.readouterr())
        assert printed[0].out.startswith("usage: cgf")
        assert printed[0] == printed[1]


def test_parser_is_built_once_on_the_first_main_call():
    # in a new process: importing builds nothing, and five main calls
    # build the parser once
    script = """
import contextlib, io
import cgf.cli as cli
assert cli._build_parser.cache_info().misses == 0
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(5):
        assert cli.main(["orbits", "--ring", "mod:2", "--size", "2"]) == 0
info = cli._build_parser.cache_info()
assert (info.misses, info.hits) == (1, 4), info
"""
    src = os.path.dirname(os.path.dirname(cgf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


# ---------------------------------------------------------------------------
# an argv that starts with a verb is parsed by that verb's parser alone

def _outcome(parse, argv):
    """What ``parse`` makes of ``argv``: its namespace's fields, the usage
    error it raises, or the exit code and stdout of a help request."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return "parsed", vars(parse(list(argv)))
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, printed.getvalue()


def _value(rng, action):
    """A value for ``action``: a choice or not, an integer or not, or a
    string, some of them shaped like options or negative numbers."""
    if action.choices:
        return rng.choice(sorted(action.choices) + ["bogus"])
    if action.type is int:
        return rng.choice(["0", "3", "-2", "07", "x", "1.5", ""])
    return rng.choice(["mod:4", "[1,0]", "[[1,2],[0,1]]", "-1", "v", ""])


def _random_argv(rng, verb, parser):
    """A verb and a shuffle of its options: the required ones mostly there,
    the others at random, some abbreviated or written with '=', some
    missing their value, with unknown flags and stray words mixed in."""
    groups = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # harness's suite
            if rng.random() < 0.9:
                groups.append([_value(rng, action)])
            continue
        if rng.random() > (0.9 if action.required else 0.4):
            continue
        flag = action.option_strings[-1]
        if rng.random() < 0.1:
            flag = flag[:rng.randrange(3, len(flag) + 1)]
        if action.nargs == 0:
            groups.append([flag + "=x" if rng.random() < 0.1 else flag])
        elif rng.random() < 0.05:
            groups.append([flag])
        elif rng.random() < 0.1:
            groups.append([f"{flag}={_value(rng, action)}"])
        else:
            groups.append([flag, _value(rng, action)])
    for extra, share in (("--bogus", 0.1), ("-x", 0.05), ("extra", 0.05),
                         ("--", 0.03), ("-h", 0.03)):
        if rng.random() < share:
            groups.append([extra])
    rng.shuffle(groups)
    return [verb] + [arg for group in groups for arg in group]


def _differential_argv():
    rng = random.Random(35)
    verbs = cli._build_parser().verbs
    seeded = [_random_argv(rng, verb, parser)
              for verb, parser in verbs.items() for _ in range(19)]
    bad_flavor = [[verb, "--flavor", "bogus", "--ring", "bogus:ring",
                   "--row" if verb == "reduce-row" else "--matrix", "[[1,0]]"]
                  for verb in ("reduce-row", "complete", "whitehead")]
    return ([argv for argv, _ in GOLDEN_WITNESSES.values()]
            + list(USAGE_ERRORS.values()) + bad_flavor + seeded)


def test_a_verb_parser_parses_as_the_whole_tree():
    argvs = _differential_argv()
    tree = cli._build_parser().parse_args
    kinds = Counter()
    for argv in argvs:
        got = _outcome(cli._parse, argv)
        assert got == _outcome(tree, argv), argv
        kinds[got[0]] += 1
        if got[0] == "parsed":
            assert got[1]["command"] == argv[0]
    assert len(argvs) == 324
    assert kinds == {"parsed": 138, "usage error": 179, "exit": 7}


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help", "orbits"], ["bogus"], ["Orbits"],
    ["--ring", "mod:4"], ["--ring", "mod:4", "reduce-row"]])
def test_an_argv_that_does_not_start_with_a_verb_takes_the_tree(argv,
                                                               monkeypatch):
    parsers = cli._build_parser().verbs
    reached = []
    for verb, parser in parsers.items():
        monkeypatch.setattr(parser, "parse_args",
                            lambda args, verb=verb: reached.append(verb))
    got = _outcome(cli._parse, argv)
    assert reached == []
    monkeypatch.undo()
    assert got == _outcome(cli._build_parser().parse_args, argv)
    assert got[0] != "parsed"


def test_an_argv_that_starts_with_a_verb_skips_the_tree(monkeypatch):
    parser = cli._build_parser()
    monkeypatch.setattr(parser, "parse_args", None)  # never called
    args = cli._parse(["orbits", "--ring", "mod:4", "--size", "2"])
    assert (args.command, args.ring, args.size) == ("orbits", "mod:4", 2)


# sha256 of each harness suite's stdout, recorded before the suites shared
# one tally: the rng draw order, every field (the localglobal "splits"
# among them) and the exit code stay as they were
HARNESS_GOLDEN = {
    ("lemmas", "--seed", "7", "--budget", "3"):
        (0, "af9da98fefe2f0bd6337cc93b37b33051dfe400453f5ed4d5e3167afbf3a816b"),
    ("lemmas", "--seed", "11", "--budget", "3"):
        (0, "d2f6567af43d38395529268f835ded4f6337f148884a00835775a2937f089f7b"),
    ("lemmas", "--corrupt", "--seed", "5", "--budget", "2"):
        (2, "3547d74de0516f529df40c0166a38dd4988a13ca5fba4e0c8ca918be4c94193d"),
    ("lemmas", "--budget", "0"):
        (0, "d0bb388156b20d75ae6283c6542756f4c38e96854e1fa1af229327cdc8427558"),
    ("homotopy", "--seed", "7", "--budget", "3"):
        (0, "e9aa8b897286f0a46b8da6cad418d27d3575d583b7e11a2f98fdc84524e44e82"),
    ("homotopy", "--seed", "11", "--budget", "3"):
        (0, "c08c932fefb340b8000f8929fb58fc8bc1f5c3ee57a7d54b4afa4101b7c81155"),
    ("homotopy", "--corrupt", "--seed", "5", "--budget", "2"):
        (2, "ece69f6fbd619cc5b73c959218e015f8b151158a5b790bba11421cf2c1ac0f0c"),
    ("homotopy", "--budget", "0"):
        (0, "03f6ac6ceef6a307a6e3a5234b1f296df5f56d622ca017023a5e36d244ba8913"),
    ("localglobal", "--seed", "7", "--budget", "3"):
        (0, "880f293cef9a14576b783824448a35f51a0f7542096b16e8173eafe2103bdfd2"),
    ("localglobal", "--seed", "11", "--budget", "3"):
        (0, "182a0b6095d4d0d761eacc4dc53357545495c126a3626522edbc30ae14b7700b"),
    ("localglobal", "--corrupt", "--seed", "5", "--budget", "2"):
        (2, "209f2ff7749ad1ea2400bd2ab9ac70082eff4b2dbc1382bc15f085c1cf56b0a8"),
    ("localglobal", "--budget", "0"):
        (0, "a89079fd4660995fd2453aabc5a81af0017149e93a668d9086836269816117ee"),
    ("ortho", "--seed", "7", "--budget", "3"):
        (0, "fb743e39f08c7ead8f7a6118d5becd215d6d06f0f5a922e32a5e1c97443f88f7"),
    ("ortho", "--seed", "11", "--budget", "3"):
        (0, "6197d3ae0661fbfc9efd97e2c1344e1567ba6ffc2b6ebea5e1e6f618158746b0"),
    ("ortho", "--corrupt", "--seed", "5", "--budget", "2"):
        (2, "0a50fa80102105ab667f71b8ecd8af24ee21b64a9585a7c44666df7b5266adf4"),
    ("ortho", "--budget", "0"):
        (0, "66e2f6911fa0f75ad0b5485336a3ce552ca5cd6d6bf96d39e49e1be325b2c49d"),
}


@pytest.mark.parametrize("argv", HARNESS_GOLDEN,
                         ids=[" ".join(a) for a in HARNESS_GOLDEN])
def test_harness_report_bytes_are_golden(argv, capsys):
    code, out = run_cli(capsys, "harness", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        HARNESS_GOLDEN[argv]


def test_localglobal_counts_an_exhausted_split_as_no_failure(capsys,
                                                             monkeypatch):
    # the seeded splits all succeed today; force every other search to run
    # out so that "splits" counts only the splits made
    real, calls = cli.quillen_split, []

    def every_other_exhausts(*args, **kwargs):
        calls.append(args)
        if len(calls) % 2 == 0:
            raise cgf.errors.SplitExponentExhausted("no exponent found")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "quillen_split", every_other_exhausts)
    code, out = run_cli(capsys, "harness", "localglobal", "--seed", "7",
                        "--budget", "3")
    obj = json.loads(out)
    assert code == 0 and obj["failures"] == 0
    seeded = obj["checks"][-1]
    assert (seeded["instances"], seeded["failures"], seeded["splits"]) == \
        (3, 0, 1)


# every modulus answers in bounded time: a 61-bit prime, a 37-digit
# semiprime, and M89 = 2^89 - 1, a prime above the bound where Miller-Rabin
# on the first 13 prime bases is exact
_P61 = 10 ** 18 + 3
_SEMIPRIME = _P61 * (10 ** 18 + 9)
_M89 = 2 ** 89 - 1


@pytest.mark.parametrize("argv, code, error", [
    (["reduce-row", "--ring", f"prime:{_P61}", "--row", "[1,0]"], 0, None),
    (["reduce-row", "--ring", f"polyloc:{_P61}:2", "--row", "[[1],[0]]"],
     0, None),
    (["reduce-row", "--ring", f"mod:{_SEMIPRIME}", "--row", "[1,0]"],
     2, "not_local"),
    (["orbits", "--ring", f"mod:{_SEMIPRIME}", "--kind", "row", "--family",
      "lin", "--size", "2"], 2, "search_budget_exceeded"),
    (["reduce-row", "--ring", f"prime:{_M89}", "--row", "[1,0]"],
     2, "unsupported_ring"),
    (["reduce-row", "--ring", f"mod:{_M89}", "--row", "[1,0]"],
     2, "unsupported_ring"),
], ids=["prime-61-bit", "polyloc-61-bit", "mod-semiprime",
        "orbits-semiprime", "prime-above-bound", "mod-above-bound"])
def test_large_moduli_answer_in_bounded_time(argv, code, error, capsys):
    assert within(10, lambda: main(argv)) == code
    out = capsys.readouterr().out
    if error is None:
        assert json.loads(out)["checks"][0]["status"] == "pass"
    else:
        assert json.loads(out)["code"] == error


def test_reduce_row_checks_a_long_row_in_linear_time(capsys):
    # the check must stay linear in the row's length: an e_1 read off I_m
    # would cost 4 * 10^8 slots here
    row = json.dumps([2] * 19999 + [3])
    argv = ["reduce-row", "--ring", "mod:4", "--row", row]
    assert within(10, lambda: main(argv)) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["outputs"]["word"]["gens"]) == 20000
    assert obj["checks"] == [{"name": "row . eval(word) == e_1",
                              "status": "pass"}]


# over the zero ring every orbit table is one object: one longer than the
# budget is refused before it is built, and one within it answers
_REFUSED = '"code":"search_budget_exceeded"'


@pytest.mark.parametrize("argv, code, want", [
    (["orbits", "--ring", "mod:1", "--kind", "row", "--size",
      str(10 ** 10)], 2, _REFUSED),
    (["orbits", "--ring", "mod:1", "--kind", "row", "--size",
      str(10 ** 20)], 2, _REFUSED),
    (["orbits", "--ring", "mod:1", "--kind", "frame", "--family", "lin",
      "--size", str(2 * 10 ** 7), "--frame-rows", "1"], 2, _REFUSED),
    (["orbits", "--ring", "mod:1", "--kind", "frame", "--family", "lin",
      "--size", str(10 ** 5), "--frame-rows", "2"], 0,
     '{"objects":1,"orbits":1,"sizes":[1]}'),
], ids=["row-10^10", "row-10^20", "frame-2x10^7", "frame-10^5-2-rows"])
def test_zero_ring_orbits_answer_in_bounded_memory(argv, code, want,
                                                   capsys):
    assert within(10, lambda: main(argv)) == code
    assert want in capsys.readouterr().out


@pytest.mark.parametrize("ring", ["mod:4", "mod:6"])
def test_a_square_lin_frame_table_is_refused_before_its_catalog(ring,
                                                                capsys):
    # the orbit of [I_300 | 0] holds at least q^(300 * 299) frames, so the
    # bound refuses it before the 269,100 (or 448,500) generators of its
    # catalog are built
    argv = ["orbits", "--ring", ring, "--kind", "frame", "--family", "lin",
            "--size", "300", "--frame-rows", "300"]
    assert within(10, lambda: main(argv)) == 2
    assert _REFUSED in capsys.readouterr().out


@pytest.mark.parametrize("family, size", [("lin", "4"), ("sp", "6")])
def test_a_full_frame_over_f3_is_refused_by_its_count(family, size, capsys):
    # SL_4(F_3) and Sp_6(F_3) are past the default budget: their exact
    # sizes refuse them before the catalog, with the BFS's own answer
    argv = ["orbits", "--ring", "prime:3", "--kind", "frame", "--family",
            family, "--size", size, "--frame-rows", size]
    assert within(2, lambda: main(argv)) == 2
    assert json.loads(capsys.readouterr().out) == {
        "code": "search_budget_exceeded", "context": {},
        "message": "orbit table exceeded budget 10000000"}


def test_an_sp_frame_over_z9_is_refused_by_its_count(capsys):
    # Z/9 sp 2 x 6, about 3.13 * 10^10 hyperbolic pairs, is refused by its
    # exact size before the catalog; its lower bound, 9^4, admits it
    argv = ["orbits", "--ring", "mod:9", "--kind", "frame", "--family",
            "sp", "--size", "6", "--frame-rows", "2"]
    assert within(2, lambda: main(argv)) == 2
    assert json.loads(capsys.readouterr().out) == {
        "code": "search_budget_exceeded", "context": {},
        "message": "orbit table exceeded budget 10000000"}


def test_a_square_orth_frame_over_f5_is_refused_by_its_count(capsys):
    # EO_6(F_5), about 1.45 * 10^10 frames, is refused by its exact size
    # before the catalog; its lower bound admitted it, and the BFS ran for
    # minutes
    argv = ["orbits", "--ring", "prime:5", "--kind", "frame", "--family",
            "orth", "--size", "6", "--frame-rows", "6"]
    assert within(2, lambda: main(argv)) == 2
    assert json.loads(capsys.readouterr().out) == {
        "code": "search_budget_exceeded", "context": {},
        "message": "orbit table exceeded budget 10000000"}
