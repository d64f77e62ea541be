"""CLI: what an argv -> outcome row of tests/cli_cases.py cannot state:
monkeypatched internals, the parser cache, the parse differential."""

import argparse
import contextlib
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

from cli_cases import ROW, ROWS
from test_cli_cases import run_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ring_shorthand():
    assert parse_ring("mod:4") == ModularRing(4)
    assert parse_ring("prime:5") == PrimeField(5)
    assert parse_ring("polyloc:2:2") == TruncatedPolyLocal(2, 2)
    assert parse_ring('{"kind":"mod","n":4}') == ModularRing(4)


def test_two_row_refuses_a_non_local_ring_before_solving(capsys,
                                                         monkeypatch):
    # over Z the first has a right inverse and the second none, and Z/6 is
    # not local either; each is refused before the right-inverse solver
    # runs, and before a given beta is checked
    def unreachable(mat):
        raise AssertionError("right_inverse ran over a non-local ring")

    monkeypatch.setattr(cli, "right_inverse", unreachable)
    for name in ("two-row over Z, right-invertible",
                 "two-row over Z, not right-invertible", "two-row over Z/6"):
        for beta in ([], ["--beta", "[[0,0],[0,0],[0,0]]"]):
            code, out = run_cli(capsys, *ROW[name].args(), *beta)
            assert code == 2
            assert json.loads(out)["code"] == "not_local", name


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
    args = ROW["harness: lemmas --seed 7 --budget 3"].args()
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_orbit_cache_and_certify(capsys, tmp_path, monkeypatch):
    # both verbs read the table's codes: neither builds its payload views
    def no_views(table):
        raise AssertionError("views built")

    monkeypatch.setattr(OrbitTable, "_views", property(no_views))
    run_rows([ROW["orbits cache Z/2 rows of 2"],
              ROW["certify Z/2 rows, equivalent"]], tmp_path)


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
    argv = ROW[f"witness: {verb}"].args()
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

# the rows of tests/cli_cases.py whose witness sha256 was recorded while the
# verbs still recomputed the checks their constructions make
WITNESSES = tuple(f"witness: {verb}" for verb in (
    "complete-linear", "complete-sp", "complete-orth", "whitehead-linear",
    "whitehead-sp", "transvection", "common-perp", "two-row", "roitman",
    "ortho-quotient", "classify-o2"))
USAGE_ERRORS = ("unknown ring", "missing --size", "bad --flavor",
                "bad reduce-row --flavor", "bad complete --flavor",
                "bad whitehead --flavor")


def _run_all(capsys, argvs):
    """(exit code, stdout, stderr) of each argv, in order."""
    out = []
    for argv in argvs:
        code = main(list(argv))
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_cached_parser_matches_a_fresh_one(capsys, monkeypatch):
    argvs = [ROW[name].args() for name in WITNESSES]
    # twice through the cached parser, so every parse follows all the others
    cached = _run_all(capsys, argvs + argvs)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_all(capsys, argvs)
    assert cached == fresh + fresh


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_a_usage_error_leaves_no_parser_state(name, tmp_path):
    # each usage error, then a witness: its bytes are still the recorded ones
    run_rows([row for verb in WITNESSES for row in (ROW[name], ROW[verb])],
             tmp_path)


def test_help_prints_the_same_bytes_twice(capsys):
    for argv in (ROW["help"].args(), ROW["orbits help"].args()):
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
    return ([ROW[name].args() for name in WITNESSES + USAGE_ERRORS]
            + bad_flavor + seeded)


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
    code, out = run_cli(capsys,
                        *ROW["harness: localglobal --seed 7 --budget 3"].args())
    obj = json.loads(out)
    assert code == 0 and obj["failures"] == 0
    seeded = obj["checks"][-1]
    assert (seeded["instances"], seeded["failures"], seeded["splits"]) == \
        (3, 0, 1)


# ---------------------------------------------------------------------------
# the test ids under which tier-1 ran rows of tests/cli_cases.py before the
# table held them (``Row.was``): each id runs its rows, so no id left the
# suite, and tests/test_cli_cases.py runs every other row

def _kept(rows_by_param):
    if list(rows_by_param) == [""]:
        def test(tmp_path, rows=rows_by_param[""]):
            run_rows(rows, tmp_path)
        return test

    @pytest.mark.parametrize("rows", list(rows_by_param.values()),
                             ids=list(rows_by_param))
    def test(rows, tmp_path):
        run_rows(rows, tmp_path)
    return test


def _kept_tests():
    by_test = {}
    for row in ROWS:
        if row.was:
            test, _, param = row.was.partition("[")
            by_test.setdefault(test, {}).setdefault(
                param.removesuffix("]"), []).append(row)
    return {test: _kept(rows) for test, rows in by_test.items()}


globals().update(_kept_tests())
