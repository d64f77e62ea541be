"""The CLI contract as one table: each row is an argv and the outcome that
docs/schemas.md promises for it.

One runner checks a row through either of two transports:

* in process, through ``cgf.cli.main`` (``tests/test_cli_cases.py``, part of
  the pytest suite);
* through the installed ``cgf`` entry point in a subprocess::

      python tests/cli_cases.py

Both run every row under the row's timeout and check the same things: the
stream rules every argv obeys (``stream_rules``), the exit code, one stdout
expectation (exact line, sha256, JSON subset or a named checker), an
optional stderr prefix and, for a ``--cache`` row, the file's sha256.

This module is stdlib-only.  Only the in-process transport imports ``cgf``;
the checkers re-verify witnesses with plain integer arithmetic and import
nothing from it.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

ERRORS_PY = Path(__file__).resolve().parents[1] / "src" / "cgf" / "errors.py"


@dataclass(frozen=True)
class Row:
    """One argv and its promised outcome.

    ``argv`` and each ``setup`` argv are a shell-quoted string or a list;
    ``{tmp}`` stands for a fresh directory.  ``setup`` argv run first through
    the same transport and must exit 0; then the named ``fixture`` edits the
    orbit table ``{tmp}/table.json``.  ``out`` is the exact stdout line; an exit-1 row
    has no stdout expectation, as the stream rules want its stdout empty.
    ``stderr`` is a prefix of the one stderr line; ``timeout`` is in seconds
    for each argv the row runs; ``was`` is the pytest id that ran this argv
    before the table."""

    name: str
    argv: str | list
    exit: int = 0
    out: str | None = None
    sha256: str | None = None
    subset: dict | None = None
    check: str | None = None
    stderr: str | None = None
    cache_sha256: str | None = None
    env: dict = field(default_factory=dict)
    setup: tuple = ()
    fixture: str | None = None
    timeout: float = 10
    was: str | None = None

    def __post_init__(self):
        expected = [x for x in (self.out, self.sha256, self.subset,
                                self.check) if x is not None]
        assert len(expected) == (self.exit != 1), \
            f"{self.name}: one stdout expectation, none for exit 1"

    def args(self, tmp="{tmp}") -> list:
        return _split(self.argv, tmp)

    def option(self, flag, tmp="{tmp}"):
        argv = self.args(tmp)
        return argv[argv.index(flag) + 1]


def _split(argv, tmp) -> list:
    argv = shlex.split(argv) if isinstance(argv, str) else argv
    return [a.replace("{tmp}", str(tmp)) for a in argv]


# ---------------------------------------------------------------------------
# the stream rules

@functools.cache
def _error_codes() -> frozenset:
    """The ``code`` of every ``CgfError`` subclass, read from the source."""
    tree = ast.parse(ERRORS_PY.read_text(encoding="utf-8"))
    return frozenset(
        stmt.value.value for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name != "CgfError"
        for stmt in cls.body
        if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "code")


def stream_rules(argv, code, out: str, err: str) -> None:
    """docs/schemas.md's exit and stream rules, which hold for every argv.

    Exit 1 prints nothing on stdout and one ``usage error: `` line on
    stderr.  Exit 0 and 2 print nothing on stderr and one JSON line on
    stdout, except a help request, which prints ``usage: cgf`` and exits 0.
    Exit 2's line is an error with a documented code, or a failed harness
    report."""
    assert code in (0, 1, 2), f"exit {code!r}"
    if code == 1:
        assert out == "", f"exit 1 printed on stdout: {out[:200]!r}"
        assert err.startswith("usage error: ") and err.endswith("\n") \
            and err.count("\n") == 1, f"exit 1 stderr: {err[:200]!r}"
        return
    assert err == "", f"exit {code} printed on stderr: {err[:200]!r}"
    if code == 0 and ("--help" in argv or "-h" in argv):
        assert out.startswith("usage: cgf"), out[:200]
        return
    assert out.endswith("\n") and out.count("\n") == 1, \
        f"not one stdout line: {out[:200]!r}"
    obj = json.loads(out)
    assert isinstance(obj, dict), out[:200]
    if code == 2:
        assert obj.get("code") in _error_codes() or obj.get("ok") is False, \
            f"exit 2 without a documented code: {out[:200]}"


# ---------------------------------------------------------------------------
# named checkers: plain integer and polynomial arithmetic, no cgf

def _eye(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


def _mul(a, b, n):
    return [[sum(x * y for x, y in zip(r, c)) % n for c in zip(*b)]
            for r in a]


def _usage(row, out):
    # --help prints the usage of the verb it follows, or the top usage
    verb = [a for a in row.args() if not a.startswith("-")]
    assert out.startswith(" ".join(["usage: cgf", *verb, ""])), out[:200]


def _word_mode(row, out):
    # a homotopy given by its word: every check passes, the membership of
    # sigma_t in the flavor group over R[T] among them
    obj = json.loads(out)
    assert obj["mode"] == "word", obj["mode"]
    status = {c["name"]: c["status"] for c in obj["checks"]}
    assert status["sigma_t stays in the flavor group over R[T]"] == "pass"
    assert set(status.values()) == {"pass"}, status


def _assert_mode(row, out):
    # a homotopy given by its matrix: every check passes except elementary
    # membership, which stays unverified
    obj = json.loads(out)
    assert obj["mode"] == "assert", obj["mode"]
    status = {c["name"]: c["status"] for c in obj["checks"]}
    assert status.pop("epsilon elementary membership") == "unverified"
    assert set(status.values()) == {"pass"}, status


def _sp_homotopy(row, out):
    # the witness meets d V = V sigma(T) and sigma(T) eval(eps) = d ⊥ I
    # over Z/9[T], each se_ij evaluated from its definition and checked to
    # keep psi
    n = 9
    w = json.loads(out)
    assert w["mode"] == "word", w["mode"]
    assert {c["status"] for c in w["checks"]} == {"pass"}, w["checks"]

    def poly(x):
        return [x] if isinstance(x, int) else list(x)

    def trim(p):
        p = [c % n for c in p]
        while p and p[-1] == 0:
            p.pop()
        return p

    def add(p, q):
        return trim([(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0)
                     for k in range(max(len(p), len(q)))])

    def mul(p, q):
        out = [0] * max(len(p) + len(q) - 1, 0)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return trim(out)

    def matmul(a, b):
        out = []
        for r in a:
            row = []
            for c in zip(*b):
                acc = []
                for x, y in zip(r, c):
                    acc = add(acc, mul(x, y))
                row.append(acc)
            out.append(row)
        return out

    def mat(m):
        return [[trim(poly(x)) for x in r] for r in m["entries"]]

    def eye(m):
        return [[[1] if i == j else [] for j in range(m)] for i in range(m)]

    def pair(k):  # 1-based form pairing (1,2),(3,4),...
        return k + 1 if k % 2 else k - 1

    def se(i, j, z, m):
        # se_ij(z) = I + z e_ij - (-1)^(i+j) z e_(pair j, pair i),
        # and I + z e_ij alone when j = pair i
        g = eye(m)
        g[i - 1][j - 1] = add(g[i - 1][j - 1], z)
        if j != pair(i):
            c = [(-1) ** (i + j + 1) * x for x in z]
            g[pair(j) - 1][pair(i) - 1] = add(g[pair(j) - 1][pair(i) - 1], c)
        return g

    def psi(m):
        f = [[[] for _ in range(m)] for _ in range(m)]
        for k in range(0, m, 2):
            f[k][k + 1], f[k + 1][k] = [1], [n - 1]
        return f

    def transpose(a):
        return [list(r) for r in zip(*a)]

    d, v = mat(w["inputs"]["delta_t"]), mat(w["inputs"]["v"])
    sigma, eps = mat(w["outputs"]["sigma_t"]), w["outputs"]["epsilon"]
    k, m = len(d), eps["size"]
    assert eps["family"] == "sp" and len(sigma) == m
    full = eye(m)
    for g in eps["gens"]:
        e = se(g["i"], g["j"], trim(poly(g["param"])), m)
        assert matmul(matmul(transpose(e), psi(m)), e) == psi(m), g
        full = matmul(full, e)
    d_perp = [r + [[]] * (m - k) for r in d] + \
        [[[]] * k + r[k:] for r in eye(m)[k:]]
    assert matmul(d, v) == matmul(v, sigma)
    assert matmul(sigma, full) == d_perp


def _whitehead(row, out):
    # eval(word) = d ⊥ X with d X = I over Z/n, under plain integer matmuls
    n = int(row.option("--ring").split(":")[1])
    d = json.loads(row.option("--matrix"))
    k = len(d)
    w = json.loads(out)
    assert {c["status"] for c in w["checks"]} == {"pass"}, w["checks"]
    assert w["inputs"]["matrix"]["entries"] == d
    word = w["outputs"]["word"]
    m = word["size"]
    assert word["family"] == "lin" and m == 2 * k
    full = _eye(m)
    for g in word["gens"]:
        assert g["i"] != g["j"] and g["param"] % n, g
        e = _eye(m)
        e[g["i"] - 1][g["j"] - 1] = g["param"] % n
        full = _mul(full, e, n)
    x = [r[k:] for r in full[k:]]
    assert [r[:k] for r in full[:k]] == d
    assert all(v == 0 for r in full[:k] for v in r[k:])
    assert all(v == 0 for r in full[k:] for v in r[:k])
    assert _mul(d, x, n) == _eye(k)


CHECKS = {"usage": _usage, "word mode": _word_mode,
          "assert mode": _assert_mode, "sp homotopy": _sp_homotopy,
          "whitehead": _whitehead}


def _whitehead_inputs():
    """d over Z/9 (8 x 8) and Z/12 (4 x 4), each a product of 3k random
    e_ij(z) built by column operations."""
    rng = random.Random(8)
    for n, k in ((9, 8), (12, 4)):
        d = _eye(k)
        for _ in range(3 * k):
            i, j = rng.sample(range(k), 2)
            z = rng.randrange(1, n)
            for r in d:
                r[j] = (r[j] + z * r[i]) % n
        yield n, d


# ---------------------------------------------------------------------------
# fixture builders: each edits an orbit table's JSON in place

def _reroot(obj):
    # re-root [3,2,1] under a new orbit id: every link stays valid
    kids = {}
    for e in obj["objects"]:
        if e["pred"] is not None:
            kids.setdefault(str(e["pred"][0]), []).append(e)
    root = next(e for e in obj["objects"] if e["v"] == [3, 2, 1])
    root["pred"], stack = None, [root]
    while stack:
        e = stack.pop()
        e["orbit"] = 1
        stack += kids.get(str(e["v"]), [])


def _pred_gen(key, value):
    def change(obj):
        linked = next(o for o in obj["objects"] if o["pred"])
        linked["pred"][1][key] = value
    return change


FIXTURES = {
    "re-rooted": _reroot,
    # [3,2,1] moved to orbit 1 against its own pred link
    "link tampered": lambda obj: next(
        e for e in obj["objects"] if e["v"] == [3, 2, 1]).update(orbit=1),
    # a key of the wrong length, as a new representative
    "short key": lambda obj: obj["objects"].append(
        {"v": [1, 0], "orbit": 1, "pred": None}),
    # two unimodular rows of 2 over Z/10^12, each its own orbit: the
    # closure check's catalog would hold 2 * (10^12 - 1) generators
    "huge catalog": lambda obj: obj.update(
        ring={"kind": "mod", "n": 10 ** 12}, size=2, objects=[
            {"v": [0, 1], "orbit": 0, "pred": None},
            {"v": [1, 0], "orbit": 1, "pred": None}]),
    "float size": lambda obj: obj.update(size=2.0),
    "string frame_rows": lambda obj: obj.update(frame_rows="0"),
    "float orbit": lambda obj: obj["objects"][0].update(orbit=0.0),
    "float pred i": _pred_gen("i", 2.5),
    "string pred j": _pred_gen("j", "1"),
}


# ---------------------------------------------------------------------------
# the table

def _was(test, *rows):
    """``rows``, each as the pytest id it ran under before this table: ``{}``
    in ``test`` stands for the part of the row's name after ": "."""
    return [replace(row, was=test.format(row.name.partition(": ")[2]))
            for row in rows]


F5 = '{"kind":"prime","p":5}'
# F_4 = F_2[x]/(1+x+x^2) and F_2[x]/(x^2) as quotient descriptors
F4 = ('{"kind":"quot","base":{"kind":"poly","base":{"kind":"prime","p":2},'
      '"var":"x"},"gens":[[1,1,1]]}')
X2 = ('{"kind":"quot","base":{"kind":"poly","base":{"kind":"prime","p":2},'
      '"var":"x"},"gens":[[0,0,1]]}')
# F_2 x F_2 = F_2[x]/(x+x^2) and F_3 x F_3 = F_3[x]/(2+x^2)
F2XF2 = ('{"kind":"quot","base":{"kind":"poly","base":{"kind":"prime",'
         '"p":2},"var":"x"},"gens":[[0,1,1]]}')
F3XF3 = ('{"kind":"quot","base":{"kind":"poly","base":{"kind":"prime",'
         '"p":3},"var":"x"},"gens":[[2,0,1]]}')
Z9T = '{"kind":"poly","base":{"kind":"mod","n":9},"var":"T"}'
I2_F5 = f'{{"rows":2,"cols":2,"ring":{F5},"entries":[[1,0],[0,1]]}}'
ORTH_WORD = (f'{{"family":"orth","size":6,"ring":{F5},'
             '"gens":[{"i":1,"j":3,"param":1}]}')
LIN_WORD = (f'{{"family":"lin","size":6,"ring":{F5},"gens":'
            '[{"i":1,"j":3,"param":2},{"i":4,"j":6,"param":1}]}')
THETA = ('{"family":"lin","size":2,"ring":{"kind":"poly","base":'
         '{"kind":"int"},"var":"T"},"gens":[{"i":1,"j":2,"param":[0,1]}]}')
IDENT6 = json.dumps(_eye(6))
P61 = 10 ** 18 + 3
SEMIPRIME = P61 * (10 ** 18 + 9)
M89 = 2 ** 89 - 1  # a prime above Miller-Rabin's exact bound
PASS = {"checks": [{"status": "pass"}]}
EQUIVALENT = {"equivalent": True}
REFUSED = {"code": "search_budget_exceeded"}
OVER_BUDGET = ('{"code":"search_budget_exceeded","context":{},'
               '"message":"orbit table exceeded budget 10000000"}')
WRONG_FAMILY = ('{"code":"unsupported_presentation","context":{},'
                '"message":"the word must be in orthogonal generators"}')
TABLE = "{tmp}/table.json"
CERTIFY = f"certify --table {TABLE} --v1 "
UM3_Z4 = (f"orbits --ring mod:4 --kind row --size 3 --cache {TABLE}",)
UM2_Z2 = (f"orbits --ring mod:2 --size 2 --cache {TABLE}",)
F5_ORTH4 = (f"orbits --ring prime:5 --family orth --size 4 --cache {TABLE}",)
F3_ORTH4 = (f"orbits --ring prime:3 --kind row --family orth --size 4 "
            f"--cache {TABLE}",)

ROWS = (
    # the README's invocations
    *_was("test_reduce_row_documented_invocation", Row(
        "readme reduce-row",
        """reduce-row --ring '{"kind":"mod","n":4}' --row [2,3,0]""",
        sha256="342c6f5fe0d3fa095499c6e962b42f4b237f779aaf2f7896a828fb167436dbf3")),
    *_was("test_orbits_documented_invocation", Row(
        "readme orbits", "orbits --ring mod:2 --kind row --size 2",
        out='{"objects":3,"orbits":1,"sizes":[3]}')),
    Row("readme harness lemmas", "harness lemmas --seed 7 --budget 25",
        sha256="d3d638ef7e4da44476d38a43b3c6b0e8def3417212eba98cda01b38ade367734"),

    # witnesses whose checks their construction enforces: sha256 of the
    # stdout, recorded while the verbs still recomputed those checks
    *_was("test_witness_bytes_are_golden[{}]", *(
        Row(f"witness: {name}", argv, sha256=digest) for name, argv, digest in (
            ("complete-linear",
             "complete --ring mod:9 --matrix [[1,2,3],[0,1,4]]",
             "f219af648135962933ce0d34216155a72daaadac5725425341748a82770df1a8"),
            ("complete-sp",
             "complete --flavor sp --ring mod:9 --matrix [[1,2,0,3],[0,1,0,0]]",
             "a0c69e151edfb943630c24f9cac91db3528457b2ec536efa951c62efecbee57f"),
            ("complete-orth", "complete --flavor orth --ring prime:5 "
             "--matrix [[1,0,2,3,0,0,1,4],[0,1,0,0,0,0,0,0]]",
             "bc3a448971e061141b084428caa8aa13ebbcd7d2ac3454a77d717df59666f1cc"),
            ("whitehead-linear",
             "whitehead --flavor linear --ring mod:9 --matrix [[1,2],[0,1]]",
             "ba0d320cad89d28aa7c650504b1f748ad7340447191c4e4354b4ba85756b39c8"),
            ("whitehead-sp", "whitehead --flavor sp --ring prime:5 "
             "--matrix [[2,1,0,0],[1,1,0,0],[0,0,1,3],[0,0,0,1]]",
             "d9ca211e128edfd47ef4f0a40527497a2f8a252619a45ad8ada5809d7eae7a3d"),
            ("transvection",
             "transvection --ring mod:9 --col [1,2,3] --row [1,1,8]",
             "2705eb0660cf4f828323f4963b12ca92a7d0d4b30152e631c0ad6db157d0c9e7"),
            ("common-perp",
             "common-perp --ring mod:9 --v1 [1,2,3] --v2 [1,5,7] --w [1,0,0]",
             "3e14a9e1ac9da326b324026ca32b9ce60d4969541325135bed90e989a28b7292"),
            ("two-row", "two-row --ring mod:9 --matrix [[1,2,3],[0,1,4]]",
             "d86df1e94265849b4ff0494110156fe763737143a0c69a84384de98a12749b3e"),
            ("roitman",
             "roitman --ring mod:4 --row [2,1,0] --k 1 --target [0,1]",
             "9bd5bcd35f494d7df8923280b200ffe7314c95744bddc8e2f022080165099450"),
            ("ortho-quotient", "ortho-quotient --ring prime:5 --matrix "
             "[[0,0,2,0,0,3],[0,1,0,3,0,0],[2,0,1,0,0,1],[0,3,0,0,0,0],"
             "[0,0,0,0,0,2],[0,2,0,3,3,0]]",
             "206f732e5d59334e3dcc007cbd5ff36b8de761adfc908f80144709f131daf198"),
            ("classify-o2", "classify-o2 --ring prime:5 --matrix [[0,2],[3,0]]",
             "093bf6a68bfc2d3a9c18b6df4585cc9128fab2f3721b47f3b07b9ad6046645ed"),
        ))),

    # a matrix given as an object is read over its own ring: a --ring that
    # matches it is accepted, and one that does not is refused
    Row("complete over a matching --ring",
        """complete --flavor sp --ring mod:9 --matrix '{"rows":2,"cols":4,"""
        """"ring":{"kind":"mod","n":9},"entries":[[1,2,0,3],[0,1,0,0]]}'""",
        sha256="a0c69e151edfb943630c24f9cac91db3528457b2ec536efa951c62efecbee57f"),
    Row("complete over another --ring",
        """complete --ring mod:4 --matrix '{"rows":1,"cols":2,"""
        """"ring":{"kind":"mod","n":9},"entries":[[1,0]]}'""", exit=2,
        out='{"code":"descriptor_mismatch","context":{"matrix_ring":"Z/9",'
            '"ring":"Z/4"},"message":"the matrix\'s ring is not --ring"}'),
    Row("ortho-quotient over another --ring",
        ["ortho-quotient", "--ring", "prime:7", "--matrix",
         f'{{"rows":6,"cols":6,"ring":{F5},"entries":{IDENT6}}}'], exit=2,
        out='{"code":"descriptor_mismatch","context":{"matrix_ring":"F_5",'
            '"ring":"F_7"},"message":"the matrix\'s ring is not --ring"}'),

    # reduce-row
    Row("reduce-row over a quotient ring",
        ["reduce-row", "--ring", X2, "--row", "[[1],[0,1]]"],
        sha256="8cf715499eb3cdd0fbec933d50a23bad3aa208f949ec6c2d91708b8ea4566c50"),
    # a word of 20,000 generators and one check: linear in the row's
    # length, where an e_1 read off I_m would cost 4 * 10^8 slots
    *_was("test_reduce_row_checks_a_long_row_in_linear_time", Row(
        "reduce-row a long row",
        ["reduce-row", "--ring", "mod:4", "--row",
         json.dumps([2] * 19999 + [3])],
        sha256="b5e785db3edd7d00076b0f98a0b860ebd2623072584e05154cf08718e33851b2")),
    # every modulus answers in bounded time: Miller-Rabin on the first 13
    # prime bases classifies it, exactly below 3.317e24
    *_was("test_large_moduli_answer_in_bounded_time[{}]",
          Row("large modulus: prime-61-bit",
              f"reduce-row --ring prime:{P61} --row [1,0]", subset=PASS),
          Row("large modulus: polyloc-61-bit",
              f"reduce-row --ring polyloc:{P61}:2 --row [[1],[0]]",
              subset=PASS),
          Row("large modulus: mod-semiprime",
              f"reduce-row --ring mod:{SEMIPRIME} --row [1,0]",
              exit=2, subset={"code": "not_local"}),
          Row("large modulus: orbits-semiprime",
              f"orbits --ring mod:{SEMIPRIME} --kind row --family lin "
              "--size 2", exit=2, subset=REFUSED),
          Row("large modulus: prime-above-bound",
              f"reduce-row --ring prime:{M89} --row [1,0]",
              exit=2, subset={"code": "unsupported_ring"}),
          Row("large modulus: mod-above-bound",
              f"reduce-row --ring mod:{M89} --row [1,0]",
              exit=2, subset={"code": "unsupported_ring"})),

    # documented domain errors (exit 2); a paired family needs an even
    # size, also at size 1, where no generator pair exists
    *_was("test_domain_error_exit_code",
          Row("reduce-row without a unit entry",
              "reduce-row --ring mod:4 --row [2,2]", exit=2,
              out='{"code":"no_unit_entry","context":{},'
                  '"message":"row has no unit entry over the local ring"}'),
          Row("orbits of a negative size", "orbits --ring mod:2 --size -1",
              exit=2, out='{"code":"object_out_of_domain","context":{},'
                          '"message":"row size must be >= 0, got -1"}'),
          *(Row(f"orbits {family} of size 1",
                f"orbits --ring mod:4 --family {family} --size 1", exit=2,
                out='{"code":"bad_indices","context":{},"message":'
                    f'"{family} generators need even size"}}')
            for family in ("sp", "orth"))),
    *_was("test_domain_errors_in_decoded_input_still_exit_2",
          Row("reduce-row over Z/0", "reduce-row --ring mod:0 --row [1,0]",
              exit=2, subset={"code": "unsupported_ring"}),
          Row("reduce-row over a denominator outside locint",
              "reduce-row --ring locint:5 --row [[1,5],[1,1]]",
              exit=2, subset={"code": "descriptor_mismatch"})),
    # two-row is local-only: over Z and non-local Z/n it refuses before
    # the right-inverse solver runs, whether or not a right inverse exists
    *(Row(name, f"two-row --ring {ring} --matrix {matrix}",
          exit=2, subset={"code": "not_local"}) for name, ring, matrix in (
        ("two-row over Z, right-invertible", "int", "[[2,3,0],[1,2,1]]"),
        ("two-row over Z, not right-invertible", "int", "[[2,4,6],[1,1,1]]"),
        ("two-row over Z/6", "mod:6", "[[2,3,1],[0,1,0]]"))),
    # the orthogonal harness takes orthogonal words only
    *_was("test_ortho_commutator_refuses_a_word_of_another_family", *(
        Row(f"ortho-commutator with a linear {which}-word",
            ["ortho-commutator", "--a-delta", I2_F5, "--a-word", a,
             "--b-delta", I2_F5, "--b-word", b], exit=2, out=WRONG_FAMILY)
        for which, a, b in (("b", ORTH_WORD, LIN_WORD),
                            ("a", LIN_WORD, ORTH_WORD)))),

    # whitehead over Z/9 (8 x 8, the local solver) and the non-local Z/12
    # (4 x 4, the Hermite path), each re-verified without cgf; a singular d
    # over Z/12 is not_invertible with its det, and a 13 x 13 d size_limit
    *(Row(f"whitehead {len(d)} x {len(d)} over Z/{n}",
          ["whitehead", "--flavor", "linear", "--ring", f"mod:{n}",
           "--matrix", json.dumps(d)], check="whitehead", timeout=20)
      for n, d in _whitehead_inputs()),
    Row("whitehead of a singular d over Z/12",
        "whitehead --flavor linear --ring mod:12 "
        "--matrix '[[2, 0, 0], [0, 1, 0], [0, 0, 3]]'", exit=2,
        subset={"code": "not_invertible", "context": {"det": "6"}},
        timeout=20),
    Row("whitehead of a 13 x 13 d",
        ["whitehead", "--flavor", "linear", "--ring", "mod:9",
         "--matrix", json.dumps(_eye(13))],
        exit=2, subset={"code": "size_limit"}, timeout=20),

    # homotopies, given by their word or their matrix; the orth sigma_t is
    # 10 x 10 over Z/9[T]
    *_was("test_homotopy_commute_trivial", Row(
        "homotopy-commute linear by its word",
        ["homotopy-commute", "--flavor", "linear", "--input",
         '{"ring":{"kind":"mod","n":9},"delta_word":{"family":"lin",'
         f'"size":2,"ring":{Z9T},"gens":[{{"i":1,"j":2,"param":[0,1]}}]}},'
         '"v":[[1,0,0],[0,1,0]]}'], check="word mode")),
    Row("homotopy-commute linear by its matrix",
        ["homotopy-commute", "--flavor", "linear", "--input",
         '{"ring":{"kind":"mod","n":9},"v":[[1,2,0],[0,1,3]],'
         f'"delta_matrix":{{"rows":2,"cols":2,"ring":{Z9T},'
         '"entries":[[1,[0,1]],[0,1]]}}'], check="assert mode"),
    Row("homotopy-commute orth 2 x 5 over Z/9",
        ["homotopy-commute", "--flavor", "orth", "--input",
         '{"ring":{"kind":"mod","n":9},"v":[[1,0,0,0,6,0,0,0,0,0],'
         '[0,1,0,0,0,0,0,0,0,6],[0,0,1,0,0,0,0,2,0,0],'
         '[0,0,0,1,0,0,0,0,0,5]],"delta_word":{"family":"orth","size":4,'
         f'"ring":{Z9T},"gens":[{{"i":1,"j":3,"param":[0,1]}},'
         '{"i":4,"j":1,"param":[0,2]}]}}'], check="word mode"),
    Row("homotopy-commute sp 2 x 3 pairs over Z/9",
        ["homotopy-commute", "--flavor", "sp", "--input",
         '{"ring":{"kind":"mod","n":9},"v":[[1,0,0,2,0,0],[0,1,0,5,5,0],'
         '[0,2,1,1,1,1],[0,0,0,6,5,0]],"delta_word":{"family":"sp",'
         f'"size":4,"ring":{Z9T},"gens":[{{"i":1,"j":3,"param":[0,2]}},'
         '{"i":4,"j":2,"param":[0,1,3]}]}}'], check="sp homotopy", timeout=20),

    # split and patch, the documented instances
    *_was("test_split_and_patch_verbs",
          Row("split", ["split", "--theta",
                        '{"family":"lin","size":2,"ring":{"kind":"poly",'
                        '"var":"T","base":{"kind":"frac","base":'
                        '{"kind":"int"},"s":6}},"gens":[{"i":1,"j":2,'
                        '"param":[[0,1],[1,6]]}]}',
                        "--s1", "3", "--s2", "-2", "--exponent", "2"],
              subset={"outputs": {"b": [4, 1]}}),
          Row("patch", ["patch", "--sigma1",
                        '{"rows":1,"cols":1,"ring":{"kind":"poly","var":"T",'
                        '"base":{"kind":"frac","base":{"kind":"int"},"s":3}},'
                        '"entries":[[[[7,1]]]]}', "--sigma2",
                        '{"rows":1,"cols":1,"ring":{"kind":"poly","var":"T",'
                        '"base":{"kind":"frac","base":{"kind":"int"},"s":-2}},'
                        '"entries":[[[[7,1]]]]}', "--s1", "3", "--s2", "-2"],
              sha256="99c89c6539003643a4b48ac75ee31578a9040f52ab12792edf8c3472d1bd35d0")),

    # the orthogonal quotient; the O_2 corner over F_101[x]/(x^3),
    # 1,030,301 elements, is normalised by its square class without a scan
    # of its units
    *_was("test_classify_and_quotient_verbs",
          Row("classify-o2 diag",
              "classify-o2 --ring prime:5 --matrix [[2,0],[0,3]]",
              subset={"outputs": {"shape": "diag", "u": 2}}),
          Row("ortho-quotient of I_6",
              ["ortho-quotient", "--ring", "prime:5", "--matrix", IDENT6],
              sha256="39454a830e4d8d89a5012d4211a6ee4dfe3ef127e07cd30232940ba33360c248")),
    Row("ortho-quotient over polyloc:101:3",
        "ortho-quotient --ring polyloc:101:3 --matrix [[1,0,0,0,0,0],"
        "[0,1,0,0,0,0],[0,0,1,0,0,0],[0,0,0,1,0,0],[0,0,0,0,2,0],"
        "[0,0,0,0,0,51]]", subset=PASS),

    # orbit counts; F_2[x]/(1+x+x^2) sorts its elements by (length,
    # payload), and F_2[x]/(x^2) as polyloc and as a quotient runs on one
    # F[x]/(f) arithmetic: the same counts under both descriptors.  Each
    # orbit stops once its counted set is reached: orth rows by the value
    # of the form, sp frames of two rows by the hyperbolic pairs
    *(Row(name, argv, out=out) for name, argv, out in (
        ("orbits polyloc:2:2 lin frames 2 x 2",
         "orbits --ring polyloc:2:2 --kind frame --family lin --size 2 "
         "--frame-rows 2", '{"objects":48,"orbits":1,"sizes":[48]}'),
        ("orbits F_4 rows of 3",
         ["orbits", "--ring", F4, "--kind", "row", "--size", "3"],
         '{"objects":63,"orbits":1,"sizes":[63]}'),
        ("orbits polyloc:2:2 rows of 3",
         "orbits --ring polyloc:2:2 --kind row --size 3",
         '{"objects":56,"orbits":1,"sizes":[56]}'),
        ("orbits F_2[x]/(x^2) rows of 3",
         ["orbits", "--ring", X2, "--kind", "row", "--size", "3"],
         '{"objects":56,"orbits":1,"sizes":[56]}'),
        ("orbits F_7 orth rows of 4",
         "orbits --ring prime:7 --kind row --family orth --size 4",
         '{"objects":2400,"orbits":7,"sizes":[336,336,336,336,336,336,384]}'),
        ("orbits Z/9 orth rows of 4",
         "orbits --ring mod:9 --kind row --family orth --size 4",
         '{"objects":6480,"orbits":9,'
         '"sizes":[648,648,648,648,648,648,864,864,864]}'),
        ("orbits Z/3 sp frames 2 x 4",
         "orbits --ring mod:3 --kind frame --family sp --size 4 "
         "--frame-rows 2", '{"objects":2160,"orbits":1,"sizes":[2160]}'))),
    # rings that are neither local nor a Z/m are split into their local
    # parts by trial division, and their row domains are the complement of
    # the rows of each part's maximal ideal
    *(Row(name, argv, out=out) for name, argv, out in (
        ("orbits F_3 x F_3 sp rows of 4",
         ["orbits", "--ring", F3XF3, "--kind", "row", "--family", "sp",
          "--size", "4"], '{"objects":6400,"orbits":1,"sizes":[6400]}'),
        ("orbits F_2 x F_2 rows of 6",
         ["orbits", "--ring", F2XF2, "--kind", "row", "--size", "6"],
         '{"objects":3969,"orbits":1,"sizes":[3969]}'))),
    # cached tables: the counts and the file's bytes are pinned, the Z/4
    # bytes since the table was written through json.dump's pure-Python
    # encoder; the row domains of Z/8 (local), Z/12 and Z/30 (two and three
    # primes) are the complement of the maximal-ideal rows
    *_was("test_orbit_cache_bytes_are_golden", Row(
        "orbits cache Z/4 rows of 3",
        f"orbits --ring mod:4 --kind row --family lin --size 3 --cache {TABLE}",
        out='{"objects":56,"orbits":1,"sizes":[56]}',
        cache_sha256="5b7be2fc5b95ae58c0a2f2524825eda48f917d669d37e4526d295de799449912")),
    *(Row(f"orbits cache Z/{n} rows of {size}",
          f"orbits --ring mod:{n} --kind row --size {size} --cache {TABLE}",
          out=f'{{"objects":{count},"orbits":1,"sizes":[{count}]}}',
          cache_sha256=digest) for n, size, count, digest in (
        (8, 4, 3840,
         "8a105293648e69942db1c2a26d6ef2b7d653beb30783c50ad4a4de8d8cacb73a"),
        (12, 3, 1456,
         "364c8ce616168f1ad0e3aac5eede384572e183a2748c4c163c3ce52247bc6edb"),
        (30, 2, 576,
         "4cb62368f24673606a11d7fdea15282239f09abdee8f83287dc2c28d3be9a40f"))),
    Row("orbits cache Z/2 rows of 2", UM2_Z2[0],
        out='{"objects":3,"orbits":1,"sizes":[3]}',
        cache_sha256="2379efa381b1ac1ad63cf4990ceeadbb1d9610e8bf02873341a54602f788007f"),
    Row("orbits cache F_5 orth rows of 4", F5_ORTH4[0],
        out='{"objects":624,"orbits":5,"sizes":[120,120,120,120,144]}',
        cache_sha256="c4363e70108aab7bec9a90e666456a9a168d6e90bdcc16193e313b4c66e9eb9e"),

    # orbit tables in bounded time and memory: a huge size meets its budget
    # without forming q^size, and over the zero ring every table is one
    # object, refused before it is built when longer than the budget
    Row("orbits of a huge row size",
        f"orbits --ring mod:2 --kind row --size {10 ** 30}",
        exit=2, subset=REFUSED),
    Row("zero ring: row-10^5", "orbits --ring mod:1 --kind row --size 100000",
        out='{"objects":1,"orbits":1,"sizes":[1]}'),
    *_was("test_zero_ring_orbits_answer_in_bounded_memory[{}]",
          *(Row(f"zero ring: {name}", f"orbits --ring mod:1 {args}",
                exit=2, subset=REFUSED) for name, args in (
              ("row-10^10", f"--kind row --size {10 ** 10}"),
              ("row-10^20", f"--kind row --size {10 ** 20}"),
              ("frame-2x10^7", f"--kind frame --family lin "
               f"--size {2 * 10 ** 7} --frame-rows 1"))),
          Row("zero ring: frame-10^5-2-rows",
              "orbits --ring mod:1 --kind frame --family lin --size 100000 "
              "--frame-rows 2", out='{"objects":1,"orbits":1,"sizes":[1]}')),
    # a frame table whose catalog has no (i, j) pair (lin of size 1, orth
    # of size 2) is its one standard frame: it answers without listing the
    # ring's parameters or factoring its modulus, over F_p with p = 10^8 + 7
    # and over Z/m with m the product of the primes 10^18 + 3 and 10^18 + 9
    *(Row(f"one-frame table: {family} {size} over {ring}",
          f"orbits --ring {ring} --kind frame --family {family} "
          f"--size {size} --frame-rows 1",
          out='{"objects":1,"orbits":1,"sizes":[1]}', timeout=2)
      for ring, family, size in (
          ("prime:100000007", "lin", 1), ("prime:100000007", "orth", 2),
          (f"mod:{(10 ** 18 + 3) * (10 ** 18 + 9)}", "lin", 1))),
    # over a nonzero ring the empty row lies in every maximal ideal, so a
    # row table of size 0 is empty, and a one-row sp frame of size 2 holds
    # at least q frames, so it is refused: neither asks for the local parts
    # of Z/m, m = (10^18 + 3)(10^18 + 9), which trial division would not
    # find in any time
    Row("huge modulus: rows of 0",
        f"orbits --ring mod:{SEMIPRIME} --kind row --size 0",
        out='{"objects":0,"orbits":0,"sizes":[]}', timeout=2),
    Row("huge modulus: sp frames 1 x 2",
        f"orbits --ring mod:{SEMIPRIME} --kind frame --family sp --size 2 "
        "--frame-rows 1", exit=2, out=OVER_BUDGET, timeout=2),
    # an orth catalog over a ring without 1/2 raises before the frame's
    # count splits the ring or the catalog lists its q - 1 parameters, as
    # over Z/4
    *(Row(f"orth frames without 1/2 over Z/{n}",
          f"orbits --ring mod:{n} --kind frame --family orth --size 4 "
          "--frame-rows 1", exit=2,
          out='{"code":"half_not_invertible","context":{},"message":'
              f'"orthogonal generators need 1/2 in Z/{n}"}}', timeout=2)
      for n in (10 ** 12 + 2, 2 * 10 ** 36 + 24 * 10 ** 18 + 54, 9999998)),
    # an oversized frame table is refused by a lower bound on its orbit
    # before its catalog exists
    *(Row(f"orbits F_5 {family} frames 1 x 3000",
          f"orbits --ring prime:5 --kind frame --family {family} "
          "--size 3000 --frame-rows 1", exit=2, subset=REFUSED)
      for family in ("lin", "sp", "orth")),
    # a lin frame of as many rows as columns holds at least q^(r(s-1))
    # frames: [I_300 | 0] is refused before the 269,100 (or 448,500)
    # generators of its catalog are built
    *_was("test_a_square_lin_frame_table_is_refused_before_its_catalog[{}]",
          *(Row(f"square lin frame: {ring}",
                f"orbits --ring {ring} --kind frame --family lin --size 300 "
                "--frame-rows 300", exit=2, subset=REFUSED)
            for ring in ("mod:4", "mod:6"))),
    # SL_4(F_3), Sp_6(F_3), EO_6(F_5), the Z/9 sp 2 x 6 frames (about
    # 3.13 * 10^10 hyperbolic pairs, where the lower bound 9^4 admits them)
    # and Sp_4(Z/15) (|Sp_4(F_3)| |Sp_4(F_5)| = 485,222,400,000 frames,
    # where the lower bound is 15) hold more frames than the budget: their
    # exact sizes refuse them before the catalog, with the BFS's own answer
    *_was("test_a_full_frame_over_f3_is_refused_by_its_count[{}]", *(
        Row(f"full frame over F_3: {family}-{size}",
            f"orbits --ring prime:3 --kind frame --family {family} "
            f"--size {size} --frame-rows {size}",
            exit=2, out=OVER_BUDGET, timeout=2)
        for family, size in (("lin", 4), ("sp", 6)))),
    *_was("test_a_square_orth_frame_over_f5_is_refused_by_its_count", Row(
        "full orth frame over F_5", "orbits --ring prime:5 --kind frame "
        "--family orth --size 6 --frame-rows 6",
        exit=2, out=OVER_BUDGET, timeout=2)),
    *_was("test_an_sp_frame_over_z9_is_refused_by_its_count", Row(
        "sp frames 2 x 6 over Z/9", "orbits --ring mod:9 --kind frame "
        "--family sp --size 6 --frame-rows 2",
        exit=2, out=OVER_BUDGET, timeout=2)),
    Row("sp frames 4 x 4 over Z/15", "orbits --ring mod:15 --kind frame "
        "--family sp --size 4 --frame-rows 4",
        exit=2, out=OVER_BUDGET, timeout=2),

    # certify against cached tables, genuine and doctored.  A tampered
    # table's orbit ids contradict its own pred links; a re-rooted one
    # keeps every link valid, but the generators still join the two ids,
    # so "not equivalent" fails the closure check
    *_was("test_certify_refuses_a_tampered_table",
          Row("certify Z/4 rows, equivalent", CERTIFY + "[1,0,0] --v2 [3,2,1]",
              setup=UM3_Z4, subset=EQUIVALENT),
          Row("certify a link-tampered table",
              CERTIFY + "[1,0,0] --v2 [3,2,1]", setup=UM3_Z4,
              fixture="link tampered", exit=2,
              out='{"code":"witness_check_failed","context":{"object":'
                  '"[3, 2, 1]"},"message":"orbit table link fails its check"}')),
    *_was("test_certify_refuses_a_rerooted_table", Row(
        "certify a re-rooted table", CERTIFY + "[1,0,0] --v2 [3,2,1]",
        setup=UM3_Z4, fixture="re-rooted", exit=2,
        subset={"code": "witness_check_failed", "message":
                "orbit table orbit is not closed under the generators"})),
    # a catalog past 10^7 generators, counted in closed form, is refused
    # before the closure check lists it
    Row("certify a table with a huge catalog", CERTIFY + "[1,0] --v2 [0,1]",
        setup=UM2_Z2, fixture="huge catalog", exit=2,
        out='{"code":"search_budget_exceeded","context":{},"message":'
            '"a catalog of 1999999999998 generators exceeds budget '
            '10000000"}', timeout=2),
    Row("certify a table with a short key", CERTIFY + "[1,0] --v2 [1,0]",
        setup=UM3_Z4, fixture="short key", exit=2,
        subset={"code": "witness_check_failed"}),
    # O_4(F_5) has five orbits on its rows and O_4(F_3) three: q(v) = v1 v2
    # + v3 v4 is invariant, and both answers exit 0
    Row("certify F_5 orth rows, not equivalent",
        CERTIFY + "[0,0,0,1] --v2 [0,0,1,1]", setup=F5_ORTH4,
        out='{"equivalent":false}'),
    Row("certify F_5 orth rows, equivalent",
        CERTIFY + "[0,0,0,1] --v2 [1,0,0,0]", setup=F5_ORTH4,
        subset=EQUIVALENT),
    *_was("test_certify_answers_false_across_genuine_orbits",
          Row("orbits cache F_3 orth rows of 4", F3_ORTH4[0],
              out='{"objects":80,"orbits":3,"sizes":[24,24,32]}',
              cache_sha256="546380175b8d0163fc99a351aacb0ba1dbb84000f0b780b19595430ddccecffa"),
          Row("certify F_3 orth rows, not equivalent",
              CERTIFY + "[1,0,0,0] --v2 [1,1,0,0]", setup=F3_ORTH4,
              out='{"equivalent":false}'),
          Row("certify F_3 orth rows, equivalent",
              CERTIFY + "[1,0,0,0] --v2 [0,1,0,0]", setup=F3_ORTH4,
              subset=EQUIVALENT)),

    # harness suites, and the report bytes recorded before the suites
    # shared one tally
    *(Row(f"harness {suite} --seed 7 --budget 1",
          f"harness {suite} --seed 7 --budget 1", sha256=digest)
      for suite, digest in (
          ("lemmas",
           "07594f1129e10038489c0cd095eb270cd1416c4d0b2faca09af1002546cdd276"),
          ("homotopy",
           "afb8a014e305de6e8ae4d11143591ef59c253aacd6317e906d76b640efcdd6a3"),
          ("localglobal",
           "84b115c790c1765424cce40a714e7966e3a91a05b93d3bffe26e9fd616a98ba0"),
          ("ortho",
           "81719332d42ab5f0f85cefe05ebc54276b957e0a94b4d152afb535417b3c00a3"))),
    Row("harness lemmas --corrupt --budget 1",
        "harness lemmas --corrupt --budget 1", exit=2, subset={"ok": False}),
    *_was("test_harness_corrupt_negative_control", Row(
        "harness lemmas --seed 3 --budget 2 --corrupt",
        "harness lemmas --seed 3 --budget 2 --corrupt",
        exit=2, subset={"ok": False})),
    *_was("test_harness_report_bytes_are_golden[{}]", *(
        Row(f"harness: {args}", f"harness {args}", exit=code, sha256=digest)
        for args, code, digest in (
            ("lemmas --seed 7 --budget 3", 0,
             "af9da98fefe2f0bd6337cc93b37b33051dfe400453f5ed4d5e3167afbf3a816b"),
            ("lemmas --seed 11 --budget 3", 0,
             "d2f6567af43d38395529268f835ded4f6337f148884a00835775a2937f089f7b"),
            ("lemmas --corrupt --seed 5 --budget 2", 2,
             "3547d74de0516f529df40c0166a38dd4988a13ca5fba4e0c8ca918be4c94193d"),
            ("lemmas --budget 0", 0,
             "d0bb388156b20d75ae6283c6542756f4c38e96854e1fa1af229327cdc8427558"),
            ("homotopy --seed 7 --budget 3", 0,
             "e9aa8b897286f0a46b8da6cad418d27d3575d583b7e11a2f98fdc84524e44e82"),
            ("homotopy --seed 11 --budget 3", 0,
             "c08c932fefb340b8000f8929fb58fc8bc1f5c3ee57a7d54b4afa4101b7c81155"),
            ("homotopy --corrupt --seed 5 --budget 2", 2,
             "ece69f6fbd619cc5b73c959218e015f8b151158a5b790bba11421cf2c1ac0f0c"),
            ("homotopy --budget 0", 0,
             "03f6ac6ceef6a307a6e3a5234b1f296df5f56d622ca017023a5e36d244ba8913"),
            ("localglobal --seed 7 --budget 3", 0,
             "880f293cef9a14576b783824448a35f51a0f7542096b16e8173eafe2103bdfd2"),
            ("localglobal --seed 11 --budget 3", 0,
             "182a0b6095d4d0d761eacc4dc53357545495c126a3626522edbc30ae14b7700b"),
            ("localglobal --corrupt --seed 5 --budget 2", 2,
             "209f2ff7749ad1ea2400bd2ab9ac70082eff4b2dbc1382bc15f085c1cf56b0a8"),
            ("localglobal --budget 0", 0,
             "a89079fd4660995fd2453aabc5a81af0017149e93a668d9086836269816117ee"),
            ("ortho --seed 7 --budget 3", 0,
             "fb743e39f08c7ead8f7a6118d5becd215d6d06f0f5a922e32a5e1c97443f88f7"),
            ("ortho --seed 11 --budget 3", 0,
             "6197d3ae0661fbfc9efd97e2c1344e1567ba6ffc2b6ebea5e1e6f618158746b0"),
            ("ortho --corrupt --seed 5 --budget 2", 2,
             "0a50fa80102105ab667f71b8ecd8af24ee21b64a9585a7c44666df7b5266adf4"),
            ("ortho --budget 0", 0,
             "66e2f6911fa0f75ad0b5485336a3ce552ca5cd6d6bf96d39e49e1be325b2c49d")))),

    # help: the top usage, and a verb's own
    Row("help", "--help", check="usage"),
    Row("orbits help", "orbits --help", check="usage"),

    # usage errors (exit 1): nothing on stdout, one line on stderr.  An
    # argv that does not start with a verb takes the whole parser
    *(Row(name, argv, exit=1) for name, argv in (
        ("no argv", []), ("unknown verb", "bogus"),
        ("leading option", "--ring mod:4 reduce-row"),
        ("missing --size", "orbits --ring mod:4"),
        ("bad --flavor", "homotopy-commute --flavor bogus --input {}"),
        ("bad reduce-row --flavor",
         "reduce-row --flavor orth --ring mod:9 --row [1,0]"),
        ("bad complete --flavor",
         "complete --flavor bogus --ring mod:4 --matrix [[1,0]]"),
        ("bad whitehead --flavor",
         "whitehead --flavor orth --ring mod:9 --matrix [[1,2],[0,1]]"))),
    *_was("test_usage_error_exit_code", Row(
        "unknown ring", "reduce-row --ring bogus:ring --row [1,0]", exit=1)),
    *_was("test_orbits_single_orbit_and_no_workers_flag",
          Row("orbits --workers", "orbits --ring mod:4 --size 3 --workers 2",
              exit=1),
          Row("orbits mod:4 rows of 3", "orbits --ring mod:4 --size 3",
              out='{"objects":56,"orbits":1,"sizes":[56]}')),
    # argparse checks --flavor's choices while it parses, so an unknown
    # ring after it is never read
    *_was("test_a_bad_flavor_is_refused_before_the_ring_is_read[{}]", *(
        Row(f"bad flavor first: {verb}",
            f"{verb} --flavor bogus --ring bogus:ring "
            f"{'--row' if verb == 'reduce-row' else '--matrix'} [[1,0]]",
            exit=1,
            stderr="usage error: argument --flavor: invalid choice: 'bogus'")
        for verb in ("complete", "reduce-row", "whitehead"))),
    *_was("test_harness_negative_budget_is_a_usage_error", Row(
        "harness --budget -1", "harness lemmas --budget -1",
        exit=1, stderr="usage error: --budget must be >= 0, got -1\n")),
    # orbits refuses a negative budget the same way, before the ring is read
    *(Row(f"orbits --budget -1: {kind}", f"orbits --ring mod:4 {shape} "
          "--budget -1",
          exit=1, stderr="usage error: --budget must be >= 0, got -1\n")
      for kind, shape in (("rows", "--size 2"),
                          ("frames", "--kind frame --family sp --size 2 "
                           "--frame-rows 1"))),
    # CGF_WORD_LIMIT is read once before each verb runs; empty means the
    # default
    *_was("test_malformed_word_limit_is_a_usage_error",
          *(Row(name, argv, env={"CGF_WORD_LIMIT": "abc"}, exit=1,
                stderr="usage error: malformed CGF_WORD_LIMIT")
            for name, argv in (
                ("malformed CGF_WORD_LIMIT",
                 "reduce-row --ring mod:4 --row [2,3,0]"),
                ("malformed CGF_WORD_LIMIT, harness",
                 "harness lemmas --budget 0"))),
          Row("empty CGF_WORD_LIMIT", "reduce-row --ring mod:4 --row [2,3,0]",
              env={"CGF_WORD_LIMIT": ""},
              sha256="342c6f5fe0d3fa095499c6e962b42f4b237f779aaf2f7896a828fb167436dbf3")),
    # an unwritable --cache: the table is built, then the write fails
    Row("unwritable cache: /", "orbits --ring mod:4 --size 2 --cache /",
        exit=1, stderr="usage error: malformed --cache: "),
    *_was("test_an_unwritable_cache_is_malformed_input[{}]", *(
        Row(f"unwritable cache: {where}",
            f"orbits --ring mod:4 --size 2 --cache {cache}",
            exit=1, stderr="usage error: malformed --cache: ")
        for where, cache in (("a directory", "{tmp}"),
                             ("a missing directory",
                              "{tmp}/missing/x.json")))),

    # malformed input, each of which once escaped as a raw traceback
    *_was("test_malformed_input_is_a_usage_error[{}]", *(
        Row(f"malformed: {name}", argv, exit=1, stderr="usage error: ")
        for name, argv in (
            ("bad JSON row", "reduce-row --ring mod:4 --row [2,3"),
            ("ring missing a key",
             """reduce-row --ring '{"kind":"mod"}' --row [1,0]"""),
            ("bad ring integer", "reduce-row --ring mod:x --row [1,0]"),
            ("zero denominator", "reduce-row --ring locint:5 --row [[1,0]]"),
            ("missing @file",
             "reduce-row --ring mod:4 --row @{tmp}/missing.json"),
            ("input without ring",
             "homotopy-commute --flavor linear --input {}"),
            ("ring without modulus", "reduce-row --ring mod --row [1,0]"),
            ("deeply nested ring",
             ["reduce-row", "--ring", "poly:" * 2000 + "int", "--row",
              "[1,0]"]),
            ("deeply nested row",
             ["reduce-row", "--ring", "mod:4", "--row", "[" * 10 ** 5])))),
    # a JSON number with a fraction part, or a string, where an integer is
    # expected: each once certified a truncated value, printed a witness
    # whose entries lie outside the ring, or escaped as a traceback
    *_was("test_a_non_integer_number_is_malformed_input[{}]", *(
        Row(f"not an integer: {name}", f"reduce-row {args}", exit=1,
            stderr="usage error: malformed ") for name, args in (
            ("float modulus",
             """--ring '{"kind":"mod","n":4.7}' --row [1,1]"""),
            ("float residue", "--ring mod:4 --row [1.5,1]"),
            ("float numerator", "--ring locint:3 --row [[1.5,2],1]"),
            ("float polyloc constant", "--ring polyloc:2:2 --row [[1.5],[0]]"),
            ("float polyloc entry", "--ring polyloc:2:2 --row [[1],[0.5]]"),
            ("string polyloc entry",
             """--ring polyloc:2:2 --row '[[1],["1"]]'"""),
            ("string prime",
             """--ring '{"kind":"prime","p":"5"}' --row [1,0]"""),
            ("float degree cap",
             """--ring '{"kind":"poly","base":{"kind":"mod","n":4},"""
             """"degree_cap":8.5}' --row [[1],[0]]""")))),
    # ... and in a word or an orbit table
    *_was("test_a_non_integer_in_a_word_or_table_is_malformed_input",
          *(Row(f"word with a {name}",
                ["split", "--theta", theta, "--s1", "3", "--s2", "-2"],
                exit=1) for name, theta in (
              ("float size", THETA.replace('"size":2', '"size":2.0')),
              ("float i", THETA.replace('"i":1', '"i":1.0')),
              ("string j", THETA.replace('"j":2', '"j":"2"')))),
          *(Row(f"table with a {fixture}", CERTIFY + "[1,0] --v2 [1,1]",
                setup=UM2_Z2, fixture=fixture, exit=1)
            for fixture in ("float size", "string frame_rows", "float orbit",
                            "float pred i", "string pred j")),
          Row("certify Z/2 rows, equivalent", CERTIFY + "[1,0] --v2 [1,1]",
              setup=UM2_Z2, subset=EQUIVALENT)),
)
ROW = {row.name: row for row in ROWS}
assert len(ROW) == len(ROWS), "row names are unique"


# ---------------------------------------------------------------------------
# the runner and its two transports

def _is_subset(want, got) -> bool:
    """Whether ``got`` holds ``want``: a dict's keys recursively, a list
    item by item, anything else by equality."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            k in got and _is_subset(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and all(
            _is_subset(w, g) for w, g in zip(want, got))
    return want == got


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(row: Row, transport, tmp: Path) -> None:
    """Check ``row`` through ``transport(argv, env, timeout)``, which returns
    (exit code, stdout, stderr), with ``{tmp}`` standing for ``tmp``.
    Raises on the first expectation that fails."""
    for argv in row.setup:
        code, _, err = transport(_split(argv, tmp), {}, row.timeout)
        assert code == 0, f"setup {argv!r}: exit {code!r}: {err}"
    if row.fixture:
        table = tmp / "table.json"
        obj = json.loads(table.read_text())
        FIXTURES[row.fixture](obj)
        table.write_text(json.dumps(obj))
    argv = row.args(tmp)
    code, out, err = transport(argv, row.env, row.timeout)
    stream_rules(argv, code, out, err)
    assert code == row.exit, f"exit {code}, want {row.exit}: {out[:200]}"
    if row.out is not None:
        assert out == row.out + "\n", out[:200]
    if row.sha256 is not None:
        got = _sha256(out.encode())
        assert got == row.sha256, f"stdout sha256 {got}: {out[:200]}"
    if row.subset is not None:
        assert _is_subset(row.subset, json.loads(out)), out[:200]
    if row.check is not None:
        CHECKS[row.check](row, out)
    if row.stderr is not None:
        assert err.startswith(row.stderr), err
    if row.cache_sha256 is not None:
        got = _sha256(Path(row.option("--cache", tmp)).read_bytes())
        assert got == row.cache_sha256, f"--cache sha256 {got}"


@contextlib.contextmanager
def _environ(env):
    old = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for k, v in old.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def in_process(deadline):
    """The transport that calls ``cgf.cli.main`` in this process, under
    ``deadline(seconds, call)``, which returns what ``call`` returns or
    raises."""
    from cgf.cli import main

    def transport(argv, env, timeout):
        out, err = io.StringIO(), io.StringIO()

        def call():
            with _environ(env), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    return main(argv)
                except SystemExit as exc:  # --help
                    return exc.code

        return deadline(timeout, call), out.getvalue(), err.getvalue()

    return transport


def entry_point(argv, env, timeout):
    """The transport that runs the installed ``cgf`` in a subprocess."""
    done = subprocess.run(["cgf", *argv], capture_output=True,
                          timeout=timeout, env={**os.environ, **env})
    return (done.returncode, done.stdout.decode("utf-8"),
            done.stderr.decode("utf-8"))


def main() -> int:
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                run(row, entry_point, Path(tmp))
            except Exception as exc:  # the row fails; the others still run
                failed += 1
                print(f"FAIL {row.name}: {type(exc).__name__}: {exc}",
                      flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
