"""Command-line front end: parse ring/matrix/word JSON, dispatch the library
operations, and emit witness JSON with the verification report embedded.

Exit codes: 0 on success, 2 on domain errors (structured JSON on stdout) or
failed harness checks, 1 on usage errors, malformed input among them.
Identical (command, input, seed) invocations print byte-identical JSON.

Each witness check is computed once.  A check its construction already made
(the construction raises instead of returning when it fails) is recorded as
``pass``; the verbs compute only the checks no construction makes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys

from .errors import CgfError, DescriptorMismatch
from .factor import (common_perp, roitman, transvection_factor, two_row_equiv,
                     whitehead_linear, whitehead_symplectic)
from .homotopy import Homotopy, homotopy_commute_linear, \
    homotopy_commute_orthogonal, homotopy_commute_symplectic
from .localglobal import patch, quillen_split
from .matrices import IsotropicFrame, Mat, RightInverseCert, right_inverse
from .oracle import (DEFAULT_BUDGET, OrbitTable, certify_equivalence,
                     enumerate_orbits)
from .orthoquot import (FactoredOrthogonal, classify_o2, commutator_harness,
                        vaserstein_quotient)
from .reduce import (_require_local, complete_orth, complete_sp,
                     complete_um_linear, reduce_row_linear,
                     reduce_row_symplectic)
from .rings import (IntegerRing, LocalizedIntegers, ModularRing, PolyExt,
                    PrimeField, RationalField, Ring, TruncatedPolyLocal,
                    ring_from_json)
from .words import GenWord, Witness, apply_word_right, word_limit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _decoding(what: str):
    """Turn a malformed input (bad JSON, a missing key, a bad integer, an
    unreadable file or an unwritable one, ...) into a usage error; domain
    errors pass through."""
    try:
        yield
    except (ArithmeticError, AttributeError, KeyError, IndexError, OSError,
            RecursionError, TypeError, ValueError) as exc:
        detail = (f"missing key {exc}" if isinstance(exc, KeyError)
                  else " ".join(str(exc).split()) or type(exc).__name__)
        raise _UsageError(f"malformed {what}: {detail}") from None


def _maybe_file(text: str) -> str:
    if text.startswith("@"):
        with _decoding(text), open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def parse_ring(text: str) -> Ring:
    """Shorthand (mod:4, prime:5, locint:5, polyloc:2:2, int, rat) or JSON."""
    with _decoding("--ring"):
        text = _maybe_file(text).strip()
        if text.startswith("{"):
            return ring_from_json(json.loads(text))
        parts = text.split(":")
        kind = parts[0]
        if kind == "int":
            return IntegerRing()
        if kind == "rat":
            return RationalField()
        if kind == "mod":
            return ModularRing(int(parts[1]))
        if kind == "prime":
            return PrimeField(int(parts[1]))
        if kind == "locint":
            return LocalizedIntegers(int(parts[1]))
        if kind == "polyloc":
            return TruncatedPolyLocal(int(parts[1]), int(parts[2]))
        if kind == "poly":
            return PolyExt(parse_ring(":".join(parts[1:])), "T")
    raise _UsageError(f"unknown ring shorthand {text!r}")


def _parse_matrix(text: str, ring: Ring | None) -> Mat:
    with _decoding("matrix"):
        obj = json.loads(_maybe_file(text))
        if not isinstance(obj, dict):
            if ring is None:
                raise _UsageError("a bare entry grid needs --ring")
            return Mat(ring, [[ring.value_from_json(e) for e in row]
                              for row in obj])
        mat = Mat.from_json(obj)
    if ring is not None and mat.ring != ring:
        raise DescriptorMismatch("the matrix's ring is not --ring",
                                 ring=ring, matrix_ring=mat.ring)
    return mat


def _parse_row(text: str, ring: Ring) -> Mat:
    with _decoding("row"):
        obj = json.loads(_maybe_file(text))
        return Mat(ring, [[ring.value_from_json(e) for e in obj]])


def _parse_word(text: str) -> GenWord:
    with _decoding("word"):
        return GenWord.from_json(json.loads(_maybe_file(text)))


def _emit(obj) -> int:
    payload = obj.to_json() if hasattr(obj, "to_json") else obj
    sys.stdout.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return 0


def _word_witness(claim: str, inputs: dict, word: GenWord,
                  checks) -> Witness:
    return Witness.certify(claim, inputs, {"word": word}, checks)


# ---------------------------------------------------------------------------
# verb implementations

def _cmd_reduce_row(args) -> int:
    ring = parse_ring(args.ring)
    row = _parse_row(args.row, ring)
    if args.flavor == "linear":
        word = reduce_row_linear(row)
    else:
        word = reduce_row_symplectic(row)
    e_1 = (ring.one().payload,) + (ring.zero().payload,) * (row.cols - 1)
    return _emit(_word_witness(
        f"reduce_row_{args.flavor}", {"row": row}, word,
        [("row . eval(word) == e_1",
          apply_word_right(row, word)._grid == (e_1,))]))


def _cmd_complete(args) -> int:
    ring = parse_ring(args.ring) if args.ring else None
    mat = _parse_matrix(args.matrix, ring)
    if args.flavor == "linear":
        word = complete_um_linear(mat)
        group_check = ("eval(word) has determinant 1",
                       word.eval().det() == mat.ring.one())
    elif args.flavor == "sp":
        word = complete_sp(IsotropicFrame(mat, "sp"))
        group_check = ("eval(word) is symplectic", True)
    else:
        word = complete_orth(IsotropicFrame(mat, "orth"),
                             permissive=args.permissive)
        group_check = ("eval(word) is orthogonal", True)
    return _emit(_word_witness(f"complete_{args.flavor}", {"matrix": mat},
                               word,
                               [("leading rows equal the input", True),
                                group_check]))


def _cmd_whitehead(args) -> int:
    ring = parse_ring(args.ring) if args.ring else None
    mat = _parse_matrix(args.matrix, ring)
    if args.flavor == "linear":
        word = whitehead_linear(mat)
    else:
        word = whitehead_symplectic(mat)
    return _emit(_word_witness(f"whitehead_{args.flavor}", {"matrix": mat},
                               word, [("eval(word) == d ⊥ d^{-1}", True)]))


def _cmd_transvection(args) -> int:
    ring = parse_ring(args.ring)
    col = _parse_row(args.col, ring).transpose()
    row = _parse_row(args.row, ring)
    word = transvection_factor(col, row)
    return _emit(_word_witness("transvection_factor",
                               {"col": col, "row": row}, word,
                               [("eval(word) == I + c.r", True)]))


def _cmd_common_perp(args) -> int:
    ring = parse_ring(args.ring)
    v1 = _parse_row(args.v1, ring)
    v2 = _parse_row(args.v2, ring)
    w = _parse_row(args.w, ring)
    word = common_perp(v1, v2, w)
    return _emit(_word_witness("common_perp", {"v1": v1, "v2": v2, "w": w},
                               word, [("v1 . eval(word) == v2", True)]))


def _cmd_two_row(args) -> int:
    ring = parse_ring(args.ring) if args.ring else None
    mat = _parse_matrix(args.matrix, ring)
    beta = _parse_matrix(args.beta, mat.ring) if args.beta else None
    # local-only: refuse before the solver can choose the error code
    _require_local(mat.ring, "two-row equivalence")
    cert = RightInverseCert(mat, beta) if args.beta else right_inverse(mat)
    word = two_row_equiv(mat, cert)
    return _emit(_word_witness("two_row_equiv", {"matrix": mat}, word,
                               [("row1 . eval(word) == row2", True)]))


def _cmd_roitman(args) -> int:
    ring = parse_ring(args.ring)
    x = _parse_row(args.row, ring)
    y = _parse_row(args.target, ring)
    word = roitman(x, args.k, y)
    return _emit(_word_witness("roitman", {"x": x, "k": args.k, "y": y}, word,
                               [("x . eval(word) == (x_<k, y)", True)]))


def _cmd_homotopy_commute(args) -> int:
    with _decoding("--input"):
        spec = json.loads(_maybe_file(args.input))
        ring = ring_from_json(spec["ring"])
        delta = (GenWord.from_json(spec["delta_word"])
                 if "delta_word" in spec
                 else Mat.from_json(spec["delta_matrix"]))
    flavor = args.flavor
    name = {"linear": "linear", "sp": "symplectic",
            "orth": "orthogonal"}[flavor]
    if isinstance(delta, GenWord):
        hom = Homotopy.from_word(name, delta)
    else:
        hom = Homotopy.from_matrix(name, delta)
    with _decoding("--input"):
        v = Mat(ring, [[ring.value_from_json(e) for e in row]
                       for row in spec["v"]])
    if flavor == "linear":
        res = homotopy_commute_linear(hom, v)
    elif flavor == "sp":
        res = homotopy_commute_symplectic(hom, IsotropicFrame(v, "sp"))
    else:
        res = homotopy_commute_orthogonal(hom, IsotropicFrame(v, "orth"))
    return _emit(res.witness)


def _cmd_split(args) -> int:
    theta = _parse_word(args.theta)
    res = quillen_split(theta, args.s1, args.s2, n_max=args.n_max,
                        exponent=args.exponent)
    return _emit(res.witness)


def _cmd_patch(args) -> int:
    s1m = _parse_matrix(args.sigma1, None)
    s2m = _parse_matrix(args.sigma2, None)
    glued = patch(s1m, s2m, args.s1, args.s2)
    return _emit(Witness.certify("patch", {"sigma1": s1m, "sigma2": s2m},
                                 {"glued": glued},
                                 [("localization equalities", True)]))


def _cmd_classify_o2(args) -> int:
    ring = parse_ring(args.ring) if args.ring else None
    mat = _parse_matrix(args.matrix, ring)
    cls = classify_o2(mat)
    return _emit(Witness.certify("classify_o2", {"matrix": mat},
                                 {"shape": cls.shape, "u": cls.u},
                                 [("reconstruction equals the input", True)]))


def _cmd_ortho_quotient(args) -> int:
    ring = parse_ring(args.ring) if args.ring else None
    mat = _parse_matrix(args.matrix, ring)
    delta, word = vaserstein_quotient(mat)
    return _emit(Witness.certify(
        "vaserstein_quotient", {"matrix": mat},
        {"delta": delta, "word": word},
        [("matrix == (I ⊥ delta) . eval(word)", True)]))


def _cmd_ortho_commutator(args) -> int:
    a = FactoredOrthogonal(_parse_matrix(args.a_delta, None),
                           _parse_word(args.a_word))
    b = FactoredOrthogonal(_parse_matrix(args.b_delta, None),
                           _parse_word(args.b_word))
    _, witness = commutator_harness(a, b)
    return _emit(witness)


def _cmd_orbits(args) -> int:
    ring = parse_ring(args.ring)
    table = enumerate_orbits(ring, args.kind, args.family, args.size,
                             frame_rows=args.frame_rows, budget=args.budget)
    if args.cache:
        text = json.dumps(table.to_json(), sort_keys=True,
                          separators=(",", ":"))
        with _decoding("--cache"), open(args.cache, "w",
                                        encoding="utf-8") as fh:
            fh.write(text)
    sizes = table.orbit_sizes()
    return _emit({"orbits": table.orbit_count(), "sizes": sorted(sizes),
                  "objects": sum(sizes)})


def _cmd_certify(args) -> int:
    with _decoding("--table"), open(args.table, "r", encoding="utf-8") as fh:
        table = OrbitTable.from_json(json.load(fh))
    ring = table.ring
    with _decoding("row"):
        v1, v2 = (tuple(ring.value_from_json(e).payload
                        for e in json.loads(_maybe_file(v)))
                  for v in (args.v1, args.v2))
    word = certify_equivalence(v1, v2, table)
    if word is None:
        return _emit({"equivalent": False})
    return _emit({"equivalent": True, "word": word.to_json()})


# ---------------------------------------------------------------------------
# harness suites

def _tally(checks, name, budget, trial):
    """Run ``trial`` ``budget`` times and append the check it makes: its
    failures are the runs that returned False.  Returns the check."""
    check = {"name": name, "instances": budget,
             "failures": sum(not trial() for _ in range(budget))}
    checks.append(check)
    return check


def _harness_lemmas(rng, budget, corrupt=False):
    from .sampling import random_frame, random_unimodular_rows
    from .words import FAMILY_LIN
    checks = []
    ring = ModularRing(9)

    def row_reduction():
        v, _ = random_unimodular_rows(rng, ring, 1, 3, 5)
        expected = (Mat.zeros(ring, 1, 3) if corrupt
                    else Mat.identity(ring, 3).submatrix(0, 1, 0, 3))
        return apply_word_right(v, reduce_row_linear(v)) == expected

    def linear_completion():
        v, _ = random_unimodular_rows(rng, ring, 2, 4, 5)
        return complete_um_linear(v).eval()._grid[:2] == v._grid

    def sp_completion():
        fr, _ = random_frame(rng, ring, "sp", 1, 2, 5)
        return complete_sp(fr).eval()._grid[:2] == fr.mat._grid

    Z4 = ModularRing(4)
    table = enumerate_orbits(Z4, "row", FAMILY_LIN, 3) if budget else None

    def two_row():
        m, _ = random_unimodular_rows(rng, Z4, 2, 3, 5)
        eps = two_row_equiv(m, right_inverse(m))
        key1, key2 = m._grid
        row1 = m.submatrix(0, 1, 0, m.cols)
        return (apply_word_right(row1, eps)._grid == (key2,)
                and certify_equivalence(key1, key2, table) is not None)

    _tally(checks, "row reduction reaches e_1", budget, row_reduction)
    _tally(checks, "linear completion round trip", budget, linear_completion)
    _tally(checks, "symplectic completion round trip", budget, sp_completion)
    _tally(checks, "two-row equivalence vs oracle", budget, two_row)
    return checks


def _harness_homotopy(rng, budget, corrupt=False):
    from .homotopy import commutator_witness, vaserstein_transport
    from .sampling import random_frame, random_unimodular_rows, random_word
    from .words import FAMILY_LIN, FAMILY_SP
    checks = []
    ring = ModularRing(9)
    rt = PolyExt(ring, "T")

    def linear_commute():
        base = random_word(rng, ring, FAMILY_LIN, 2, 2)
        hom = Homotopy.from_word("linear", base.times_variable(rt))
        v, _ = random_unimodular_rows(rng, ring, 2, 3, 4)
        ok = homotopy_commute_linear(hom, v).witness.all_passed()
        return ok != corrupt

    def commutator():
        base = random_word(rng, ring, FAMILY_LIN, 3, 2)
        hom = Homotopy.from_word("linear", base.times_variable(rt))
        b = random_word(rng, ring, FAMILY_LIN, 3, 4).eval()
        eps = commutator_witness(hom, b)
        alpha = hom.at(1)
        return (alpha @ b) == (b @ alpha @ eps.eval())

    def sp_transport():
        d = random_word(rng, ring, FAMILY_SP, 2, 2).eval()
        fr, _ = random_frame(rng, ring, "sp", 1, 2, 4)
        return vaserstein_transport(d, fr, "symplectic").witness.all_passed()

    _tally(checks, "linear homotopy commutation", budget, linear_commute)
    _tally(checks, "commutator witnesses", budget, commutator)
    _tally(checks, "symplectic transport", budget, sp_transport)
    return checks


def _harness_localglobal(rng, budget, corrupt=False):
    from fractions import Fraction
    from .rings import FractionRing
    from .words import FAMILY_LIN, word_from_pairs
    checks = []
    rt = PolyExt(FractionRing(IntegerRing(), 6), "T")

    def documented():
        theta = word_from_pairs(rt, 2, FAMILY_LIN,
                                [(1, 2, rt.coerce([0, Fraction(1, 6)]))])
        res = quillen_split(theta, 3, -2, exponent=2)
        ok = res.witness.all_passed() and res.b == rt.base.coerce(4)
        return ok != corrupt

    splits = []

    def seeded_split():
        num = rng.randint(-5, 5)
        k = rng.randrange(3)
        coeff = Fraction(num, 6 ** k) if num else Fraction(0)
        theta = word_from_pairs(rt, 3, FAMILY_LIN,
                                [(1, 2, rt.coerce([0, coeff])),
                                 (2, 3, rt.coerce([0, Fraction(rng.randint(-3, 3))]))])
        try:
            res = quillen_split(theta, 3, -2)
        except CgfError:
            return True  # exhaustion is a reported outcome, not a failure
        splits.append(res)
        return res.witness.all_passed()

    if budget:
        _tally(checks, "documented split instance (b = 4)", 1, documented)
    check = _tally(checks, "seeded splits verify or report exhaustion",
                   budget, seeded_split)
    check["splits"] = len(splits)
    return checks


def _harness_ortho(rng, budget, corrupt=False):
    from .sampling import random_word
    from .words import FAMILY_ORTH
    checks = []
    Z5 = PrimeField(5)

    def trivial_corner():
        w = random_word(rng, Z5, FAMILY_ORTH, 6, 5)
        delta, _ = vaserstein_quotient(w.eval())
        return delta.is_identity() != corrupt

    def commutator():
        a = FactoredOrthogonal.from_word(random_word(rng, Z5, FAMILY_ORTH,
                                                     6, 4))
        b = FactoredOrthogonal.from_word(random_word(rng, Z5, FAMILY_ORTH,
                                                     6, 4))
        return commutator_harness(a, b)[1].all_passed()

    _tally(checks, "elementary words reduce to the trivial corner", budget,
           trivial_corner)
    _tally(checks, "commutator harness", budget, commutator)
    return checks


_SUITES = {"lemmas": _harness_lemmas, "homotopy": _harness_homotopy,
           "localglobal": _harness_localglobal, "ortho": _harness_ortho}


def _cmd_harness(args) -> int:
    if args.budget < 0:
        raise _UsageError(f"--budget must be >= 0, got {args.budget}")
    rng = random.Random(args.seed)
    checks = _SUITES[args.suite](rng, args.budget, corrupt=args.corrupt)
    failures = sum(c["failures"] for c in checks)
    report = {"suite": args.suite, "seed": args.seed, "budget": args.budget,
              "checks": checks, "failures": failures,
              "ok": failures == 0}
    _emit(report)
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------

# The parser is built on the first ``main`` call (not at import) and reused
# by every later call in the same process; a ``cgf`` process calls ``main``
# once, so only in-process callers that call it repeatedly gain.  Every
# default the tree holds is immutable and a usage error raises instead of
# exiting (``--help`` still exits), so a parse leaves no state behind.
# An argv that starts with a verb is parsed by that verb's parser alone,
# found in ``verbs``: the whole tree would hand it the same rest of the
# argv, and any parser that fails raises the same usage error.  Every
# other argv (empty, a leading option, an unknown word) takes the tree.
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="cgf", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce-row")
    sp.add_argument("--flavor", default="linear", choices=("linear", "sp"))
    sp.add_argument("--ring", required=True)
    sp.add_argument("--row", required=True)
    sp.set_defaults(fn=_cmd_reduce_row)

    sp = sub.add_parser("complete")
    sp.add_argument("--flavor", default="linear",
                    choices=("linear", "sp", "orth"))
    sp.add_argument("--ring")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--permissive", action="store_true")
    sp.set_defaults(fn=_cmd_complete)

    sp = sub.add_parser("whitehead")
    sp.add_argument("--flavor", default="linear", choices=("linear", "sp"))
    sp.add_argument("--ring")
    sp.add_argument("--matrix", required=True)
    sp.set_defaults(fn=_cmd_whitehead)

    sp = sub.add_parser("transvection")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--col", required=True)
    sp.add_argument("--row", required=True)
    sp.set_defaults(fn=_cmd_transvection)

    sp = sub.add_parser("common-perp")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--v1", required=True)
    sp.add_argument("--v2", required=True)
    sp.add_argument("--w", required=True)
    sp.set_defaults(fn=_cmd_common_perp)

    sp = sub.add_parser("two-row")
    sp.add_argument("--ring")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--beta")
    sp.set_defaults(fn=_cmd_two_row)

    sp = sub.add_parser("roitman")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--row", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--target", required=True)
    sp.set_defaults(fn=_cmd_roitman)

    sp = sub.add_parser("homotopy-commute")
    sp.add_argument("--flavor", required=True,
                    choices=("linear", "sp", "orth"))
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=_cmd_homotopy_commute)

    sp = sub.add_parser("split")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=16)
    sp.add_argument("--exponent", type=int)
    sp.set_defaults(fn=_cmd_split)

    sp = sub.add_parser("patch")
    sp.add_argument("--sigma1", required=True)
    sp.add_argument("--sigma2", required=True)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int, required=True)
    sp.set_defaults(fn=_cmd_patch)

    sp = sub.add_parser("classify-o2")
    sp.add_argument("--ring")
    sp.add_argument("--matrix", required=True)
    sp.set_defaults(fn=_cmd_classify_o2)

    sp = sub.add_parser("ortho-quotient")
    sp.add_argument("--ring")
    sp.add_argument("--matrix", required=True)
    sp.set_defaults(fn=_cmd_ortho_quotient)

    sp = sub.add_parser("ortho-commutator")
    sp.add_argument("--a-delta", required=True)
    sp.add_argument("--a-word", required=True)
    sp.add_argument("--b-delta", required=True)
    sp.add_argument("--b-word", required=True)
    sp.set_defaults(fn=_cmd_ortho_commutator)

    sp = sub.add_parser("orbits")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--kind", default="row", choices=("row", "frame"))
    sp.add_argument("--family", default="lin", choices=("lin", "sp", "orth"))
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--frame-rows", type=int, default=0)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--cache")
    sp.set_defaults(fn=_cmd_orbits)

    sp = sub.add_parser("certify")
    sp.add_argument("--table", required=True)
    sp.add_argument("--v1", required=True)
    sp.add_argument("--v2", required=True)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("harness")
    sp.add_argument("suite", choices=sorted(_SUITES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=10)
    sp.add_argument("--corrupt", action="store_true",
                    help="negative control: corrupt one expectation")
    sp.set_defaults(fn=_cmd_harness)
    p.verbs = sub.choices  # verb name -> its parser
    return p


def _parse(argv: list):
    """The namespace the whole tree gives ``argv``, ``command`` among it."""
    parser = _build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is None:
        return parser.parse_args(argv)
    args = verb.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    try:
        with _decoding("CGF_WORD_LIMIT"):
            word_limit()
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except CgfError as exc:
        sys.stdout.write(json.dumps(exc.to_json(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
