"""The four seeded workloads: input streams, ops and independent checks.

One op is one certified claim: the library construction plus the checks the
matching `cgf` verb embeds in its witness.  Each op comes from a `Case`:

* `run()` is the timed part;
* `check(result)` runs outside the timed region and returns
  `(status, witness_bytes, gens_out)`, where status is "ok", "fail" (the op
  broke its contract, e.g. an exception escaped or the exit code was wrong)
  or "wrong" (the op returned a result that the independent check rejects).

Inputs come from the workload seed through the benchmark's own
`random.Random` and are built with public constructors only
(`word_from_pairs`, `Mat`, the ring classes).  Elementary input matrices are
evaluated by `eval_rows` below, not by the library, so a change to the
library's word evaluation cannot shift the inputs.  `cgf.sampling` and
`Ring.random` are never used, `workers=` is never passed.

The library is reached through attribute lookups on the `cgf` package at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction


class ExpectedError:
    """A documented `CgfError` outcome the op expects; it counts as success."""

    __slots__ = ("code",)

    def __init__(self, code):
        self.code = code


class Case:
    __slots__ = ("label", "desc", "run", "check", "cycle_end")

    def __init__(self, label, desc, run, check):
        self.label = label
        self.desc = desc
        self.run = run
        self.check = check
        self.cycle_end = False


def dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# independent evaluation

def pair(k: int) -> int:
    return k + 1 if k % 2 == 1 else k - 1


def eval_rows(word, rows=None):
    """rows . eval(word) by plain column updates; rows default to I."""
    ring = word.ring
    if rows is None:
        one, zero = ring.one(), ring.zero()
        rows = [[one if i == j else zero for j in range(word.size)]
                for i in range(word.size)]
    else:
        rows = [list(r) for r in rows]
    for g in word.gens:
        for t, s, c in g.updates():
            for r in rows:
                r[t - 1] = r[t - 1] + c * r[s - 1]
    return rows


def same(mat, rows) -> bool:
    return [list(r) for r in mat.entries] == [list(r) for r in rows]


def matmul_rows(a, b):
    zero = a[0][0] - a[0][0]
    return [[sum((x * y for x, y in zip(row, col)), zero)
             for col in zip(*b)] for row in a]


def perp_rows(a, b):
    """a ⊥ b for square row lists."""
    zero = a[0][0] - a[0][0]
    n, m = len(a), len(b)
    return ([list(r) + [zero] * m for r in a] +
            [[zero] * n + list(r) for r in b])


def witness_bytes(w) -> bytes:
    return dumps(w.to_json())


def word_check(word, ok: bool, witness) -> tuple:
    return ("ok" if ok else "wrong"), witness_bytes(witness), len(word)


# ---------------------------------------------------------------------------
# seeded input helpers

def rand_triples(rng, family, size, length, modulus, poly=False):
    out = []
    while len(out) < length:
        i, j = rng.randrange(1, size + 1), rng.randrange(1, size + 1)
        if i == j or (family == "orth" and i == pair(j)):
            continue
        k = rng.randrange(1, modulus)
        out.append((i, j, [0, k] if poly else k))
    return out


def inverse_triples(triples):
    return [(i, j, [-c for c in k] if isinstance(k, list) else -k)
            for i, j, k in reversed(triples)]


class Inputs:
    """Elementary inputs over one base ring, built outside the library's
    evaluation path."""

    def __init__(self, cgf, rng):
        self.cgf = cgf
        self.rng = rng

    def word(self, ring, family, size, triples):
        return self.cgf.word_from_pairs(ring, size, family, triples)

    def elementary(self, ring, family, size, length, modulus):
        """(triples, rows of eval, rows of eval^-1) of a random word."""
        triples = rand_triples(self.rng, family, size, length, modulus)
        rows = eval_rows(self.word(ring, family, size, triples))
        inv = eval_rows(self.word(ring, family, size,
                                  inverse_triples(triples)))
        return triples, rows, inv


def grid(rows):
    return [[v.to_json() for v in r] for r in rows]


# ---------------------------------------------------------------------------
# workload base

class Workload:
    name = "?"
    why = ""
    trace_ops = 0  # ops in the traced pass

    def __init__(self, cgf, seed, root):
        self.cgf = cgf
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = Inputs(cgf, self.rng)

    def cycle(self):
        """The case builders of one cycle, in seeded order; empty when no
        fresh cycle can be drawn."""
        raise NotImplementedError

    def op_stats(self, result, exc) -> dict:
        """Per-op counters for the traced report, from an op's result."""
        return {}

    def stream(self):
        """Cases, one cycle at a time.  An input drawn twice is drawn again,
        so no input repeats within a run; the stream ends when a builder runs
        out of fresh inputs."""
        seen = set()
        while True:
            builders = self.cycle()
            if not builders:
                return
            for idx, build in enumerate(builders):
                for _ in range(100):
                    cases = build()
                    if cases is None:
                        return
                    cases = cases if isinstance(cases, list) else [cases]
                    key = dumps(cases[0].desc)
                    if key not in seen:
                        break
                else:
                    return
                seen.add(key)
                cases[-1].cycle_end = idx == len(builders) - 1
                yield from cases


# ---------------------------------------------------------------------------
# homotopy: the criterion-5 mix

class Homotopy(Workload):
    name = "homotopy"
    why = ("the paper's headline construction; R[T] arithmetic, matmul and "
           "membership do the work")
    trace_ops = 28
    SHAPES = (("linear", "lin", 2, 3), ("linear", "lin", 2, 4),
              ("linear", "lin", 3, 3), ("symplectic", "sp", 2, 3),
              ("symplectic", "sp", 3, 3), ("orthogonal", "orth", 2, 4),
              ("orthogonal", "orth", 2, 5))

    def __init__(self, cgf, seed, root):
        super().__init__(cgf, seed, root)
        self.rings = [(cgf.ModularRing(9), 9), (cgf.PrimeField(5), 5)]
        self.poly = [cgf.PolyExt(r, "T") for r, _ in self.rings]

    def cycle(self):
        builders = [(lambda s=s, r=r: self.case(s, r))
                    for s in self.SHAPES for r in range(2)]
        self.rng.shuffle(builders)
        return builders

    def case(self, shape, ridx):
        cgf, rng = self.cgf, self.rng
        flavor, family, n, m = shape
        ring, modulus = self.rings[ridx]
        rt = self.poly[ridx]
        dsize = n if family == "lin" else 2 * n
        vsize = m if family == "lin" else 2 * m
        d_triples = rand_triples(rng, family, dsize, 2, modulus, poly=True)
        word_t = self.inputs.word(rt, family, dsize, d_triples)
        v_triples, v_rows, _ = self.inputs.elementary(ring, family, vsize, 4,
                                                      modulus)
        v = cgf.Mat(ring, v_rows[:dsize])
        square = dsize == vsize and family != "orth"
        commute = {"linear": "homotopy_commute_linear",
                   "symplectic": "homotopy_commute_symplectic",
                   "orthogonal": "homotopy_commute_orthogonal"}[flavor]

        def run():
            hom = cgf.Homotopy.from_word(flavor, word_t)
            arg = v if family == "lin" else cgf.IsotropicFrame(v, family)
            res = getattr(cgf, commute)(hom, arg)
            eps = cgf.commutator_witness(hom, v) if square else None
            return hom, res, eps

        def check(out):
            hom, res, eps = out
            ok = res.witness.all_passed() and res.mode == "word"
            eps_rows = eval_rows(res.epsilon_word)
            ok = ok and same(res.epsilon_mat, eps_rows)
            d_rows = eval_rows(word_t)
            one = rt.one()
            pad = [[one if i == j else rt.zero() for j in range(vsize - dsize)]
                   for i in range(vsize - dsize)]
            target = perp_rows(d_rows, pad) if pad else d_rows
            ok = ok and matmul_rows(
                [list(r) for r in res.sigma_t.entries], eps_rows) == target
            blob = witness_bytes(res.witness)
            gens = len(res.epsilon_word)
            if eps is not None:
                alpha = hom.at(1)
                a_rows = [list(r) for r in alpha.entries]
                b_rows = [list(r) for r in v.entries]
                ok = ok and matmul_rows(a_rows, b_rows) == matmul_rows(
                    matmul_rows(b_rows, a_rows), eval_rows(eps))
                blob += dumps(eps.to_json())
                gens += len(eps)
            return ("ok" if ok else "wrong"), blob, gens

        desc = [flavor, n, m, ring.describe(), d_triples, v_triples]
        return Case(f"{flavor}-{n}x{m}-{ring.describe()}", desc, run, check)


# ---------------------------------------------------------------------------
# factor: base-ring claims, with oracle tables read for row equivalences

class Factor(Workload):
    name = "factor"
    why = ("det, inverse, membership, reduce and factor do the work; the "
           "size mix puts large-n det/inverse in the tail")
    trace_ops = 106

    def __init__(self, cgf, seed, root):
        super().__init__(cgf, seed, root)
        self.z9, self.f5 = cgf.ModularRing(9), cgf.PrimeField(5)
        self.z4 = cgf.ModularRing(4)
        self.tables = {m: cgf.enumerate_orbits(self.z4, "row", "lin", m)
                       for m in (3, 4)}
        self.split_ring = cgf.PolyExt(
            cgf.FractionRing(cgf.IntegerRing(), 6), "T")

    def cycle(self):
        rings = ((self.z9, 9), (self.f5, 5))
        b = []
        for r in rings:
            for n, m in ((1, 3), (2, 3), (2, 4), (3, 3)):
                b.append(lambda r=r, n=n, m=m: self.complete("linear", r, n, m))
            for n, m in ((1, 2), (2, 3), (2, 2), (3, 3)):
                b.append(lambda r=r, n=n, m=m: self.complete("sp", r, n, m))
            for n, m in ((1, 3), (2, 4)):
                b.append(lambda r=r, n=n, m=m: self.complete("orth", r, n, m))
            for n in (2, 3, 4, 5):
                b.append(lambda r=r, n=n: self.whitehead_linear(r, n))
            for size in (2, 4):
                b.append(lambda r=r, s=size: self.whitehead_sp(r, s))
            for m in (3, 4):
                b.append(lambda r=r, m=m: self.transvection(r, m))
            b.append(lambda r=r: self.transport_linear(r))
        # large n is rarer, and over Z/9 the cofactor path makes it slow
        b.append(lambda: self.whitehead_linear(rings[0], 6))
        b.append(lambda: self.whitehead_linear(rings[1], 7))
        b.append(lambda: self.whitehead_linear(rings[0], 8))
        b.append(lambda: self.transport_sp(rings[0], 1))
        b.append(lambda: self.transport_sp(rings[1], 2))
        for size in (6, 8):
            b.append(lambda s=size: self.quotient(s))
        b.append(self.commutator)
        b.append(self.split)
        for m in (3, 4):
            b.append(lambda m=m: self.two_row(m))
            b.append(lambda m=m: self.common_perp(m))
            b.append(lambda m=m: self.roitman(m))
        self.rng.shuffle(b)
        return b

    # -- completions -------------------------------------------------------
    def complete(self, flavor, r, n, m):
        cgf = self.cgf
        ring, modulus = r
        family = {"linear": "lin", "sp": "sp", "orth": "orth"}[flavor]
        rows_n = n if family == "lin" else 2 * n
        size = m if family == "lin" else 2 * m
        triples, rows, _ = self.inputs.elementary(ring, family, size, 6,
                                                  modulus)
        mat = cgf.Mat(ring, rows[:rows_n])

        def run():
            if family == "lin":
                word = cgf.complete_um_linear(mat)
            elif family == "sp":
                word = cgf.complete_sp(cgf.IsotropicFrame(mat, "sp"))
            else:
                word = cgf.complete_orth(cgf.IsotropicFrame(mat, "orth"))
            got = word.eval()
            if family == "lin":
                group = ("eval(word) has determinant 1",
                         got.det() == ring.one())
            else:
                group = (f"eval(word) is {flavor}",
                         cgf.membership(got, "Sp" if family == "sp" else "O"))
            rows_match = cgf.Mat(ring, got.entries[:rows_n]) == mat
            return word, cgf.Witness.certify(
                f"complete_{flavor}", {"matrix": mat}, {"word": word},
                [("leading rows equal the input", rows_match), group])

        def check(out):
            word, witness = out
            return word_check(word, eval_rows(word)[:rows_n] ==
                              [list(x) for x in mat.entries], witness)

        return Case(f"complete-{flavor}-{n}x{m}-{ring.describe()}",
                    [flavor, n, m, ring.describe(), triples], run, check)

    # -- Whitehead words -----------------------------------------------------
    def whitehead_linear(self, r, n):
        cgf = self.cgf
        ring, modulus = r
        triples, rows, inv = self.inputs.elementary(ring, "lin", n,
                                                    max(5, 2 * n), modulus)
        d = cgf.Mat(ring, rows)

        def run():
            word = cgf.whitehead_linear(d)
            target = d.block_perp(d.inverse())
            return word, cgf.Witness.certify(
                "whitehead_linear", {"matrix": d}, {"word": word},
                [("eval(word) == d ⊥ d^{-1}", word.eval() == target)])

        def check(out):
            word, witness = out
            return word_check(word, eval_rows(word) == perp_rows(rows, inv),
                              witness)

        return Case(f"whitehead-linear-{n}-{ring.describe()}",
                    ["whitehead_linear", n, ring.describe(), triples], run,
                    check)

    def whitehead_sp(self, r, size):
        cgf = self.cgf
        ring, modulus = r
        triples, rows, inv = self.inputs.elementary(ring, "sp", size, 5,
                                                    modulus)
        d = cgf.Mat(ring, rows)

        def run():
            word = cgf.whitehead_symplectic(d)
            target = d.block_perp(cgf.sp_inverse(d))
            return word, cgf.Witness.certify(
                "whitehead_sp", {"matrix": d}, {"word": word},
                [("eval(word) == d ⊥ d^{-1}", word.eval() == target)])

        def check(out):
            word, witness = out
            return word_check(word, eval_rows(word) == perp_rows(rows, inv),
                              witness)

        return Case(f"whitehead-sp-{size}-{ring.describe()}",
                    ["whitehead_sp", size, ring.describe(), triples], run,
                    check)

    # -- transvections and transport ------------------------------------------
    def transvection(self, r, m):
        cgf = self.cgf
        ring, modulus = r
        triples, rows, inv = self.inputs.elementary(ring, "lin", m, 5, modulus)
        # column 1 of E is unimodular; rows 2..m of E^-1 are perpendicular
        coeffs = [self.rng.randrange(modulus) for _ in range(m - 1)]
        zero = ring.zero()
        r_row = [sum((ring.coerce(a) * inv[i + 1][j]
                      for i, a in enumerate(coeffs)), zero) for j in range(m)]
        col = cgf.Mat(ring, [[rows[i][0]] for i in range(m)])
        row = cgf.Mat(ring, [r_row])
        expected = [[(ring.one() if i == j else zero) + rows[i][0] * r_row[j]
                     for j in range(m)] for i in range(m)]

        def run():
            word = cgf.transvection_factor(col, row)
            target = cgf.identity(ring, m) + col @ row
            return word, cgf.Witness.certify(
                "transvection_factor", {"col": col, "row": row},
                {"word": word},
                [("eval(word) == I + c.r", word.eval() == target)])

        def check(out):
            word, witness = out
            return word_check(word, eval_rows(word) == expected, witness)

        return Case(f"transvection-{m}-{ring.describe()}",
                    ["transvection", m, ring.describe(), triples, coeffs],
                    run, check)

    def transport_linear(self, r):
        cgf = self.cgf
        ring, modulus = r
        d_tr, d_rows, d_inv = self.inputs.elementary(ring, "lin", 2, 4,
                                                     modulus)
        v_tr, v_rows, _ = self.inputs.elementary(ring, "lin", 3, 4, modulus)
        d = cgf.Mat(ring, d_rows)
        v = cgf.Mat(ring, v_rows[:2])
        return self._transport(ring, d, d_rows, d_inv, v, "linear",
                               ["transport_linear", ring.describe(), d_tr,
                                v_tr])

    def transport_sp(self, r, n):
        cgf = self.cgf
        ring, modulus = r
        d_tr, d_rows, d_inv = self.inputs.elementary(ring, "sp", 2 * n, 4,
                                                     modulus)
        v_tr, v_rows, _ = self.inputs.elementary(ring, "sp", 2 * n + 2, 4,
                                                 modulus)
        d = cgf.Mat(ring, d_rows)
        v = cgf.Mat(ring, v_rows[:2 * n])
        return self._transport(ring, d, d_rows, d_inv, v, "symplectic",
                               ["transport_sp", n, ring.describe(), d_tr,
                                v_tr])

    def _transport(self, ring, d, d_rows, d_inv, v, flavor, desc):
        cgf = self.cgf

        def run():
            arg = v if flavor == "linear" else cgf.IsotropicFrame(v, "sp")
            return cgf.vaserstein_transport(d, arg, flavor)

        def check(res):
            sigma = [list(x) for x in res.sigma.entries]
            ok = (res.witness.all_passed()
                  and eval_rows(res.word) == perp_rows(sigma, d_inv)
                  and matmul_rows(d_rows, [list(x) for x in v.entries]) ==
                  matmul_rows([list(x) for x in v.entries], sigma))
            return ("ok" if ok else "wrong"), witness_bytes(res.witness), \
                len(res.word)

        return Case(f"transport-{flavor}-{d.rows}-{ring.describe()}", desc,
                    run, check)

    # -- orthogonal quotient and commutators -----------------------------------
    def quotient(self, size):
        cgf = self.cgf
        ring = self.f5
        triples, rows, _ = self.inputs.elementary(ring, "orth", size, 6, 5)
        a = cgf.Mat(ring, rows)

        def run():
            delta, word = cgf.vaserstein_quotient(a)
            corner = cgf.identity(ring, size - 2).block_perp(delta)
            return delta, word, cgf.Witness.certify(
                "vaserstein_quotient", {"matrix": a},
                {"delta": delta, "word": word},
                [("matrix == (I ⊥ delta) . eval(word)",
                  corner @ word.eval() == a)])

        def check(out):
            delta, word, witness = out
            corner = perp_rows([[ring.one() if i == j else ring.zero()
                                 for j in range(size - 2)]
                                for i in range(size - 2)],
                               [list(x) for x in delta.entries])
            ok = (delta.is_identity()
                  and matmul_rows(corner, eval_rows(word)) == rows)
            return word_check(word, ok, witness)

        return Case(f"quotient-{size}", ["quotient", size, triples], run,
                    check)

    def commutator(self):
        cgf, rng = self.cgf, self.rng
        ring = self.f5
        parts = []
        for _ in range(2):
            shape = rng.choice(("diag", "antidiag"))
            unit = rng.randrange(1, 5)
            triples = rand_triples(rng, "orth", 6, 4, 5)
            parts.append((shape, unit, triples))

        def factored(shape, unit, triples):
            delta = cgf.O2Class(shape, ring.coerce(unit)).reconstruct()
            return cgf.FactoredOrthogonal(
                delta, self.inputs.word(ring, "orth", 6, triples))

        def run():
            a, b = (factored(*p) for p in parts)
            return a, b, cgf.commutator_harness(a, b)

        def check(out):
            a, b, (word, witness) = out
            am, bm = a.matrix(), b.matrix()
            comm = am @ bm @ cgf.orth_inverse(am) @ cgf.orth_inverse(bm)
            ok = witness.all_passed() and same(
                cgf.block_perp(comm, cgf.identity(ring, 2)), eval_rows(word))
            return word_check(word, ok, witness)

        return Case("ortho-commutator", ["commutator", parts], run, check)

    # -- splitting over Z[1/6][T] ---------------------------------------------
    def split(self):
        cgf, rng = self.cgf, self.rng
        rt = self.split_ring
        spec = []
        for pos in ((1, 2), (2, 3), (1, 3)):
            num = rng.randint(-6, 6)
            den = 6 ** rng.randrange(3)
            deg = rng.randrange(1, 3)
            spec.append((pos[0], pos[1], num, den, deg))
        theta = self.inputs.word(rt, "lin", 3, [
            (i, j, [Fraction(0)] * deg + [Fraction(num, den)])
            for i, j, num, den, deg in spec])

        def run():
            try:
                return cgf.quillen_split(theta, 3, -2, n_max=16)
            except cgf.errors.SplitExponentExhausted as exc:
                return ExpectedError(exc.code)

        def check(res):
            if isinstance(res, ExpectedError):
                return "ok", res.code.encode(), 0
            ok = res.witness.all_passed() and matmul_rows(
                eval_rows(res.theta_a), eval_rows(res.theta_b)) == \
                eval_rows(theta)
            return ("ok" if ok else "wrong"), witness_bytes(res.witness), \
                len(res.theta_a) + len(res.theta_b)

        return Case("quillen-split", ["split", spec], run, check)

    # -- row equivalences confirmed by the oracle --------------------------------
    def _confirmed(self, word, start, target, witness):
        ok = eval_rows(word, [start])[0] == list(target)
        return word_check(word, ok, witness)

    def two_row(self, m):
        cgf = self.cgf
        ring = self.z4
        triples, rows, _ = self.inputs.elementary(ring, "lin", m, 5, 4)
        mat = cgf.Mat(ring, rows[:2])
        table = self.tables[m]

        def run():
            word = cgf.two_row_equiv(mat, cgf.right_inverse(mat))
            got = cgf.apply_word_to_row(list(mat.entries[0]), word)
            confirm = cgf.certify_equivalence(cgf.Mat(ring, [mat.entries[0]]),
                                              cgf.Mat(ring, [mat.entries[1]]),
                                              table)
            return word, cgf.Witness.certify(
                "two_row_equiv", {"matrix": mat}, {"word": word},
                [("row1 . eval(word) == row2", got == list(mat.entries[1])),
                 ("oracle confirms the orbit", confirm is not None)])

        def check(out):
            return self._confirmed(out[0], rows[0], rows[1], out[1])

        return Case(f"two-row-{m}", ["two_row", m, triples], run, check)

    def common_perp(self, m):
        cgf, rng = self.cgf, self.rng
        ring = self.z4
        triples, rows, inv = self.inputs.elementary(ring, "lin", m, 5, 4)
        # <row 1 of E, column 1 of E^-1> = 1, and rows 2..m of E are
        # perpendicular to that column
        coeffs = [rng.randrange(4) for _ in range(m - 1)]
        zero = ring.zero()
        v1 = rows[0]
        v2 = [v1[j] + sum((ring.coerce(a) * rows[i + 1][j]
                           for i, a in enumerate(coeffs)), zero)
              for j in range(m)]
        w = [inv[j][0] for j in range(m)]
        table = self.tables[m]
        m1, m2, mw = (cgf.Mat(ring, [x]) for x in (v1, v2, w))

        def run():
            word = cgf.common_perp(m1, m2, mw)
            got = cgf.apply_word_to_row(list(v1), word)
            confirm = cgf.certify_equivalence(m1, m2, table)
            return word, cgf.Witness.certify(
                "common_perp", {"v1": m1, "v2": m2, "w": mw}, {"word": word},
                [("v1 . eval(word) == v2", got == v2),
                 ("oracle confirms the orbit", confirm is not None)])

        def check(out):
            return self._confirmed(out[0], v1, v2, out[1])

        return Case(f"common-perp-{m}", ["common_perp", m, triples, coeffs],
                    run, check)

    def roitman(self, m):
        cgf, rng = self.cgf, self.rng
        ring = self.z4
        triples, rows, _ = self.inputs.elementary(ring, "lin", m, 5, 4)
        x = cgf.Mat(ring, [rows[0]])
        y_ints = [rng.randrange(4) for _ in range(m - 1)]
        y = cgf.Mat(ring, [y_ints])
        target = [rows[0][0]] + list(y.entries[0])
        table = self.tables[m]

        def run():
            try:
                word = cgf.roitman(x, 1, y)
            except cgf.errors.IdealNotComaximal as exc:
                return ExpectedError(exc.code)
            got = cgf.apply_word_to_row(list(x.entries[0]), word)
            confirm = cgf.certify_equivalence(x, cgf.Mat(ring, [target]),
                                              table)
            return word, cgf.Witness.certify(
                "roitman", {"x": x, "k": 1, "y": y}, {"word": word},
                [("x . eval(word) == (x_<k, y)", got == target),
                 ("oracle confirms the orbit", confirm is not None)])

        def check(out):
            if isinstance(out, ExpectedError):
                return "ok", out.code.encode(), 0
            return self._confirmed(out[0], rows[0], target, out[1])

        return Case(f"roitman-{m}", ["roitman", m, triples, y_ints], run,
                    check)


# ---------------------------------------------------------------------------
# oracle: orbit-table builds

def unimodular_count(card: int, primes, size: int, residue: int) -> int:
    """|Um_size(R)| for a finite ring R that is Z/n (primes of n) or local
    with residue field of size `residue` (primes empty)."""
    if primes:
        out = card ** size
        for p in primes:
            out = out * (p ** size - 1) // p ** size
        return out
    return card ** size - (card // residue) ** size


def ring_of(cgf, spec):
    """A ring from ("mod", n), ("prime", p) or ("polyloc", p, e)."""
    if spec[0] == "mod":
        return cgf.ModularRing(spec[1])
    if spec[0] == "prime":
        return cgf.PrimeField(spec[1])
    return cgf.TruncatedPolyLocal(spec[1], spec[2])


def table_size(spec, kind, family, size, frame_rows):
    """(objects, orbits) of an orbit table, from closed forms."""
    if spec[0] == "polyloc":
        card, primes, residue = spec[1] ** spec[2], (), spec[1]
    else:
        n = spec[1]
        card, residue = n, n
        primes = tuple(p for p in range(2, n + 1) if n % p == 0 and
                       all(p % q for q in range(2, p)))
    um = unimodular_count(card, primes, size, residue)
    if kind == "row":
        # orthogonal rows over F_p split by the value of the form
        return um, (spec[1] if family == "orth" else 1)
    if frame_rows == 1:
        return um, 1
    # hyperbolic pairs (u, v): u unimodular, <u, v> = 1
    return um * card ** (size - 1), 1


class Oracle(Workload):
    name = "oracle"
    why = ("BFS writes of orbit tables, 10^0..4*10^3 objects; row action "
           "boxing dominates, with no Mat arithmetic")
    trace_ops = 40

    def universe(self):
        """(ring spec, kind, family, size, frame_rows); about 12 s of BFS."""
        cases = []
        for n in range(2, 25):
            cases.append((("mod", n), "row", "lin", 2, 0))
        for n in range(2, 25):
            cases.append((("mod", n), "row", "sp", 2, 0))
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            cases.append((("prime", p), "row", "lin", 2, 0))
        for n in range(2, 10):
            cases.append((("mod", n), "row", "lin", 3, 0))
        for p in (2, 3, 5, 7):
            cases.append((("prime", p), "row", "lin", 3, 0))
        for n in (2, 3, 4, 5, 8):
            cases.append((("mod", n), "row", "lin", 4, 0))
        for p in (2, 3, 5):
            cases.append((("prime", p), "row", "lin", 4, 0))
        for size in (5, 6, 7, 8):
            cases.append((("mod", 2), "row", "lin", size, 0))
            cases.append((("prime", 2), "row", "lin", size, 0))
        cases.append((("mod", 3), "row", "lin", 5, 0))
        cases.append((("prime", 3), "row", "lin", 5, 0))
        for spec in (("mod", 2), ("mod", 3), ("mod", 4), ("prime", 2),
                     ("prime", 3)):
            cases.append((spec, "row", "sp", 4, 0))
        for p in (3, 5, 7):
            cases.append((("prime", p), "row", "orth", 4, 0))
        for p, e in ((2, 2), (3, 2), (2, 3)):
            for size in (2, 3):
                cases.append((("polyloc", p, e), "row", "lin", size, 0))
        # rows of size 2 over rings of 17..24 elements, in three families,
        # keep the p90 inside a dense band of 60-200 ms tables
        for n in list(range(2, 10)) + list(range(17, 25)):
            cases.append((("mod", n), "frame", "sp", 2, 1))
        for spec in (("mod", 2), ("mod", 3), ("mod", 4), ("prime", 2),
                     ("prime", 3)):
            cases.append((spec, "frame", "sp", 4, 1))
        for spec in (("mod", 2), ("prime", 2), ("mod", 3), ("prime", 3)):
            cases.append((spec, "frame", "sp", 4, 2))
        return cases

    def stream(self):
        """The whole set once, in seeded order, as one cycle: a run covers
        all of it whatever the machine's speed."""
        cases = self.universe()
        self.rng.shuffle(cases)
        for idx, spec in enumerate(cases):
            case = self.case(*spec)
            case.cycle_end = idx == len(cases) - 1
            yield case

    def case(self, spec, kind, family, size, frame_rows):
        cgf, rng = self.cgf, self.rng
        ring = ring_of(cgf, spec)
        objects, orbits = table_size(spec, kind, family, size, frame_rows)
        probes = [rng.random() for _ in range(8)]

        def run():
            return cgf.enumerate_orbits(ring, kind, family, size,
                                        frame_rows=frame_rows)

        def check(table):
            ok = (len(table.orbit_of) == objects
                  and table.orbit_count() == orbits)
            keys = sorted(table.orbit_of)
            for u in probes:
                key = keys[int(u * len(keys))]
                word = table.path_word(key)
                rep = table.reps[table.orbit_of[key]]
                start = [rep] if kind == "row" else rep
                got = eval_rows(word, [[ring.value(p) for p in r]
                                       for r in start])
                got = tuple(tuple(v.payload for v in r) for r in got)
                ok = ok and (got[0] if kind == "row" else got) == key
            return ("ok" if ok else "wrong"), dumps(table.to_json()), 0

        label = f"{kind}-{family}-{size}-{frame_rows}-{ring.describe()}"
        return Case(label, [list(spec), kind, family, size, frame_rows], run,
                    check)


# ---------------------------------------------------------------------------
# cli: in-process `cgf.cli.main(argv)`

class Cli(Workload):
    name = "cli"
    why = ("argument parsing, witness-JSON emission and exit codes, the way "
           "the README runs cgf; includes the known malformed-argv defect")
    trace_ops = 36

    def __init__(self, cgf, seed, root):
        super().__init__(cgf, seed, root)
        import cgf.cli  # noqa: F401  (not imported by the package itself)
        self.tmp = os.path.join("bench", "out", "tmp")
        os.makedirs(os.path.join(root, self.tmp), exist_ok=True)
        self.serial = 0
        self.z4, self.z9 = cgf.ModularRing(4), cgf.ModularRing(9)
        self.f5 = cgf.PrimeField(5)
        self.pool = self.orbit_pool()
        self.files = {}
        # the table every `certify` case reads: Um_3(Z/4), 56 rows
        self.table = self.path("table")
        self._dump(self.table, cgf.enumerate_orbits(
            self.z4, "row", "lin", 3).to_json())

    def path(self, stem):
        self.serial += 1
        return os.path.join(self.tmp, f"{stem}-{self.seed}-{self.serial}.json")

    def _dump(self, path, obj):
        with open(os.path.join(self.root, path), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def write(self, stem, obj):
        """An input file, named in argv as @path."""
        path = self.path(stem)
        self._dump(path, obj)
        self.files[path] = obj
        return path

    def cycle(self):
        if not self.pool:
            return []
        b = [self.reduce_row, self.reduce_row_sp, self.complete_linear,
             self.complete_sp, self.complete_orth, self.whitehead,
             self.whitehead_sp, self.transvection, self.common_perp,
             self.two_row, self.roitman, self.homotopy_linear,
             self.homotopy_sp, self.homotopy_orth, self.split, self.patch,
             self.classify, self.quotient, self.ortho_commutator,
             self.orbits, self.certify,
             lambda: self.harness("lemmas"), lambda: self.harness("homotopy"),
             lambda: self.harness("localglobal"),
             lambda: self.harness("ortho"),
             self.domain_no_unit, self.domain_not_invertible,
             self.usage_unknown_ring, self.usage_missing_arg,
             self.usage_bad_flavor]
        # ROADMAP item 5: each must exit 1 with one stderr line; today they
        # escape as tracebacks and count as failures.
        b += [self.bad_json_row, self.ring_missing_key, self.ring_bad_int,
              self.locint_grid_row, self.missing_file, self.homotopy_no_ring]
        self.rng.shuffle(b)
        return b

    # -- case plumbing -------------------------------------------------------
    def case(self, label, argv, exits, verify=None, code=None):
        """`exits`: allowed exit codes; `verify(obj)` checks exit-0 stdout;
        `code`: the error code an exit-2 answer must carry."""
        cli = self.cgf.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            exc = None
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(list(argv))
                except Exception as e:  # the defect this workload records
                    rc, exc = None, e
            return rc, out.getvalue(), err.getvalue(), exc

        def check(res):
            rc, out, err, exc = res
            blob = f"{rc}\n{out}".encode()
            if exc is not None or rc not in exits:
                return "fail", blob, 0
            if rc == 1:
                ok = out == "" and err.count("\n") == 1
                return ("ok" if ok else "fail"), blob, 0
            lines = out.splitlines()
            if len(lines) != 1:
                return "fail", blob, 0
            obj = json.loads(lines[0])
            if rc == 2:
                if code is None:  # harness suites report failures with 2
                    return "wrong", blob, 0
                return ("ok" if obj.get("code") in code else "fail"), blob, 0
            if "claim" in obj and any(c["status"] != "pass"
                                      for c in obj["checks"]):
                return "wrong", blob, 0
            good, gens = verify(obj)
            return ("ok" if good else "wrong"), blob, gens

        # an @file argument is described by its contents
        desc = [label] + [json.dumps(self.files[a[1:]], sort_keys=True)
                          if a[1:] in self.files else a for a in argv]
        return Case(label, desc, run, check)

    def op_stats(self, result, exc) -> dict:
        if exc is not None or result[3] is not None:
            return {"cli.exit.exc": 1}
        return {f"cli.exit.{result[0]}": 1,
                "cli.stdout_bytes": len(result[1].encode())}

    def _word(self, obj):
        return self.cgf.GenWord.from_json(obj["outputs"]["word"])

    def row_claim(self, start, target):
        def verify(obj):
            word = self._word(obj)
            return eval_rows(word, [start])[0] == list(target), len(word)
        return verify

    # -- verbs ---------------------------------------------------------------
    def reduce_row(self):
        # the README invocation's shape, over a seeded local ring
        n = self.rng.choice((4, 8, 9, 16, 25, 27, 49))
        ring = self.cgf.ModularRing(n)
        size = self.rng.choice((3, 4))
        _, rows, _ = self.inputs.elementary(ring, "lin", size, 5, n)
        e1 = [ring.one()] + [ring.zero()] * (size - 1)
        return self.case("reduce-row", [
            "reduce-row", "--ring", json.dumps({"kind": "mod", "n": n}),
            "--row", json.dumps(grid(rows)[0])], {0},
            self.row_claim(rows[0], e1))

    def reduce_row_sp(self):
        ring = self.z9
        _, rows, _ = self.inputs.elementary(ring, "sp", 4, 5, 9)
        e1 = [ring.one()] + [ring.zero()] * 3
        return self.case("reduce-row-sp", [
            "reduce-row", "--flavor", "sp", "--ring", "mod:9", "--row",
            json.dumps(grid(rows)[0])], {0}, self.row_claim(rows[0], e1))

    def _leading(self, n_rows, rows):
        def verify(obj):
            word = self._word(obj)
            return eval_rows(word)[:n_rows] == rows[:n_rows], len(word)
        return verify

    def complete_linear(self):
        _, rows, _ = self.inputs.elementary(self.z9, "lin", 4, 6, 9)
        return self.case("complete-linear", [
            "complete", "--ring", "mod:9", "--matrix",
            json.dumps(grid(rows[:2]))], {0}, self._leading(2, rows))

    def complete_sp(self):
        _, rows, _ = self.inputs.elementary(self.z9, "sp", 6, 6, 9)
        mat = {"rows": 2, "cols": 6, "ring": {"kind": "mod", "n": 9},
               "entries": grid(rows[:2])}
        return self.case("complete-sp", [
            "complete", "--flavor", "sp", "--ring", "mod:9", "--matrix",
            "@" + self.write("frame", mat)], {0}, self._leading(2, rows))

    def complete_orth(self):
        _, rows, _ = self.inputs.elementary(self.f5, "orth", 8, 6, 5)
        return self.case("complete-orth", [
            "complete", "--flavor", "orth", "--ring", "prime:5", "--matrix",
            json.dumps(grid(rows[:4]))], {0}, self._leading(4, rows))

    def _perp_claim(self, rows, inv):
        def verify(obj):
            word = self._word(obj)
            return eval_rows(word) == perp_rows(rows, inv), len(word)
        return verify

    def whitehead(self):
        _, rows, inv = self.inputs.elementary(self.z9, "lin", 2, 4, 9)
        return self.case("whitehead", [
            "whitehead", "--flavor", "linear", "--ring", "mod:9", "--matrix",
            json.dumps(grid(rows))], {0}, self._perp_claim(rows, inv))

    def whitehead_sp(self):
        _, rows, inv = self.inputs.elementary(self.f5, "sp", 4, 4, 5)
        return self.case("whitehead-sp", [
            "whitehead", "--flavor", "sp", "--ring", "prime:5", "--matrix",
            json.dumps(grid(rows))], {0}, self._perp_claim(rows, inv))

    def transvection(self):
        ring, rng = self.z9, self.rng
        _, rows, inv = self.inputs.elementary(ring, "lin", 3, 5, 9)
        coeffs = [rng.randrange(9) for _ in range(2)]
        zero = ring.zero()
        r_row = [sum((ring.coerce(a) * inv[i + 1][j]
                      for i, a in enumerate(coeffs)), zero) for j in range(3)]
        col = [rows[i][0] for i in range(3)]
        expected = [[(ring.one() if i == j else zero) + col[i] * r_row[j]
                     for j in range(3)] for i in range(3)]

        def verify(obj):
            word = self._word(obj)
            return eval_rows(word) == expected, len(word)

        return self.case("transvection", [
            "transvection", "--ring", "mod:9", "--col",
            json.dumps(grid([col])[0]), "--row",
            json.dumps(grid([r_row])[0])], {0}, verify)

    def common_perp(self):
        ring, rng = self.z4, self.rng
        _, rows, inv = self.inputs.elementary(ring, "lin", 3, 5, 4)
        coeffs = [rng.randrange(4) for _ in range(2)]
        zero = ring.zero()
        v2 = [rows[0][j] + sum((ring.coerce(a) * rows[i + 1][j]
                                for i, a in enumerate(coeffs)), zero)
              for j in range(3)]
        w = [inv[j][0] for j in range(3)]
        return self.case("common-perp", [
            "common-perp", "--ring", "mod:4", "--v1",
            json.dumps(grid([rows[0]])[0]), "--v2",
            json.dumps(grid([v2])[0]), "--w", json.dumps(grid([w])[0])],
            {0}, self.row_claim(rows[0], v2))

    def two_row(self):
        _, rows, _ = self.inputs.elementary(self.z4, "lin", 3, 5, 4)
        return self.case("two-row", [
            "two-row", "--ring", "mod:4", "--matrix",
            json.dumps(grid(rows[:2]))], {0},
            self.row_claim(rows[0], rows[1]))

    def roitman(self):
        ring = self.z4
        _, rows, _ = self.inputs.elementary(ring, "lin", 3, 5, 4)
        y = [self.rng.randrange(4) for _ in range(2)]
        target = [rows[0][0]] + [ring.coerce(v) for v in y]
        return self.case("roitman", [
            "roitman", "--ring", "mod:4", "--row",
            json.dumps(grid([rows[0]])[0]), "--k", "1", "--target",
            json.dumps(y)], {0, 2}, self.row_claim(rows[0], target),
            code={"ideal_not_comaximal"})

    def _homotopy(self, label, flavor, family, ring_json, ring, modulus, n,
                  m, use_file):
        dsize = n if family == "lin" else 2 * n
        vsize = m if family == "lin" else 2 * m
        d_triples = rand_triples(self.rng, family, dsize, 2, modulus,
                                 poly=True)
        _, rows, _ = self.inputs.elementary(ring, family, vsize, 4, modulus)
        spec = {"ring": ring_json,
                "delta_word": {"family": family, "size": dsize,
                               "ring": {"kind": "poly", "base": ring_json,
                                        "var": "T"},
                               "gens": [{"i": i, "j": j, "param": k}
                                        for i, j, k in d_triples]},
                "v": grid(rows[:dsize])}
        arg = "@" + self.write("instance", spec) if use_file else \
            json.dumps(spec)

        def verify(obj):
            cgf = self.cgf
            sigma = cgf.Mat.from_json(obj["outputs"]["sigma_t"])
            eps = cgf.GenWord.from_json(obj["outputs"]["epsilon"])
            rt = sigma.ring
            d_rows = eval_rows(cgf.word_from_pairs(rt, dsize, family,
                                                   d_triples))
            pad = vsize - dsize
            ident = [[rt.one() if i == j else rt.zero() for j in range(pad)]
                     for i in range(pad)]
            target = perp_rows(d_rows, ident) if pad else d_rows
            ok = (obj["mode"] == "word" and matmul_rows(
                [list(r) for r in sigma.entries], eval_rows(eps)) == target)
            return ok, len(eps)

        return self.case(label, ["homotopy-commute", "--flavor", flavor,
                                 "--input", arg], {0}, verify)

    def homotopy_linear(self):
        return self._homotopy("homotopy-linear", "linear", "lin",
                              {"kind": "mod", "n": 9}, self.z9, 9, 2, 3, True)

    def homotopy_sp(self):
        return self._homotopy("homotopy-sp", "sp", "sp",
                              {"kind": "prime", "p": 5}, self.f5, 5, 2, 3,
                              False)

    def homotopy_orth(self):
        return self._homotopy("homotopy-orth", "orth", "orth",
                              {"kind": "mod", "n": 9}, self.z9, 9, 2, 4,
                              False)

    def split(self):
        rng = self.rng
        base = {"kind": "frac", "base": {"kind": "int"}, "s": 6}
        gens = []
        for i, j in ((1, 2), (2, 3)):
            num = rng.choice([v for v in range(-20, 21) if v])
            den = 6 ** rng.randrange(2)
            gens.append({"i": i, "j": j, "param": [[0, 1], [num, den]]})
        theta = {"family": "lin", "size": 3,
                 "ring": {"kind": "poly", "base": base, "var": "T"},
                 "gens": gens}

        def verify(obj):
            cgf = self.cgf
            a = cgf.GenWord.from_json(obj["outputs"]["theta_a"])
            b = cgf.GenWord.from_json(obj["outputs"]["theta_b"])
            whole = cgf.GenWord.from_json(theta)
            return (matmul_rows(eval_rows(a), eval_rows(b)) ==
                    eval_rows(whole)), len(a) + len(b)

        return self.case("split", [
            "split", "--theta", "@" + self.write("theta", theta), "--s1", "3",
            "--s2", "-2"], {0, 2}, verify, code={"split_exponent_exhausted"})

    def patch(self):
        rng = self.rng
        entries = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]

        def mat(s):
            return {"rows": 2, "cols": 2,
                    "ring": {"kind": "poly", "var": "T",
                             "base": {"kind": "frac", "base": {"kind": "int"},
                                      "s": s}},
                    "entries": [[[[e, 1]] for e in row] for row in entries]}

        def verify(obj):
            glued = obj["outputs"]["glued"]["entries"]
            return glued == [[[e] if e else [] for e in row]
                             for row in entries], 0

        return self.case("patch", [
            "patch", "--sigma1", json.dumps(mat(3)), "--sigma2",
            json.dumps(mat(-2)), "--s1", "3", "--s2", "-2"], {0}, verify)

    def classify(self):
        p = self.rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
        u = self.rng.randrange(1, p)
        shape = self.rng.choice(("diag", "antidiag"))
        inv = pow(u, -1, p)
        m = [[u, 0], [0, inv]] if shape == "diag" else [[0, u], [inv, 0]]

        def verify(obj):
            return (obj["outputs"]["shape"] == shape and
                    obj["outputs"]["u"] == u), 0

        return self.case("classify-o2", [
            "classify-o2", "--ring", f"prime:{p}", "--matrix", json.dumps(m)],
            {0}, verify)

    def quotient(self):
        _, rows, _ = self.inputs.elementary(self.f5, "orth", 6, 6, 5)

        def verify(obj):
            cgf = self.cgf
            delta = cgf.Mat.from_json(obj["outputs"]["delta"])
            word = cgf.GenWord.from_json(obj["outputs"]["word"])
            ring = delta.ring
            corner = perp_rows([[ring.one() if i == j else ring.zero()
                                 for j in range(4)] for i in range(4)],
                               [list(r) for r in delta.entries])
            return matmul_rows(corner, eval_rows(word)) == rows, len(word)

        return self.case("ortho-quotient", [
            "ortho-quotient", "--ring", "prime:5", "--matrix",
            json.dumps(grid(rows))], {0}, verify)

    def ortho_commutator(self):
        rng = self.rng
        args = ["ortho-commutator"]
        for tag in ("a", "b"):
            u = rng.randrange(1, 5)
            inv = pow(u, -1, 5)
            delta = [[u, 0], [0, inv]] if rng.random() < 0.5 else \
                [[0, u], [inv, 0]]
            triples = rand_triples(rng, "orth", 6, 4, 5)
            word = {"family": "orth", "size": 6,
                    "ring": {"kind": "prime", "p": 5},
                    "gens": [{"i": i, "j": j, "param": k}
                             for i, j, k in triples]}
            args += [f"--{tag}-delta",
                     json.dumps({"rows": 2, "cols": 2,
                                 "ring": {"kind": "prime", "p": 5},
                                 "entries": delta}),
                     f"--{tag}-word", json.dumps(word)]

        def verify(obj):
            cgf = self.cgf
            word = cgf.GenWord.from_json(obj["outputs"]["word"])
            a = cgf.Mat.from_json(obj["inputs"]["a"])
            b = cgf.Mat.from_json(obj["inputs"]["b"])
            comm = a @ b @ cgf.orth_inverse(a) @ cgf.orth_inverse(b)
            target = cgf.block_perp(comm, cgf.identity(a.ring, 2))
            return same(target, eval_rows(word)), len(word)

        return self.case("ortho-commutator", args, {0}, verify)

    def orbit_pool(self):
        """Tables small enough for a CLI call, one per cycle; each (ring,
        kind, family, size) is listed once in a run, and a run ends when
        the pool is used up."""
        pool = []
        for n in range(2, 17):
            pool += [(("mod", n), "row", "lin", 2, 0),
                     (("mod", n), "row", "sp", 2, 0),
                     (("mod", n), "frame", "sp", 2, 1)]
        for p in (2, 3, 5, 7, 11, 13):
            pool += [(("prime", p), "row", "lin", 2, 0),
                     (("prime", p), "row", "sp", 2, 0),
                     (("prime", p), "frame", "sp", 2, 1)]
        for spec in (("mod", 2), ("mod", 3), ("mod", 4), ("mod", 5),
                     ("mod", 6), ("prime", 2), ("prime", 3), ("prime", 5)):
            pool.append((spec, "row", "lin", 3, 0))
        for spec in (("mod", 2), ("mod", 3), ("prime", 2), ("prime", 3)):
            pool += [(spec, "row", "lin", 4, 0), (spec, "row", "sp", 4, 0),
                     (spec, "frame", "sp", 4, 1)]
        for size in (5, 6):
            pool += [(("mod", 2), "row", "lin", size, 0),
                     (("prime", 2), "row", "lin", size, 0)]
        pool += [(("mod", 3), "row", "orth", 4, 0),
                 (("prime", 3), "row", "orth", 4, 0)]
        for p, e in ((2, 2), (3, 2), (2, 3)):
            pool += [(("polyloc", p, e), "row", "lin", 2, 0),
                     (("polyloc", p, e), "row", "lin", 3, 0),
                     (("polyloc", p, e), "frame", "sp", 2, 1)]
        self.rng.shuffle(pool)
        return pool

    def orbits(self):
        """`orbits --cache` over the next table of the pool."""
        spec, kind, family, size, frame_rows = self.pool.pop()
        objects, orbits = table_size(spec, kind, family, size, frame_rows)
        argv = ["orbits", "--ring", ":".join(str(x) for x in spec), "--kind",
                kind, "--family", family, "--size", str(size)]
        if frame_rows:
            argv += ["--frame-rows", str(frame_rows)]
        return self.case(f"orbits-{kind}-{family}-{size}",
                         argv + ["--cache", self.path("orbits")], {0},
                         lambda obj: (obj["objects"] == objects and
                                      obj["orbits"] == orbits and
                                      sum(obj["sizes"]) == objects, 0))

    def certify(self):
        """`certify` of v1 ~ v1 . eval(word) against the set-up table."""
        ring = self.z4
        _, rows, _ = self.inputs.elementary(ring, "lin", 3, 4, 4)
        v1 = rows[0]
        word = self.inputs.word(ring, "lin", 3,
                                rand_triples(self.rng, "lin", 3, 3, 4))
        v2 = eval_rows(word, [v1])[0]
        return self.case("certify", [
            "certify", "--table", self.table, "--v1",
            json.dumps(grid([v1])[0]), "--v2", json.dumps(grid([v2])[0])],
            {0}, lambda obj: self._certified(obj, v1, v2))

    def _certified(self, obj, v1, v2):
        if not obj.get("equivalent"):
            return False, 0
        word = self.cgf.GenWord.from_json(obj["word"])
        return eval_rows(word, [v1])[0] == list(v2), len(word)

    def harness(self, suite):
        seed = self.rng.randrange(10 ** 6)
        return self.case(f"harness-{suite}", [
            "harness", suite, "--seed", str(seed), "--budget", "1"], {0},
            lambda obj: (obj["ok"] and obj["failures"] == 0, 0))

    # -- documented errors -----------------------------------------------------
    def domain_no_unit(self):
        n = 2 ** self.rng.randrange(2, 11)  # Z/2^k is local
        row = [2 * self.rng.randrange(n // 2) for _ in range(3)]
        return self.case("domain-no-unit", [
            "reduce-row", "--ring", f"mod:{n}", "--row", json.dumps(row)],
            {2}, code={"no_unit_entry"})

    def domain_not_invertible(self):
        m = [[3 * self.rng.randrange(3) for _ in range(3)] for _ in range(3)]
        return self.case("domain-not-invertible", [
            "whitehead", "--ring", "mod:9", "--matrix", json.dumps(m)], {2},
            code={"not_invertible"})

    def usage_unknown_ring(self):
        name = self.rng.choice(("field", "ring", "zz", "gf"))
        return self.case("usage-unknown-ring", [
            "reduce-row", "--ring", f"{name}:{self.rng.randrange(2, 10**4)}",
            "--row", "[1,0]"], {1})

    def usage_missing_arg(self):
        return self.case("usage-missing-arg", [
            "reduce-row", "--ring", f"mod:{self.rng.randrange(2, 10**4)}"],
            {1})

    def usage_bad_flavor(self):
        return self.case("usage-bad-flavor", [
            "reduce-row", "--flavor", "orth", "--ring",
            f"mod:{self.rng.randrange(2, 10**4)}", "--row", "[1,0]"], {1})

    # -- malformed argv (ROADMAP item 5) ------------------------------------------
    def bad_json_row(self):
        a, b = self.rng.randrange(10**4), self.rng.randrange(10**4)
        return self.case("malformed-json-row", [
            "reduce-row", "--ring", "mod:4", "--row", f"[{a},{b}"], {1})

    def ring_missing_key(self):
        ring = {"kind": self.rng.choice(("mod", "prime")),
                "base": self.rng.randrange(10**4)}
        return self.case("malformed-ring-missing-key", [
            "reduce-row", "--ring", json.dumps(ring), "--row", "[1,0]"], {1})

    def ring_bad_int(self):
        tail = "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in range(4))
        return self.case("malformed-ring-bad-int", [
            "reduce-row", "--ring", f"mod:{tail}", "--row", "[1,0]"], {1})

    def locint_grid_row(self):
        p = self.rng.choice((3, 5, 7))
        a = self.rng.randrange(1, 10**4)
        return self.case("malformed-locint-grid-row", [
            "reduce-row", "--ring", f"locint:{p}", "--row", f"[[{a},0]]"],
            {1})

    def missing_file(self):
        return self.case("malformed-missing-file", [
            "reduce-row", "--ring", "mod:4", "--row",
            "@" + self.path("missing")], {1})

    def homotopy_no_ring(self):
        return self.case("malformed-homotopy-input", [
            "homotopy-commute", "--flavor", "linear", "--input",
            json.dumps({"note": self.rng.randrange(10**6)})], {1})


WORKLOADS = {w.name: w for w in (Homotopy, Factor, Oracle, Cli)}
