"""Word-level splitting over complementary localizations and exact
comaximal patching, demonstrated on explicit two-chart instances over the
integers.

The split is search-based: escalate the exponent N, set b = s2^N, and test
by denominator inspection that theta(bT) lives over the s1-chart while
theta(bT)^{-1} theta(T) lives over the s2-chart.  A failure is reported as
exponent exhaustion, never asserted as impossibility.  theta_a's locality is
certified generator by generator; theta_b's only on its evaluation (the
concatenated word itself stays over the overlap ring), and the witness
records that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadComaximal, DescriptorMismatch, FormViolation,
                     OverlapMismatch, ShapeMismatch, SplitExponentExhausted,
                     UnsupportedBase)
from .matrices import Mat, _constant_terms
from .rings import (FractionRing, IntegerRing, PolyExt, RingValue,
                    localize_denominator_check)
from .words import GenWord, Witness, apply_word_right


@dataclass(frozen=True)
class SplitResult:
    theta_a: GenWord
    theta_b: GenWord
    b: RingValue
    exponent: int
    witness: Witness


def _overlap_ring_of(theta: GenWord) -> PolyExt:
    rt = theta.ring
    if not isinstance(rt, PolyExt) or not isinstance(rt.base, FractionRing):
        raise UnsupportedBase(
            "splitting expects a word over Z[1/s1s2][T]", ring=rt)
    return rt


def quillen_split(theta: GenWord, s1: int, s2: int, n_max: int = 16,
                  exponent: int | None = None) -> SplitResult:
    """Factor theta(T) = theta(bT) . {theta(bT)^{-1} theta(T)} with b = s2^N.

    Searches the least N <= n_max unless ``exponent`` pins one.  Every
    returned split re-verifies the factorization and both locality checks,
    so there are no false certifications.
    """
    rt = _overlap_ring_of(theta)
    base: FractionRing = rt.base
    s1, s2 = int(s1), int(s2)
    if s1 + s2 != 1:
        raise BadComaximal(f"s1 + s2 = {s1 + s2} != 1")
    for g in theta:
        if not rt.constant_term(g.z).is_zero():
            raise FormViolation("split parameters must vanish at T = 0",
                                generator=str(g))
    if len(theta) == 0:
        # degenerate convention: report the first-power scale
        b = base.coerce(Fraction(s2))
        witness = Witness.certify(
            "quillen_split", {"theta": theta, "s1": s1, "s2": s2},
            {"theta_a": theta, "theta_b": theta, "b": b},
            [("empty word splits trivially", True)])
        return SplitResult(theta, theta, b, 1, witness)

    candidates = [exponent] if exponent is not None else list(range(n_max + 1))
    last_fail = None
    for n in candidates:
        b = base.coerce(Fraction(s2 ** n))
        theta_a = theta.dilate(b)
        word_local = all(localize_denominator_check(g.param, s1)
                         for g in theta_a)
        if not word_local:
            last_fail = (n, "theta_a parameters")
            continue
        theta_b = theta_a.invert() + theta
        eval_b = theta_b.eval()
        eval_local = all(localize_denominator_check(e, s2)
                         for row in eval_b.entries for e in row)
        if not eval_local:
            last_fail = (n, "theta_b evaluation")
            continue
        factorization = (theta_a.eval() @ eval_b) == theta.eval()
        witness = Witness.certify(
            "quillen_split",
            {"theta": theta, "s1": s1, "s2": s2},
            {"theta_a": theta_a, "theta_b": theta_b, "b": b, "N": n},
            [("theta_a parameters are s1-local (word level)", word_local),
             ("theta_b evaluation is s2-local (evaluation level)", eval_local),
             ("theta_a . theta_b == theta exactly", factorization),
             ("dilated word vanishes at T = 0",
              _constant_terms(theta_a.eval()).is_identity())])
        return SplitResult(theta_a, theta_b, b, n, witness)
    raise SplitExponentExhausted(
        f"no exponent up to {n_max} split the word", last_failure=last_fail)


# ---------------------------------------------------------------------------
# patching

def _patch_target(ring) -> bool:
    """Whether a supported chart ring is a polynomial ring."""
    if isinstance(ring, PolyExt):
        if isinstance(ring.base, (FractionRing, IntegerRing)):
            return True
        raise UnsupportedBase(f"cannot patch over {ring}")
    if isinstance(ring, (FractionRing, IntegerRing)):
        return False
    raise UnsupportedBase(f"cannot patch over {ring}")


def _entry_fractions(m: Mat, is_poly: bool):
    """Each entry as a tuple of Fractions (constant-only when not poly)."""
    return [[tuple(map(Fraction, e.payload)) if is_poly
             else (Fraction(e.payload),) for e in row] for row in m.entries]


def patch(sigma1: Mat, sigma2: Mat, s1: int, s2: int) -> Mat:
    """Glue matrices over the two charts into one over Z[T].

    Entries agreeing in the overlap and carrying both denominator types
    must be integral (the charts are comaximal), so reconstruction is exact.
    """
    if int(s1) + int(s2) != 1:
        raise BadComaximal(f"s1 + s2 = {int(s1) + int(s2)} != 1")
    if (sigma1.rows, sigma1.cols) != (sigma2.rows, sigma2.cols):
        raise ShapeMismatch("chart matrices differ in shape")
    poly1 = _patch_target(sigma1.ring)
    poly2 = _patch_target(sigma2.ring)
    f1 = _entry_fractions(sigma1, poly1)
    f2 = _entry_fractions(sigma2, poly2)
    glued = []
    for r in range(sigma1.rows):
        row = []
        for c in range(sigma1.cols):
            a, b = f1[r][c], f2[r][c]
            width = max(len(a), len(b))
            a = a + (Fraction(0),) * (width - len(a))
            b = b + (Fraction(0),) * (width - len(b))
            if a != b:
                raise OverlapMismatch(
                    f"entries disagree in the overlap at ({r}, {c})",
                    left=a, right=b)
            if any(x.denominator != 1 for x in a):
                raise OverlapMismatch(
                    f"entry at ({r}, {c}) is not integral", value=a)
            row.append([int(x) for x in a])
        glued.append(row)
    out_poly = poly1 or poly2
    z = IntegerRing()
    if out_poly:
        var = sigma1.ring.var if poly1 else sigma2.ring.var
        zt = PolyExt(z, var)
        result = Mat(zt, [[zt.coerce(e) for e in row] for row in glued])
    else:
        result = Mat(z, [[e[0] for e in row] for row in glued])
    # exact localization checks back into each chart
    for original, is_poly in ((sigma1, poly1), (sigma2, poly2)):
        target = original.ring
        if is_poly:
            back = Mat(target, [[target.coerce([Fraction(c) for c in e])
                                 for e in row] for row in glued])
        else:
            back = Mat(target, [[target.coerce(Fraction(e[0])) for e in row]
                                for row in glued])
        if back != original:
            raise OverlapMismatch("glued matrix fails a localization equality")
    return result


def fixed_frame_check(v: Mat, theta: GenWord) -> bool:
    """True iff the zero-padded frame [V; 0] is fixed by eval(theta)."""
    if v.cols != theta.size:
        raise ShapeMismatch("frame width must match the word size")
    if v.ring != theta.ring:
        raise DescriptorMismatch("frame and word rings differ")
    zero = v.ring.zero().payload
    padded = Mat._box(v.ring, v._grid +
                      ((zero,) * v.cols,) * (theta.size - v.rows))
    return apply_word_right(padded, theta) == padded
