"""The homotopy-and-commutativity engine.

Given a one-parameter family d(T) (d(0) = I) in SL, Sp or SO and a
right-invertible V over a local ring, produce s(T) with

    d(T) V = V s(T),   s(0) = I,

together with a word for s(T)^{-1} (d(T) ⊥ I): completing V to an
elementary matrix W makes s(T) = W^{-1} (d(T) ⊥ I) W work by pure algebra,
and when d(T) itself is word-backed the whole conjugate is a word.  The
commutator corollary is the engine's word at T = 1 and transport's the
engine's T = 1 word d·d^{-1}·W^{-1}·d·W on V ⊥ I, both built over R.

W is a short word, so every conjugate and every product by a word is the
sparse action of its generators (``apply_word_left``/``apply_word_right``),
never a dense matmul over R[T] and never an evaluation of W on the identity.
The checks compare the same exact products: σ(T)·ε becomes σ(T) acted on by
the word ε, at T and at T = 1.  In word mode no check needs the ε matrix,
so ``CommuteResult.epsilon_mat`` evaluates the word on its first read;
d(1) ⊥ I is d(1), substituted once per homotopy (``Homotopy.at``), padded
by the identity.  The commutator corollary reads that d(1) again, and the
completion W of V, which its matrix keeps (``reduce``), so an engine run
and a commutator on the same V and d share both.

One flavor table, ``_FLAVORS``, gives each flavor its generator family, its
group, the frame kind V must have and its completion; ``_commute`` runs the
guards of the three public entries from it.

Two witness modes: "word" exhibits every membership by a generator word;
"assert" certifies the matrix identities exactly but records elementary
membership as unverified rather than faking it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (DescriptorMismatch, FormViolation, NotInvertible,
                     NotLocal, SizeBound)
from .factor import _block_gens, whitehead_linear, whitehead_symplectic
from .matrices import (IsotropicFrame, Mat, _constant_terms, block_perp,
                       identity, membership)
from .reduce import complete_orth, complete_sp, complete_um_linear
from .rings import PolyExt, RingValue
from .words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, GenWord, Witness,
                    _rebuilt, apply_word_left, apply_word_right, empty_word)


class _Flavor(NamedTuple):
    family: str
    group: str
    frame: str | None  # the IsotropicFrame kind V must have; None: V is a Mat
    complete: Callable  # V (a Mat or a frame) -> an elementary word W


_FLAVORS = {
    "linear": _Flavor(FAMILY_LIN, "SL", None, complete_um_linear),
    "symplectic": _Flavor(FAMILY_SP, "Sp", "sp", complete_sp),
    "orthogonal": _Flavor(FAMILY_ORTH, "SO", "orth", complete_orth),
}


def mat_substitute(m: Mat, t: RingValue) -> Mat:
    """Entrywise evaluation of a matrix over R[T] at a base point; at 0,
    the constant terms."""
    rt = m.ring
    if not isinstance(rt, PolyExt):
        raise DescriptorMismatch("matrix does not live over R[T]")
    if t.ring != rt.base:
        raise DescriptorMismatch("evaluation point from another ring")
    if t.payload == rt.base.zero().payload:
        return _constant_terms(m)
    return Mat._box(rt.base, [[rt._horner(p, t.payload) for p in row]
                              for row in m._grid])


@dataclass(frozen=True)
class Homotopy:
    """A family d(T) with d(0) = I inside SL, Sp or SO over R[T];
    optionally backed by a generator word with parameters in (T)."""

    flavor: str
    delta_t: Mat
    word: GenWord | None = None

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise DescriptorMismatch(f"unknown flavor {self.flavor!r}")
        rt = self.delta_t.ring
        if not isinstance(rt, PolyExt):
            raise DescriptorMismatch("homotopies live over R[T]")
        if not mat_substitute(self.delta_t, rt.base.zero()).is_identity():
            raise FormViolation("homotopy does not start at the identity")
        group = _FLAVORS[self.flavor].group
        if not membership(self.delta_t, group):
            raise FormViolation(f"homotopy leaves {group} over R[T]")
        if self.word is not None:
            w_mat = self.word.eval()
            if w_mat is not self.delta_t and w_mat != self.delta_t:
                raise FormViolation("backing word does not evaluate to d(T)")

    @classmethod
    def from_word(cls, flavor: str, word: GenWord) -> "Homotopy":
        rt = word.ring
        if not isinstance(rt, PolyExt):
            raise DescriptorMismatch("word-backed homotopies live over R[T]")
        zero = rt.base.zero().payload
        for g in word:
            if g.z and g.z[0] != zero:
                raise FormViolation(
                    "word parameters must vanish at T = 0", generator=str(g))
        return cls(flavor, word.eval(), word)

    @classmethod
    def from_matrix(cls, flavor: str, delta_t: Mat) -> "Homotopy":
        return cls(flavor, delta_t)

    @property
    def size(self) -> int:
        return self.delta_t.rows

    @property
    def poly_ring(self) -> PolyExt:
        return self.delta_t.ring

    @property
    def base_ring(self):
        return self.poly_ring.base

    def at(self, t) -> Mat:
        """d(t) over the base ring, substituted once per point and
        homotopy: the matrix is kept in ``__dict__`` under t's payload, as
        ``GenWord.eval`` keeps its matrix, so ==, hash and repr ignore it."""
        t = self.base_ring.coerce(t)
        kept = self.__dict__.setdefault("_at", {})
        d_t = kept.get(t.payload)
        if d_t is None:
            d_t = kept[t.payload] = mat_substitute(self.delta_t, t)
        return d_t

    def is_word_backed(self) -> bool:
        return self.word is not None


@dataclass(frozen=True)
class CommuteResult:
    """s(T), the witness word for s(T)^{-1}(d(T) ⊥ I) when available, its
    matrix in any case, and the verification report.

    In word mode ``epsilon_mat`` is ``epsilon_word.eval()``, evaluated on
    its first read and kept by the word: no check reads it, and the witness
    holds the word.  In assert mode it is the matrix the checks computed,
    given as ``_epsilon_mat`` (None in word mode)."""

    sigma_t: Mat
    epsilon_word: GenWord | None
    _epsilon_mat: Mat | None
    witness: Witness
    mode: str  # "word" | "assert"

    @property
    def epsilon_mat(self) -> Mat:
        if self._epsilon_mat is None:
            return self.epsilon_word.eval()
        return self._epsilon_mat


def _conjugate(w: GenWord, w_inv: GenWord, m: Mat) -> Mat:
    """eval(w)^{-1} m eval(w), by the sparse actions of the two words."""
    return apply_word_right(apply_word_left(w_inv, m), w)


def _commute_core(d: Homotopy, v_mat: Mat, completion: GenWord,
                  claim: str) -> CommuteResult:
    rt = d.poly_ring
    base = d.base_ring
    flavor = _FLAVORS[d.flavor]
    msize = completion.size
    nsize = d.size

    w_t = completion.lift_to(rt)
    if msize == nsize:
        d_mat = d.delta_t
    else:
        d_mat = block_perp(d.delta_t, identity(rt, msize - nsize))
    w_t_inv = w_t.invert()
    sigma_t = _conjugate(w_t, w_t_inv, d_mat)

    mode = "word" if d.is_word_backed() else "assert"
    if mode == "word":
        d_word = d.word.embed(msize)
        if len(completion) == 0 or len(d.word) == 0:
            eps_word = empty_word(rt, msize, flavor.family)
        else:
            eps_word = (w_t_inv + d_word.invert() + w_t + d_word)
        eps_mat = None  # evaluated on the first read of epsilon_mat
        check_eps = apply_word_right(sigma_t, eps_word) == d_mat
    else:
        eps_word = None
        eps_mat = _conjugate(w_t, w_t_inv, d_mat.inverse()) @ d_mat
        check_eps = (sigma_t @ eps_mat) == d_mat

    v_t = v_mat.map_ring(rt)
    d_v = (apply_word_left(d.word, v_t) if mode == "word"
           else d.delta_t @ v_t)
    check_commute = d_v == (v_t @ sigma_t)
    check_start = mat_substitute(sigma_t, base.zero()).is_identity()
    check_group = membership(sigma_t, flavor.group)

    one = base.one()
    sigma_1 = mat_substitute(sigma_t, one)
    delta_1 = d.at(one)
    check_spec = (delta_1 @ v_mat) == (v_mat @ sigma_1)
    d1_mat = (delta_1 if msize == nsize
              else block_perp(delta_1, identity(base, msize - nsize)))
    if mode == "word":
        eps_1 = eps_word.specialize(one)
        check_spec_eps = apply_word_right(sigma_1, eps_1) == d1_mat
    else:
        check_spec_eps = (sigma_1 @ mat_substitute(eps_mat, one)) == d1_mat

    witness = Witness.certify(
        claim,
        inputs={"delta_t": d.delta_t, "v": v_mat},
        outputs={"sigma_t": sigma_t,
                 "epsilon": eps_word if eps_word is not None else eps_mat},
        checks=[
            ("delta_t @ V == V @ sigma_t (polynomial identity)", check_commute),
            ("sigma(0) == I", check_start),
            ("sigma_t @ epsilon == delta_t ⊥ I (exact)", check_eps),
            ("sigma_t stays in the flavor group over R[T]", check_group),
            ("T = 1 specialization commutes", check_spec),
            ("T = 1 epsilon specializes consistently", check_spec_eps),
            ("epsilon elementary membership",
             True if mode == "word" else None),
        ],
        mode=mode)
    return CommuteResult(sigma_t, eps_word, eps_mat, witness, mode)


def _commute(d: Homotopy, v, flavor: str) -> CommuteResult:
    """The guards of the three public entries, in one order, then the core.
    V is a Mat for the linear flavor and an IsotropicFrame otherwise."""
    spec = _FLAVORS[flavor]
    if d.flavor != flavor:
        raise DescriptorMismatch(f"expected a {flavor} homotopy")
    if spec.frame and v.kind != spec.frame:
        raise FormViolation(f"expected a {flavor} frame")
    v_mat = v.mat if spec.frame else v
    if v_mat.ring != d.base_ring:
        raise DescriptorMismatch("V and the homotopy live over different rings")
    if not v_mat.ring.is_local:
        raise NotLocal("the witnessed construction needs a local ring")
    if v_mat.rows != d.size:
        raise SizeBound("V must have as many rows as the homotopy size")
    n, m = (v.n_pairs, v.m_pairs) if spec.frame else (v.rows, v.cols)
    orth = flavor == "orthogonal"
    if not (m >= n + 2 and n >= 2 if orth else m > n >= 2 or m == n >= 3):
        bound = "m >= n + 2 and n >= 2" if orth else "m > n >= 2 or m = n >= 3"
        raise SizeBound(f"need {bound}, got n={n}, m={m}")
    return _commute_core(d, v_mat, spec.complete(v),
                         f"homotopy_commute_{flavor}")


def homotopy_commute_linear(d: Homotopy, v: Mat) -> CommuteResult:
    """d(T) V = V s(T) with s(T)^{-1}(d(T) ⊥ I) elementary, V in Um_{n,m}."""
    return _commute(d, v, "linear")


def homotopy_commute_symplectic(d: Homotopy, v: IsotropicFrame) -> CommuteResult:
    return _commute(d, v, "symplectic")


def homotopy_commute_orthogonal(d: Homotopy, v: IsotropicFrame) -> CommuteResult:
    return _commute(d, v, "orthogonal")


# ---------------------------------------------------------------------------
# corollaries

def commutator_witness(a: Homotopy, b: Mat) -> GenWord:
    """A word e with a(1) b = b a(1) eval(e), for word-backed a and b in the
    flavor's group over a local ring: e = d(1)^{-1}·W^{-1}·d(1)·W over R,
    for W the completion of b, is ε(T) = d(T)^{-1}·W^{-1}·d(T)·W at T = 1.
    d(1) has no parameter that vanishes at T = 1, so e may fit under a
    CGF_WORD_LIMIT that ε(T) exceeds, never the reverse."""
    if not a.is_word_backed():
        raise NotInvertible("the commutator witness needs a word-backed homotopy")
    ring = a.base_ring
    if b.ring != ring:
        raise DescriptorMismatch("b lives over a different ring")
    if not ring.is_local:
        raise NotLocal("the witnessed construction needs a local ring")
    if b.rows != a.size or b.cols != a.size:
        raise SizeBound("b must match the homotopy size")
    if a.flavor == "linear":
        if a.size < 3:
            raise SizeBound("the linear commutator needs n >= 3")
        if not membership(b, "SL"):
            raise NotInvertible("b must have determinant 1")
        completion = complete_um_linear(b)
    elif a.flavor == "symplectic":
        if a.size < 4:
            raise SizeBound("the symplectic commutator needs size >= 4")
        if not membership(b, "Sp"):
            raise FormViolation("b must be symplectic")
        completion = complete_sp(IsotropicFrame(b, "sp"))
    else:
        raise DescriptorMismatch(
            "commutator witnesses cover the linear and symplectic flavors")
    # W is constant; specializing commutes with inversion and concatenation
    d_1 = a.word.specialize(ring.one())
    eps = d_1.invert() + completion.invert() + d_1 + completion
    eps_mat = eps.eval()
    alpha = a.at(1)
    if (alpha @ b) != (b @ alpha @ eps_mat):
        raise FormViolation("internal: commutator identity failed at T = 1")
    if eps_mat.det() != ring.one():
        raise FormViolation("internal: commutator witness determinant != 1")
    if a.flavor == "symplectic" and not membership(eps_mat, "Sp"):
        raise FormViolation("internal: commutator witness left Sp")
    return eps


@dataclass(frozen=True)
class TransportResult:
    sigma: Mat
    word: GenWord
    witness: Witness


def vaserstein_transport(d: Mat, v, flavor: str = "linear") -> TransportResult:
    """d V = V s with an explicit elementary word for s ⊥ d^{-1}.

    The word is the engine's T = 1 word d'·d'^{-1}·W^{-1}·d'·W, built over
    R, for d' the Whitehead word of d ⊥ d^{-1} (d^{-1} is read off it) and
    W the completion of V ⊥ I; every block of its matrix is checked exactly.
    d and, when the block β is nonzero, σ must be at most DET_SIZE_CAP."""
    if flavor not in ("linear", "symplectic"):
        raise DescriptorMismatch(f"unknown transport flavor {flavor!r}")
    linear = flavor == "linear"
    group = _FLAVORS[flavor].group
    if not membership(d, group):
        raise (NotInvertible if linear else FormViolation)(
            f"transport expects d in {group}")
    if linear:
        v_mat = v if isinstance(v, Mat) else v.mat
    else:
        v_mat = (v if isinstance(v, IsotropicFrame)
                 else IsotropicFrame(v, "sp")).mat
    ring, k = d.ring, d.rows
    if v_mat.rows != k:
        raise SizeBound("V must have as many rows as d")
    white = (whitehead_linear if linear else whitehead_symplectic)(d)
    v_big = block_perp(v_mat, identity(ring, k))
    if not ring.is_local:
        raise NotLocal("the witnessed transport needs a local ring")
    if v_mat.rows > v_mat.cols:
        raise SizeBound("V must have at most as many rows as columns")
    d_inv = white.eval().submatrix(k, 2 * k, k, 2 * k)
    frame = v_big if linear else IsotropicFrame(v_big, "sp")
    completion = _FLAVORS[flavor].complete(frame)
    big, cut = v_big.cols, v_mat.cols

    # σ' = (d ⊥ I) ε^{-1}, ε = W^{-1} d'^{-1} W d' concatenated as the
    # engine does, so a word-limit error reports the same length
    d_word = white.embed(big)
    sig_word = d_word
    if len(completion) and len(white):
        eps = completion.invert() + d_word.invert() + completion + d_word
        sig_word += eps.invert()
    s_full = sig_word.eval()

    alpha = s_full.submatrix(0, cut, 0, cut)
    beta = s_full.submatrix(0, cut, cut, big)
    gamma = s_full.submatrix(cut, big, 0, cut)
    zeta = s_full.submatrix(cut, big, cut, big)
    check_gamma = gamma == Mat.zeros(ring, k, cut)
    check_zeta = zeta == d_inv
    check_commutes = (d @ v_mat) == (v_mat @ alpha)

    # word = sig_word · correction evaluates to s_full acted on by the
    # correction, so the check acts on s_full instead of re-evaluating word
    word, word_mat = sig_word, s_full
    if beta != Mat.zeros(ring, cut, k):
        # in Sp the perp pairing forces the off-diagonal block to vanish
        if not linear:
            raise FormViolation("internal: symplectic transport kept a "
                                "nonzero off-diagonal block")
        x = alpha.inverse().scale(-ring.one()) @ beta
        correction = _rebuilt(ring, big, FAMILY_LIN,
                              tuple(_block_gens(x, 0, cut, big)))
        word += correction
        word_mat = apply_word_right(s_full, correction)
    check_word = word_mat == alpha.block_perp(d_inv)

    witness = Witness.certify(
        "vaserstein_transport",
        inputs={"d": d, "v": v_mat},
        outputs={"sigma": alpha, "word": word},
        checks=[("gamma block vanishes", check_gamma),
                ("zeta block equals d^{-1}", check_zeta),
                ("d V == V sigma", check_commutes),
                ("word evaluates to sigma ⊥ d^{-1}", check_word)])
    return TransportResult(alpha, word, witness)

