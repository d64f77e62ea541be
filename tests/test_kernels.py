"""The payload kernels against the RingValue loops they replaced.

`_column_update` is the column update that `apply_word_right`,
`apply_word_to_row`, `gen_matrix`, the reduction engines and the orbit
oracle each carried before they shared `words._apply_gens`; `_matmul` is
the triple loop `Mat.__matmul__` ran before it shared the payload dot
product with the determinant.  Both are kept here unchanged as references.
"""

import random

import pytest

from cgf.matrices import Mat, identity
from cgf.rings import has_half
from cgf.sampling import random_word
from cgf.words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, apply_word_right,
                       apply_word_to_row, gen_matrix)

from conftest import all_test_rings

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RINGS = all_test_rings()
SETTINGS = hypothesis.settings(max_examples=300, deadline=None,
                               database=None, derandomize=True)


def _column_update(rows, gens):
    # reference: col_t += c col_s on rows of ring values, skipping zero sources
    rows = [list(r) for r in rows]
    for g in gens:
        for target, source, coeff in g.updates():
            t, s = target - 1, source - 1
            for r in rows:
                if not r[s].is_zero():
                    r[t] = r[t] + coeff * r[s]
    return rows


def _matmul(a, b):
    # reference: the triple loop over ring values
    cols = list(zip(*b.entries))
    zero = a.ring.zero()
    out = []
    for row in a.entries:
        out_row = []
        for col in cols:
            acc = zero
            for x, y in zip(row, col):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return Mat(a.ring, out)


def _random_mat(rng, ring, rows, cols):
    return Mat(ring, [[ring.random(rng) for _ in range(cols)]
                      for _ in range(rows)])


@st.composite
def words(draw):
    """(ring, word, rng): a random word over one of the test rings."""
    ring = RINGS[draw(st.integers(0, len(RINGS) - 1))]
    family = draw(st.sampled_from((FAMILY_LIN, FAMILY_SP, FAMILY_ORTH)))
    if family == FAMILY_ORTH:
        hypothesis.assume(has_half(ring))
    size = draw(st.sampled_from({FAMILY_LIN: (2, 3, 4, 5), FAMILY_SP: (2, 4),
                                 FAMILY_ORTH: (4, 6)}[family]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    word = random_word(rng, ring, family, size, draw(st.integers(0, 12)))
    return ring, word, rng


@SETTINGS
@hypothesis.given(words(), st.integers(1, 4))
def test_apply_word_right_matches_reference(case, n_rows):
    ring, word, rng = case
    m = _random_mat(rng, ring, n_rows, word.size)
    assert apply_word_right(m, word) == Mat(ring, _column_update(m.entries,
                                                                 word.gens))
    assert word.eval() == Mat(ring, _column_update(
        identity(ring, word.size).entries, word.gens))


@SETTINGS
@hypothesis.given(words())
def test_apply_word_to_row_matches_reference(case):
    ring, word, rng = case
    row = [ring.random(rng) for _ in range(word.size)]
    assert apply_word_to_row(row, word) == _column_update([row], word.gens)[0]


@SETTINGS
@hypothesis.given(words())
def test_gen_matrix_matches_reference(case):
    ring, word, _ = case
    for g in word:
        assert gen_matrix(g) == Mat(ring, _column_update(
            identity(ring, g.size).entries, (g,)))


@SETTINGS
@hypothesis.given(st.integers(0, len(RINGS) - 1), st.integers(1, 4),
                  st.integers(1, 4), st.integers(1, 4),
                  st.integers(0, 2 ** 32 - 1))
def test_matmul_matches_reference(ring_idx, n, k, m, seed):
    ring, rng = RINGS[ring_idx], random.Random(seed)
    a = _random_mat(rng, ring, n, k)
    b = _random_mat(rng, ring, k, m)
    assert a @ b == _matmul(a, b)
    assert a @ identity(ring, k) == a

