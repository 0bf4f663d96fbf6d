"""Certified counts against an exact oracle.

The oracle shares no code with the sweep: it forms the characteristic
polynomial p of M(s) in rational arithmetic (Faddeev-LeVerrier on the
exact matrix of the Scalars' dyadic values) and reads the counts at c off
p(x + c). p is real-rooted, so by Descartes' rule its coefficients
change sign once per root above c, and its trailing zeros count the
roots at c.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, to_rational

from deflap import diagonalize
from deflap.diagonalize import (
    _exact_inertia,
    _float_pair,
    _interval_inertia,
    count_eigenvalues,
    diagonalize_tree,
)
from deflap.scalar import PrecisionContext, PrecisionError, Scalar
from deflap.trees import Tree, dense_deformed_laplacian, free_trees
from test_tree_kernel import _random_tree


def _exact(x):
    return Fraction(*to_rational(x.raw()))


def _char_poly(tree, s):
    """Coefficients of det(xI - M(s)), constant term first, exact."""
    n = tree.n
    s = _exact(s)
    rows = [{v: 1 + s * s * (tree.degree[v] - 1)} for v in range(n)]
    for u, v in tree.edges():
        rows[u][v] = rows[v][u] = -s
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    prod = [[Fraction(0)] * n for _ in range(n)]  # M times M_{k-1}
    for k in range(1, n + 1):
        mk = [row[:] for row in prod]
        for i in range(n):
            mk[i][i] += coeffs[n - k + 1]
        prod = [[sum(w * mk[j][col] for j, w in rows[i].items()) for col in range(n)]
                for i in range(n)]
        coeffs[n - k] = -sum(prod[i][i] for i in range(n)) / k
    return coeffs


def _oracle(coeffs, c):
    """(above, below, at) c for the real-rooted polynomial ``coeffs``."""
    shifted = list(coeffs)
    n = len(shifted) - 1
    for i in range(n):  # Taylor shift: shifted(x) = p(x + c)
        for j in range(n - 1, i - 1, -1):
            shifted[j] += c * shifted[j + 1]
    at = next(i for i, a in enumerate(shifted) if a)
    signs = [a > 0 for a in shifted[at:]]
    above = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return above, n - above - at, at


def _nudged(x, ulps):
    # x moved by ``ulps`` units in the last place of its context
    prec = x.ctx.prec
    sign, man, exp, bc = x.raw()
    ulp = exp + bc - prec if man else -prec
    return x + Scalar(from_man_exp(ulps, ulp), x.ctx)


def test_laplacian_eigenvalue_four_is_counted():
    # M(1) is the Laplacian; its characteristic polynomial is
    # x (x - 4) (x - 1)^3 (x^3 - 7x^2 + 12x - 2), and the 50-digit sweep
    # alone reads the eigenvalue 4 as a negative pivot
    tree = Tree.from_edges([(6, 4), (5, 4), (4, 3), (3, 2), (2, 1), (0, 1), (1, 7)])
    ctx = PrecisionContext(50)
    s, c = ctx.scalar(1), ctx.scalar(4)
    assert diagonalize_tree(tree, s, -c).inertia == (1, 7, 0)
    assert count_eigenvalues(tree, s, c) == (1, 6, 1)
    assert _oracle(_char_poly(tree, s), _exact(c)) == (1, 6, 1)


def test_near_eigenvalue_family_has_no_wrong_triple():
    # every free tree with n = 3..8, probed at each eigenvalue rounded to
    # 20 digits and at 1 and 3 units in the last place on either side
    ctx = PrecisionContext(20)
    probes = wrong = 0
    for s_text in ("0.3", "-0.9", "1.5", "0.7"):
        s = ctx.scalar(s_text)
        for n in range(3, 9):
            for tree in free_trees(n):
                coeffs = _char_poly(tree, s)
                for lam in dense_deformed_laplacian(tree, s).eigenvalues(ctx):
                    for ulps in (0, 1, -1, 3, -3):
                        c = _nudged(lam, ulps)
                        probes += 1
                        wrong += count_eigenvalues(tree, s, c) != _oracle(coeffs, _exact(c))
    assert probes == 6460
    assert wrong == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 10), rng=st.randoms(use_true_random=False),
       s_text=st.sampled_from(("-1.5", "-1", "-0.3", "0", "0.5", "0.7", "1", "2")),
       c_text=st.decimals(-1, 9, places=3))
def test_rungs_agree_with_the_oracle_at_exact_points(n, rng, s_text, c_text):
    # c = 1 zeroes every leaf's pivot and 1 + s^2 every degree-2 vertex's
    # start, so the surgery runs on exact zeros in all three arithmetics;
    # 0 at |s| = 1 and 4 at s = 1 are Laplacian eigenvalues
    ctx = PrecisionContext(20)
    tree = _random_tree(rng, n)
    s = ctx.scalar(s_text)
    coeffs = _char_poly(tree, s)
    for c in (ctx.zero(), ctx.scalar(1), 1 + s * s, (1 + abs(s)) ** 2, ctx.scalar(4),
              ctx.scalar(str(c_text))):
        want = _oracle(coeffs, _exact(c))
        assert count_eigenvalues(tree, s, c) == want
        assert _exact_inertia(tree, s, c) == want
        assert _interval_inertia(tree, s, c) in (None, want)


def test_rungs_agree_with_the_oracle_off_the_spectrum():
    ctx = PrecisionContext(30)
    rng = random.Random(3)
    decided = 0
    for n in range(2, 8):
        for tree in free_trees(n):
            s = ctx.scalar("%.6f" % rng.uniform(-2, 2))
            c = ctx.scalar("%.6f" % rng.uniform(-1, 8))
            want = _oracle(_char_poly(tree, s), _exact(c))
            assert _exact_inertia(tree, s, c) == want
            assert _interval_inertia(tree, s, c) == want
            pos = _float_pair(tree, s, c)
            if pos is not None:
                decided += 1
                assert (pos, tree.n - pos, 0) == want
    assert decided > 0


def _broom(n):
    # a path whose end vertex carries two sibling leaves: eigenvalue 1 at every s
    return Tree.from_edges([(v, v + 1) for v in range(n - 2)] + [(n - 3, n - 1)])


def test_interval_rung_counts_an_exact_eigenvalue_on_a_long_broom(monkeypatch):
    # the exact rung's pivots grow by about 2 prec bits per path vertex, so
    # it takes about 0.7 s here; the interval rung sees the two leaves'
    # pivots as exact zeros and sweeps the path in linear time
    ctx = PrecisionContext(50)
    s, c = ctx.scalar("0.3"), ctx.scalar(1)
    assert count_eigenvalues(_broom(200), s, c) == _exact_inertia(_broom(200), s, c) == (109, 90, 1)

    def refused(tree, s, c):
        raise AssertionError("exact rung reached")

    monkeypatch.setattr(diagonalize, "_exact_inertia", refused)
    start = time.perf_counter()
    assert count_eigenvalues(_broom(1000), s, c) == (547, 452, 1)
    assert time.perf_counter() - start < 1.0


def test_exact_rung_raises_past_its_budget(monkeypatch):
    # c = 4 is an eigenvalue whose zero pivot comes out of rounded
    # divisions, so only the exact rung decides it
    tree = Tree.from_edges([(6, 4), (5, 4), (4, 3), (3, 2), (2, 1), (0, 1), (1, 7)])
    ctx = PrecisionContext(50)
    s, c = ctx.scalar(1), ctx.scalar(4)
    assert _interval_inertia(tree, s, c) is None
    monkeypatch.setattr(diagonalize, "_EXACT_BITS", 8)
    with pytest.raises(PrecisionError):
        count_eigenvalues(tree, s, c)


def test_float_rung_decides_a_random_point_on_a_large_tree():
    rng = random.Random(11)
    n = 300
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    tree = Tree.from_edges(edges)
    ctx = PrecisionContext(50)
    s = ctx.scalar("%.12f" % rng.uniform(0.2, 1.4))
    c = ctx.scalar("%.20f" % rng.uniform(0.3, 2.5))
    pos = _float_pair(tree, s, c)
    assert pos is not None
    assert count_eigenvalues(tree, s, c) == (pos, n - pos, 0)
    assert count_eigenvalues(tree, s, c) == diagonalize_tree(tree, s, -c).inertia
