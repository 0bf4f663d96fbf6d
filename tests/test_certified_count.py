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
    _Ladder,
    count_eigenvalues,
    diagonalize_tree,
    gershgorin_cap,
)
from deflap.scalar import PrecisionContext, PrecisionError, Scalar
from deflap.trees import Tree, dense_adjacency, dense_deformed_laplacian, free_trees
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
        assert _Ladder(tree, s).exact(c) == want
        assert _Ladder(tree, s).interval(c) in (None, want)


def test_rungs_agree_with_the_oracle_off_the_spectrum():
    ctx = PrecisionContext(30)
    rng = random.Random(3)
    decided = 0
    for n in range(2, 8):
        for tree in free_trees(n):
            s = ctx.scalar("%.6f" % rng.uniform(-2, 2))
            c = ctx.scalar("%.6f" % rng.uniform(-1, 8))
            want = _oracle(_char_poly(tree, s), _exact(c))
            assert _Ladder(tree, s).exact(c) == want
            assert _Ladder(tree, s).interval(c) == want
            pos = _Ladder(tree, s).pair(c)
            if pos is not None:
                decided += 1
                assert (pos, tree.n - pos, 0) == want
    assert decided > 0


def _broom(n):
    # a path whose end vertex carries two sibling leaves: eigenvalue 1 at every s
    return Tree.from_edges([(v, v + 1) for v in range(n - 2)] + [(n - 3, n - 1)])


def test_interval_rung_counts_an_exact_eigenvalue_on_a_long_broom(monkeypatch):
    # the first half shows the count agrees with the exact rung's; the
    # 1,000-vertex half, with the exact rung patched out, shows the interval
    # rung decides alone: it sees the two leaves' pivots as exact zeros and
    # sweeps the path in linear time
    ctx = PrecisionContext(50)
    s, c = ctx.scalar("0.3"), ctx.scalar(1)
    broom = _broom(200)
    assert count_eigenvalues(broom, s, c) == _Ladder(broom, s).exact(c) == (109, 90, 1)

    def refused(*args):
        raise AssertionError("exact rung reached")

    monkeypatch.setattr(diagonalize._Ladder, "exact", refused)
    start = time.perf_counter()
    assert count_eigenvalues(_broom(1000), s, c) == (547, 452, 1)
    assert time.perf_counter() - start < 1.0


def test_exact_rung_raises_past_its_budget(monkeypatch):
    # c = 4 is an eigenvalue whose zero pivot comes out of rounded
    # divisions, so only the exact rung decides it
    tree = Tree.from_edges([(6, 4), (5, 4), (4, 3), (3, 2), (2, 1), (0, 1), (1, 7)])
    ctx = PrecisionContext(50)
    s, c = ctx.scalar(1), ctx.scalar(4)
    assert _Ladder(tree, s).interval(c) is None
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
    pos = _Ladder(tree, s).pair(c)
    assert pos is not None
    assert count_eigenvalues(tree, s, c) == (pos, n - pos, 0)
    assert count_eigenvalues(tree, s, c) == diagonalize_tree(tree, s, -c).inertia


def test_adjacency_rungs_agree_with_the_dense_spectrum(monkeypatch):
    # the proved triple of A - tI against the dense eigensolver at the
    # integer eigenvalues 0..3 (2 on K_{1,4}, 3 on K_{1,9}) and at random
    # decimals, which no eigenvalue of A, an algebraic integer, equals.
    # The float rung decides every point off the spectrum and none on it
    ctx = PrecisionContext(30)
    rng = random.Random(5)
    tol = ctx.power_of_ten(-20)
    trees = [tree for n in range(2, 10) for tree in free_trees(n)]
    trees += [Tree.from_edges([(0, v) for v in range(1, k + 1)]) for k in (4, 9)]
    interval = diagonalize._Ladder.interval
    later = []

    def recorded(*args):
        later.append(args)
        return interval(*args)

    monkeypatch.setattr(diagonalize._Ladder, "interval", recorded)
    hit = set()
    first = 0
    for tree in trees:
        spectrum = dense_adjacency(tree, ctx).eigenvalues(ctx)
        points = [ctx.scalar(t) for t in range(4)]
        points += [ctx.scalar("%.6f" % rng.uniform(-3.5, 3.5)) for _ in range(3)]
        for t in points:
            above = sum(1 for lam in spectrum if lam > t + tol)
            at = sum(1 for lam in spectrum if abs(lam - t) <= tol)
            del later[:]
            assert _Ladder(tree).prove(t) == (above, tree.n - above - at, at), (tree.to_text(), t)
            assert bool(later) == bool(at)
            first += not later
            if at:
                hit.add(t.to_float())
    assert hit == {0, 1, 2, 3}
    assert first == 549


def test_adjacency_float_rung_decides_off_the_spectrum(monkeypatch):
    # with the interval rung refused, points off the spectrum still get
    # their triple from the float pair, and an eigenvalue falls through
    ctx = PrecisionContext(50)

    def refused(*args):
        raise AssertionError("interval rung reached")

    monkeypatch.setattr(diagonalize._Ladder, "interval", refused)
    star = Tree.from_edges([(0, v) for v in range(1, 5)])
    path = Tree.from_edges([(0, 1), (1, 2)])
    # K_{1,4}: -2, 0, 0, 0, 2; P3: -sqrt 2, 0, sqrt 2
    assert _Ladder(star).prove(ctx.scalar("1.999999")) == (1, 4, 0)
    assert _Ladder(star).prove(ctx.scalar("-0.5")) == (4, 1, 0)
    assert _Ladder(path).prove(ctx.scalar("1.41421356")) == (1, 2, 0)
    assert _Ladder(path).prove(ctx.scalar("1.41421357")) == (0, 3, 0)
    for tree, t in ((star, 2), (star, 0), (path, 0)):
        with pytest.raises(AssertionError, match="interval rung"):
            _Ladder(tree).prove(ctx.scalar(t))


def test_one_sided_sweeps_of_a_deleted_leaf_agree_with_its_count():
    # every True that one float sweep of T - v on T's arrays gives, either
    # way, against the proved count of T.delete_leaf(v). K1,3 less a leaf
    # has the degree 2 that K1,3 lacks, and K2 less a leaf the degree 0;
    # every free tree here is rooted at a leaf, so deleting the root, whose
    # child then ends the order, is covered at every n
    ctx = PrecisionContext(20)
    trees = [tree for n in range(2, 10) for tree in free_trees(n)]
    trees += [Tree.from_edges([(0, 1), (0, 2), (0, 3)], root=0), Tree.from_edges([(0, 1), (1, 2), (2, 3)], root=1)]
    assert {tuple(sorted(t.degree)) for t in trees} >= {(1, 1), (1, 1, 1, 3)}
    assert all(t.degree[t.root] == 1 for t in trees[:-2])
    answers = wrong = 0
    for s_text in ("0.3", "-0.9", "1", "-1", "1.5", "3"):
        s = ctx.scalar(s_text)
        for tree in trees:
            cap = gershgorin_cap(s, tree.max_degree())
            points = [ctx.zero(), ctx.scalar(1)] + [cap * k / 12 for k in range(-1, 13)]
            for v in tree.leaves():
                less = _Ladder(tree, s, v)
                smaller = tree.delete_leaf(v)
                for c in points:
                    up = less.side(c, True)
                    down = less.side(c, False)
                    if not (up or down):
                        continue
                    pos, _, zero = count_eigenvalues(smaller, s, c)
                    answers += up + down
                    wrong += (up and pos == 0) + (down and (pos, zero) != (0, 0))
    assert wrong == 0
    assert answers == 39736


def test_upper_rungs_of_a_deleted_leaf_agree_with_its_count():
    # the interval and exact rungs of T - v, swept on T's arrays with v
    # left out of its parent's children, against the proved count of
    # T.delete_leaf(v), at the points the float pair leaves undecided: c = 1
    # (every leaf pivot of T - v is zero), c = 0 at |s| = 1, and each
    # eigenvalue of T - v rounded to the context. The free trees are rooted
    # at a leaf, so v = root is covered at every n; K2 less a leaf is one
    # vertex of degree 0. The random trees are rooted at an inner vertex;
    # their children lists follow the rerooted tree's edges, listed in
    # vertex order, and the interval rung's tally rests on that order
    ctx = PrecisionContext(20)
    rng = random.Random(7)
    trees = [tree for n in range(2, 9) for tree in free_trees(n)]
    for n in (11, 14):
        tree = _random_tree(rng, n)
        trees.append(tree.rerooted(tree.degree.index(tree.max_degree())))
    assert trees[0].n == 2 and all(t.degree[t.root] == 1 for t in trees[:-2])
    assert all(t.degree[t.root] > 1 for t in trees[-2:])
    points = interval = 0
    for s_text in ("1", "-0.6"):
        s = ctx.scalar(s_text)
        for tree in trees:
            for v in tree.leaves():
                less = _Ladder(tree, s, v)
                smaller = tree.delete_leaf(v)
                cs = [ctx.scalar(1)] + dense_deformed_laplacian(smaller, s).eigenvalues(ctx)
                if abs(s) == 1:
                    cs.append(ctx.zero())
                for c in cs:
                    if less.pair(c) is not None:
                        continue
                    want = count_eigenvalues(smaller, s, c)
                    got = less.interval(c)
                    assert got in (None, want), (tree.to_text(), v, s, c)
                    assert less.exact(c) == want, (tree.to_text(), v, s, c)
                    points += 1
                    interval += got is not None
    assert (points, interval) == (3028, 1572)


def _peeled_trees(rng):
    """from_edges trees with shuffled labels and edges, roots at random:
    some at a leaf, some inner, K2 and K3 included."""
    trees = []
    for n in (2, 3, 4, 7, 12, 30, 80, 200):
        for _ in range(2 if n < 200 else 1):
            base = _random_tree(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in base.edges()]
            rng.shuffle(edges)
            tree = Tree.from_edges(edges)
            leaves = tree.leaves()
            root = rng.choice(leaves) if rng.random() < 0.5 else rng.randrange(n)
            trees.append(Tree.from_edges(edges, root=tree.labels[root]))
    return trees


def _points(ctx, eigs, rng, exact):
    """c at exact eigenvalues, at eigenvalues rounded to the context, a
    hair off them, and halfway between neighbours."""
    eigs = sorted(eigs)
    picks = sorted({0, len(eigs) - 1} | {rng.randrange(len(eigs)) for _ in range(2)})
    out = [ctx.scalar(x) for x in exact]
    hair = ctx.scalar("1e-9")
    for i in picks:
        lam = float(eigs[i])
        out += [ctx.scalar(lam), ctx.scalar(lam) + hair, ctx.scalar(lam) - hair]
        if i + 1 < len(eigs):
            out.append(ctx.scalar((lam + float(eigs[i + 1])) / 2))
    return out


def test_folded_float_rung_agrees_with_the_exact_rung():
    # rung 1 sweeps the inner order and folds each vertex's pendant leaves
    # into one term; wherever its pair decides, the exact rung's triple is
    # the same, for T, for T less a leaf (the root when it is one) and for
    # A - tI, at exact eigenvalues (c = 1 beside sibling leaves, c = 0 at
    # |s| = 1), next to eigenvalues and far from them
    np = pytest.importorskip("numpy")
    rng = random.Random(2027)
    ctx = PrecisionContext(20)
    trees = _peeled_trees(rng)
    assert any(t.degree[t.root] == 1 for t in trees) and any(t.degree[t.root] > 1 for t in trees)
    decided = undecided = 0

    def check(ladder, points):
        nonlocal decided, undecided
        size = ladder.arrays[-1]
        for c in points:
            pos = ladder.pair(c)
            if pos is None:
                undecided += 1
                continue
            decided += 1
            assert (pos, size - pos, 0) == ladder.exact(c), (c, ladder.s)

    for tree in trees:
        n = tree.n
        adj = np.zeros((n, n))
        for u, v in tree.edges():
            adj[u, v] = adj[v, u] = 1.0
        zero = [0] if n % 2 or np.linalg.matrix_rank(adj) < n else []
        check(_Ladder(tree), _points(ctx, np.linalg.eigvalsh(adj), rng, zero))
        leaves = tree.leaves()
        less = set(rng.sample(leaves, min(2, len(leaves))))
        if tree.degree[tree.root] == 1:
            less.add(tree.root)
        for s_text in ("0", "0.3", "-0.3", "1", "-1", "1.5"):
            s = ctx.scalar(s_text)
            f = float(s_text)
            m = np.diag([1 + f * f * (d - 1) for d in tree.degree]) - f * adj
            exact = [1] + ([0] if abs(f) == 1 else [])
            check(_Ladder(tree, s), _points(ctx, np.linalg.eigvalsh(m), rng, exact))
            for v in sorted(less):
                keep = [w for w in range(n) if w != v]
                sub = np.diag([1 + f * f * (tree.degree[w] - 1 - (w == tree.neighbors(v)[0])) for w in keep])
                sub -= f * adj[np.ix_(keep, keep)]
                if n > 2:
                    check(_Ladder(tree, s, v), _points(ctx, np.linalg.eigvalsh(sub), rng, exact))
                else:
                    check(_Ladder(tree, s, v), [ctx.scalar(x) for x in (1 - f * f, 0, 1, 2)])
    assert decided > 2000 and undecided > 100, (decided, undecided)


def test_count_derives_no_children_when_the_float_rung_decides(monkeypatch):
    # a from_edges tree keeps no children lists and no postorder until a
    # rung that sweeps them runs: counts the float pair decides, of T and
    # of T less a leaf, derive neither; c = 1 beside sibling leaves, which
    # the interval rung decides, derives both
    derived = []
    for name in ("children", "postorder"):
        get = getattr(Tree, name).fget
        monkeypatch.setattr(Tree, name, property(lambda self, get=get, name=name: derived.append(name) or get(self)))
    ctx = PrecisionContext(30)
    rng = random.Random(5)
    edges = _random_tree(random.Random(3), 2000).edges()
    tree = Tree.from_edges(edges)
    derived.clear()
    s = ctx.scalar("0.7")
    leaf = next(v for v in range(tree.n) if tree.degree[v] == 1)
    for _ in range(6):
        c = ctx.scalar(rng.uniform(0.2, 3.0))
        assert _Ladder(tree, s).pair(c) is not None
        assert sum(count_eigenvalues(tree, s, c)) == tree.n
        _Ladder(tree, s, leaf).side(c, True)
    assert derived == []
    one = ctx.scalar(1)
    assert _Ladder(tree, s).pair(one) is None
    above, below, at = count_eigenvalues(tree, s, one)
    assert at > 0 and set(derived) == {"children", "postorder"}
