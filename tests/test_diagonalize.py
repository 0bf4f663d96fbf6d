"""Inertia counting against a dense eigensolver, plus the fast paths."""

import random

import pytest
from mpmath.libmp import from_man_exp, mpf_mul, round_nearest

from deflap.diagonalize import (
    _fold,
    _pivots,
    _radius_probe,
    approximate_radius,
    count_eigenvalues,
    diagonalize_tree,
    gershgorin_cap,
)
from deflap.limits import s_star
from deflap.scalar import BracketingError, DomainError, PrecisionContext, Scalar, _lift, find_root, halvings
from deflap.trees import (
    Caterpillar,
    Tree,
    caterpillar_to_tree,
    dense_deformed_laplacian,
    free_trees,
)

from test_tree_kernel import _reference_probe_at

CTX = PrecisionContext(50)


def _oracle_probes(eigs):
    """Probe points safely away from every eigenvalue, with expected counts."""
    probes = [(eigs[0] - 1, (len(eigs), 0, 0)), (eigs[-1] + 1, (0, len(eigs), 0))]
    for lo, hi in zip(eigs, eigs[1:]):
        if hi - lo < CTX.power_of_ten(-20):
            continue
        mid = (lo + hi).halved()
        above = sum(1 for e in eigs if e > mid)
        probes.append((mid, (above, len(eigs) - above, 0)))
    return probes


@pytest.mark.parametrize("s_text", ["0.9", "-1.5"])
def test_counts_match_dense_oracle_small_trees(s_text):
    s = CTX.scalar(s_text)
    for n in range(1, 7):
        for tree in free_trees(n):
            eigs = dense_deformed_laplacian(tree, s).eigenvalues(CTX)
            for c, expected in _oracle_probes(eigs):
                assert count_eigenvalues(tree, s, c) == expected, (n, s_text)


def test_counts_total_and_signature():
    t = Tree.from_edges([(0, 1), (1, 2), (1, 3), (3, 4)])
    s = CTX.scalar("0.7")
    pos, neg, zero = count_eigenvalues(t, s, CTX.scalar("1.2"))
    assert pos + neg + zero == t.n


def test_s_zero_gives_identity_matrix():
    t = Tree.from_edges([(0, 1), (0, 2)])
    zero = CTX.scalar(0)
    assert count_eigenvalues(t, zero, CTX.scalar("0.5")) == (3, 0, 0)
    assert count_eigenvalues(t, zero, CTX.scalar(2)) == (0, 3, 0)
    assert count_eigenvalues(t, zero, CTX.scalar(1)) == (0, 0, 3)


def test_bipartite_sign_symmetry():
    # trees are bipartite, so the spectrum is invariant under s -> -s
    s = CTX.scalar("0.8")
    c_grid = [CTX.scalar(x) for x in ("0.3", "1.1", "2.7")]
    for n in range(2, 7):
        for tree in free_trees(n):
            for c in c_grid:
                assert count_eigenvalues(tree, s, c) == count_eigenvalues(tree, -s, c)


def test_unit_s_has_zero_eigenvalue():
    for edges in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (0, 3)]):
        t = Tree.from_edges(edges)
        for s in (CTX.scalar(1), CTX.scalar(-1)):
            assert count_eigenvalues(t, s, CTX.scalar(0))[2] == 1


def test_diagonalize_tree_outputs():
    t = Tree.from_edges([(0, 1), (0, 2)])
    out = diagonalize_tree(t, CTX.scalar("0.5"), CTX.scalar(0))
    assert len(out.outputs) == t.n
    assert sum(out.inertia) == t.n


def test_backbone_matches_tree_sweep():
    s = CTX.scalar("0.7")
    c = CTX.scalar("1.9")
    cat = Caterpillar([2, 0, 3])
    tree = caterpillar_to_tree(cat)
    s2 = (s * s).raw()
    outs = [Scalar(from_man_exp(b, -g), CTX) for g in (CTX.prec + 64,)
            for b, _ in _pivots(_fold(cat), _lift(s2, -g), _lift(c.raw(), -g), CTX.prec, False, g)]
    assert len(outs) == cat.k
    # backbone negativity pattern pins the same inertia as the full sweep
    neg_backbone = sum(1 for b in outs if b.sign() < 0)
    leaf_pivot_sign = (1 - c).sign()
    leaves = cat.vertex_count - cat.k
    neg_total = neg_backbone + (leaves if leaf_pivot_sign < 0 else 0)
    assert neg_total == count_eigenvalues(tree, s, c)[1]


def test_gershgorin_cap_is_the_largest_row():
    ctx = PrecisionContext(30)
    for s_text in ("-1.5", "-0.3", "0.7", "1", "2.5"):
        s = ctx.scalar(s_text)
        for n in range(2, 9):
            for tree in free_trees(n):
                rows = [1 + s * s * (d - 1) + abs(s) * d for d in tree.degree]
                assert gershgorin_cap(s, tree.max_degree()).raw() == (max(rows) + 1).raw()


def test_radius_fast_path_agrees_with_tree_sweep():
    # a caterpillar probes bit for bit as its tree, so every bisection
    # decision is the same and the brackets match exactly, also at the
    # default target, where rounding decides the last halvings
    s = CTX.scalar("0.62")
    lo, hi = CTX.scalar(0), CTX.scalar(9)
    for counts in ([0, 0], [2, 0, 3], [5, 1, 4, 2], [1, 1, 1, 1, 1, 1]):
        cat = Caterpillar(counts)
        assert cat.vertex_count <= 30
        tree = caterpillar_to_tree(cat)
        est_cat = approximate_radius(cat, s, lo, hi, target_digits=18)
        assert _bracket(est_cat) == _bracket(approximate_radius(tree, s, lo, hi, target_digits=18))
        assert est_cat.width() <= CTX.power_of_ten(-18) * 9
        est_cat = approximate_radius(cat, s, lo, hi)
        assert _bracket(est_cat) == _bracket(approximate_radius(tree, s, lo, hi))


def _raw_outcome(result):
    below, early, step = result
    return below, early, None if step is None else step.raw()


def _probe_raw(fold, s, c, slope):
    s2 = mpf_mul(s.raw(), s.raw(), s.ctx.prec, round_nearest)
    return _raw_outcome(_radius_probe(fold, s2, s.ctx)(c, slope))


def _bracket(est):
    return est.low.raw(), est.high.raw(), est.iterations


def _assert_probes_match_reference(fold, s, points):
    for c in points:
        for slope in (False, True):
            want = _raw_outcome(_reference_probe_at(fold, s * s, c, slope))
            assert _probe_raw(fold, s, c, slope) == want, c


def _random_caterpillars(rng, count):
    # k = 2..8, often with a leafless v_1 and with leafless inner nodes
    cats = [Caterpillar([0, 0]), Caterpillar([0, 3]), Caterpillar([4, 0])]
    for _ in range(count):
        cats.append(Caterpillar([rng.choice((0, 0, 1, rng.randrange(0, 9)))
                                 for _ in range(rng.randrange(2, 9))]))
    return cats


def test_caterpillar_fold_is_the_fold_of_its_tree():
    rng = random.Random(27)
    cats = _random_caterpillars(rng, 600)
    assert sum(cat.counts[0] == 0 for cat in cats) > 100
    for cat in cats:
        assert _fold(cat) == _fold(caterpillar_to_tree(cat)), cat.counts


def test_tree_and_caterpillar_folds_share_one_kernel():
    # a caterpillar folds as the tree it expands to: one node per backbone
    # vertex with leaves or a backbone child, m its degree; the one kernel
    # then probes it bit for bit as the Scalar loop of that fold, and its
    # bracket is the tree's at the target the search promises, digits - 5,
    # and at the default one
    rng = random.Random(24)
    for digits in (20, 120):
        ctx = PrecisionContext(digits)
        for cat in _random_caterpillars(rng, 8):
            tree = caterpillar_to_tree(cat)
            fold = _fold(cat)
            assert fold == _fold(tree)
            backbone = [v for v in range(sum(cat.counts), tree.n) if tree.children[v] or v == tree.root]
            assert [m for m, _, _ in fold[0]] == [tree.degree[v] for v in backbone]
            assert fold[1] == tree.n - len(backbone)
            s = ctx.scalar("%.6g" % rng.uniform(-2, 2))
            hi = gershgorin_cap(s, tree.max_degree())
            for target in (digits - 5, None):
                est = approximate_radius(cat, s, ctx.zero(), hi, target_digits=target)
                assert _bracket(est) == _bracket(approximate_radius(
                    tree, s, ctx.zero(), hi, target_digits=target))
            pad = ctx.power_of_ten(8 - digits)
            points = (ctx.scalar("0.5"), ctx.scalar(1), est.low, est.high, est.low - pad, est.high + pad, hi)
            _assert_probes_match_reference(fold, s, points)


def test_one_vertex_probe_has_no_leaf_pivot():
    # K1 has no leaves, so nothing checks 1 - c or forms delta: at c = 1
    # its one pivot is 1 - s^2 - c = -s^2
    k1 = Tree.single_vertex()
    s = CTX.scalar("0.5")
    assert _fold(k1) == ([(0, 0, [])], 0)
    assert _probe_raw(_fold(k1), s, CTX.scalar(1), False) == (True, False, None)
    assert _probe_raw(_fold(k1), s, CTX.scalar("0.75"), False) == (False, False, None)
    est = approximate_radius(k1, s, 0, 2)
    assert est.low <= CTX.scalar("0.75") <= est.high


def test_caterpillar_fold_makes_a_leafless_first_node_a_leaf():
    # v_1 with no leaves is a childless child of v_2, so it folds as one of
    # v_2's leaves, as in the tree the caterpillar expands to; the probes
    # agree with the Scalar loop of that fold bit for bit
    ctx = PrecisionContext(30)
    s = ctx.scalar("0.8")
    points = [ctx.scalar(c_text) for c_text in ("0.5", "1", "1.7", "2.9", "4.1")]
    for counts in ([0, 2, 1], [0, 0, 3, 0], [0, 4], [0, 0]):
        cat = Caterpillar(counts)
        fold = _fold(cat)
        assert fold == _fold(caterpillar_to_tree(cat))
        assert len(fold[0]) == cat.k - 1
        assert fold[0][0] == (counts[1] + 1 + (cat.k > 2), counts[1] + 1, [])
        _assert_probes_match_reference(fold, s, points)


# (counts, s, digits): searches whose default-target bracket left plain
# bisection's while a caterpillar's probe had a leaf form of its own, with
# each leaf's s^2 in delta = s^2 c/(c - 1) and the root less s^2 last
_BISECTION_CASES = [([9, 0], "1.1", 50), ([1, 36, 1], "2.5", 20), ([1, 26, 1], "1.5", 50)]


@pytest.mark.parametrize("counts, s_text, digits", _BISECTION_CASES)
def test_caterpillar_radius_is_plain_bisection_of_its_probe(counts, s_text, digits):
    ctx = PrecisionContext(digits)
    s = ctx.scalar(s_text)
    cat = Caterpillar(counts)
    lo, hi = ctx.zero(), gershgorin_cap(s, max(counts) + 2)
    s2 = mpf_mul(s.raw(), s.raw(), ctx.prec, round_nearest)
    probe = _radius_probe(_fold(cat), s2, ctx)

    def side(c, slope):
        below, _, step = probe(c, slope)
        return (1 if below else -1), step

    est = approximate_radius(cat, s, lo, hi)
    plain = find_root(side, lo, hi, halvings(hi - lo, digits), hi, None)
    assert _bracket(est)[:2] == (plain.low.raw(), plain.high.raw())
    assert _bracket(est) == _bracket(approximate_radius(caterpillar_to_tree(cat), s, lo, hi))


def test_radius_known_values():
    # P2: eigenvalues 1 -+ s
    p2 = Tree.from_edges([(0, 1)])
    est = approximate_radius(p2, CTX.scalar("0.5"), CTX.scalar(0), CTX.scalar(4), target_digits=20)
    assert abs(est.value() - CTX.scalar("1.5")) < CTX.power_of_ten(-19)
    # K1: M = [1 - s^2]
    k1 = Tree.single_vertex()
    est = approximate_radius(k1, CTX.scalar(2), CTX.scalar(-5), CTX.scalar(0), target_digits=20)
    assert abs(est.value() - CTX.scalar(-3)) < CTX.power_of_ten(-18)


def test_radius_example_literal_coupling():
    # truncated 7-digit coupling: a genuinely different radius past 1e-6
    cat = Caterpillar([31, 23, 9, 17, 23])
    s = CTX.scalar("0.3359489")
    est = approximate_radius(cat, s, CTX.scalar(1), CTX.scalar("5.4"), target_digits=12)
    assert est.value().to_decimal_string(12) == "5.39999873155"


def test_radius_example_full_coupling():
    cat = Caterpillar([31, 23, 9, 17, 23])
    s = s_star(CTX.scalar("5.4")).halved()
    est = approximate_radius(cat, s, CTX.scalar(1), CTX.scalar("5.4"), target_digits=12)
    assert est.value().to_decimal_string(12) == "5.39999978119"


def test_radius_rejects_bad_bracket():
    p2 = Tree.from_edges([(0, 1)])
    with pytest.raises(BracketingError):
        approximate_radius(p2, CTX.scalar("0.5"), CTX.scalar(2), CTX.scalar(4))
    with pytest.raises(BracketingError):
        approximate_radius(p2, CTX.scalar("0.5"), CTX.scalar(0), CTX.scalar(1))


def test_radius_rejects_span_below_float_range():
    # rho(P2) = 1.5 at s = 0.5; the iteration count derives from the float
    # of hi - lo, which underflows to 0 here, so none can be derived
    ctx = PrecisionContext(420)
    lo = ctx.scalar("1.5")
    with pytest.raises(DomainError):
        approximate_radius(Tree.from_edges([(0, 1)]), ctx.scalar("0.5"), lo, lo + ctx.power_of_ten(-400))
