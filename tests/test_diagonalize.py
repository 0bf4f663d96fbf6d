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
from deflap.scalar import BracketingError, DomainError, PrecisionContext, Scalar, _lift
from deflap.trees import (
    Caterpillar,
    Tree,
    caterpillar_to_tree,
    dense_deformed_laplacian,
    free_trees,
)

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
    # bisection decisions are identical, so the estimates match exactly
    s = CTX.scalar("0.62")
    lo, hi = CTX.scalar(0), CTX.scalar(9)
    for counts in ([0, 0], [2, 0, 3], [5, 1, 4, 2], [1, 1, 1, 1, 1, 1]):
        cat = Caterpillar(counts)
        assert cat.vertex_count <= 30
        tree = caterpillar_to_tree(cat)
        est_cat = approximate_radius(cat, s, lo, hi, target_digits=18)
        est_tree = approximate_radius(tree, s, lo, hi, target_digits=18)
        assert est_cat.value() == est_tree.value()
        assert est_cat.width() <= CTX.power_of_ten(-18) * 9


def _probe_raw(fold, s, c, slope):
    s2 = mpf_mul(s.raw(), s.raw(), s.ctx.prec, round_nearest)
    below, early, step = _radius_probe(fold, s2, s.ctx)(c, slope)
    return below, early, None if step is None else step.raw()


def _bracket(est):
    return est.low.raw(), est.high.raw(), est.iterations


def test_tree_and_caterpillar_folds_share_one_kernel():
    # a caterpillar with leaves at v_1 expands to a tree whose fold has the
    # caterpillar's nodes; only where each leaf's s^2 goes differs (_fold).
    # In the caterpillar's lifted form the tree probes bit for bit as the
    # caterpillar; in its own they agree off rho and on brackets at the
    # target the search promises, digits - 5
    rng = random.Random(24)
    for digits in (20, 120):
        ctx = PrecisionContext(digits)
        for _ in range(8):
            counts = [rng.randrange(1, 6)] + [rng.randrange(0, 6) for _ in range(rng.randrange(1, 8))]
            cat = Caterpillar(counts)
            tree = caterpillar_to_tree(cat)
            folded, own = _fold(cat), _fold(tree)
            assert [(r, list(inner)) for _, r, inner in folded[0]] == [
                (r, inner) for _, r, inner in own[0]]
            backbone = range(sum(counts), tree.n)
            assert [m for m, _, _ in own[0]] == [tree.degree[v] for v in backbone]
            lifted = [(len(inner) + 1, r, inner) for _, r, inner in own[0]], own[1], True
            s = ctx.scalar("%.6g" % rng.uniform(-2, 2))
            hi = gershgorin_cap(s, tree.max_degree())
            est = approximate_radius(cat, s, ctx.zero(), hi, target_digits=digits - 5)
            assert _bracket(est) == _bracket(approximate_radius(
                tree, s, ctx.zero(), hi, target_digits=digits - 5))
            pad = ctx.power_of_ten(8 - digits)
            for c in (ctx.scalar("0.5"), ctx.scalar(1), est.low - pad, est.high + pad, hi):
                for slope in (False, True):
                    got = _probe_raw(lifted, s, c, slope)
                    assert got == _probe_raw(folded, s, c, slope)
                    assert _probe_raw(own, s, c, slope)[0] == got[0]


def test_one_vertex_probe_has_no_leaf_pivot():
    # K1 has no leaves, so nothing checks 1 - c or forms delta: at c = 1
    # its one pivot is 1 - s^2 - c = -s^2
    k1 = Tree.single_vertex()
    s = CTX.scalar("0.5")
    assert _fold(k1) == ([(0, 0, [])], 0, False)
    assert _probe_raw(_fold(k1), s, CTX.scalar(1), False) == (True, False, None)
    assert _probe_raw(_fold(k1), s, CTX.scalar("0.75"), False) == (False, False, None)
    est = approximate_radius(k1, s, 0, 2)
    assert est.low <= CTX.scalar("0.75") <= est.high


def test_caterpillar_fold_keeps_a_leafless_first_node():
    # v_1 with no leaves stays a node of the caterpillar's fold, where the
    # tree it expands to folds it as a leaf of v_2; the probes still agree
    # with the frozen Scalar backbone loop bit for bit
    from test_root_finder import _frozen_caterpillar_all_negative

    ctx = PrecisionContext(30)
    s = ctx.scalar("0.8")
    for counts in ([0, 2, 1], [0, 0, 3, 0], [0, 4]):
        cat = Caterpillar(counts)
        fold = _fold(cat)
        assert fold[0][0] == (1, 0, ()) and len(fold[0]) == cat.k
        assert len(_fold(caterpillar_to_tree(cat))[0]) == cat.k - 1
        for c_text in ("0.5", "1", "1.7", "2.9", "4.1"):
            c = ctx.scalar(c_text)
            for slope in (False, True):
                below, early, step = _frozen_caterpillar_all_negative(cat, s, c, slope)
                want = below, early, None if step is None else step.raw()
                assert _probe_raw(fold, s, c, slope) == want


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
