"""Inertia counting against a dense eigensolver, plus the fast paths."""

import pytest
from mpmath.libmp import from_man_exp

from deflap.diagonalize import (
    _backbone,
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
            for b, _ in _backbone(cat.counts, _lift(s2, -g), _lift(c.raw(), -g), CTX.prec, False, g)]
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
