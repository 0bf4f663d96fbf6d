"""The raw-tuple tree sweep against the Scalar sweeps it replaces.

``diagonalize._sweep`` promises the pivots of the two Scalar loops below,
bit for bit: ``_reference_diagonalize_tree`` and
``_reference_tree_all_negative`` are the sweeps that ``diagonalize_tree``
and the radius probe ran before the kernel. Each test runs both on the
same inputs and asserts identical raw values, not merely close ones.

The grid is every free tree with n <= 9; s over the `deflap verify` grid
and 0; c over the points below; 20 and 50 digits. c = 1 zeroes every
leaf pivot, so it runs the zero-pivot surgery. Random trees of 50, 300
and 2000 vertices join the grid at 50 digits on three s values. Radii,
whose probes fall next to eigenvalues, use the free trees with n >= 2 at
20 digits and the 50-vertex random tree at 20 and 50 digits.
"""

import heapq
import random

import pytest

from deflap import diagonalize
from deflap.diagonalize import (
    DiagOutcome,
    _newton_step,
    _tree_all_negative,
    approximate_radius,
    count_eigenvalues,
    diagonalize_tree,
)
from deflap.scalar import PrecisionContext
from deflap.trees import Tree, free_trees

S_VALUES = ("-1.5", "-1", "-0.9", "-0.3", "0.3", "0.9", "1", "1.5", "0")
C_VALUES = ("-3", "-1", "0", "0.5", "1", "1.25", "2", "3.5", "7", "0.999999")
DIGITS = (20, 50)


def _random_tree(rng, n):
    # uniform random labelled tree, decoded from a random Pruefer sequence
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree.from_edges(edges)


TREES = [tree for n in range(1, 10) for tree in free_trees(n)]
_rng = random.Random(20111)
RANDOM_TREES = [_random_tree(_rng, n) for n in (50, 300, 2000)]


def _grid(digits):
    """(tree, s, c) over the grid, the random trees included."""
    ctx = PrecisionContext(digits)
    for s_text in S_VALUES:
        s = ctx.scalar(s_text)
        trees = TREES
        if digits == 50 and s_text in ("-0.9", "0.3", "1"):
            trees = TREES + RANDOM_TREES
        for c_text in C_VALUES:
            c = ctx.scalar(c_text)
            for tree in trees:
                yield tree, s, c


# -- reference sweeps -------------------------------------------------------


def _reference_diagonalize_tree(tree, s, x):
    ctx = s.ctx
    x = ctx.scalar(x)
    s2 = s * s
    d = [ctx.scalar(1) + s2 * (tree.degree[v] - 1) + x for v in range(tree.n)]
    if not s2.is_zero:
        cut = [False] * tree.n
        for v in tree.postorder:
            kids = [c for c in tree.children[v] if not cut[c]]
            if not kids:
                continue
            zero_kid = None
            for c in kids:
                if d[c].is_zero:
                    zero_kid = c
                    break
            if zero_kid is None:
                acc = ctx.zero()
                for c in kids:
                    acc = acc + 1 / d[c]
                d[v] = d[v] - s2 * acc
            else:
                d[v] = -s2.halved()
                d[zero_kid] = ctx.scalar(2)
                cut[v] = True
    pos = neg = zero = 0
    for val in d:
        sg = val.sign()
        if sg > 0:
            pos += 1
        elif sg < 0:
            neg += 1
        else:
            zero += 1
    return DiagOutcome(d, (pos, neg, zero))


def _reference_tree_all_negative(tree, s, c, slope):
    ctx = s.ctx
    x = -c
    s2 = s * s
    if s2.is_zero:
        sg = (ctx.scalar(1) + x).sign()
        return sg < 0, False, None
    d = [ctx.scalar(1) + s2 * (tree.degree[v] - 1) + x for v in range(tree.n)]
    dd = [None] * tree.n
    total = ctx.zero()
    last = tree.postorder[-1]
    for v in tree.postorder:
        kids = tree.children[v]
        if kids:
            acc = ctx.zero()
            for ch in kids:
                acc = acc + 1 / d[ch]
            d[v] = d[v] - s2 * acc
        if d[v].sign() >= 0:
            return False, v != last, None
        if slope:
            dacc = ctx.zero()
            for ch in kids:
                dacc = dacc + dd[ch] / (d[ch] * d[ch])
            dd[v] = s2 * dacc - 1
            total = total + dd[v] / d[v]
    if not slope:
        return True, False, None
    return True, False, _newton_step(total)


def _raw_probe(result):
    below, early, step = result
    return below, early, None if step is None else step.raw()


# -- equivalence ------------------------------------------------------------


@pytest.mark.parametrize("digits", DIGITS)
def test_diagonalize_tree_matches_reference(digits):
    surgeries = 0
    for tree, s, c in _grid(digits):
        out = diagonalize_tree(tree, s, -c)
        ref = _reference_diagonalize_tree(tree, s, -c)
        assert [v.raw() for v in out.outputs] == [v.raw() for v in ref.outputs]
        assert out.inertia == ref.inertia
        surgeries += any(v == 2 for v in ref.outputs)
    assert surgeries > 0


def test_count_eigenvalues_runs_the_sweep():
    ctx = PrecisionContext(50)
    s = ctx.scalar("0.9")
    tree = RANDOM_TREES[1]
    for c_text in C_VALUES:
        c = ctx.scalar(c_text)
        assert count_eigenvalues(tree, s, c) == _reference_diagonalize_tree(tree, s, -c).inertia


@pytest.mark.parametrize("digits", DIGITS)
def test_probe_matches_reference(digits):
    outcomes = set()
    for tree, s, c in _grid(digits):
        for slope in (False, True):
            got = _raw_probe(_tree_all_negative(tree, s, c, slope))
            assert got == _raw_probe(_reference_tree_all_negative(tree, s, c, slope))
            outcomes.add((got[0], got[1], got[2] is not None))
    # every verdict occurs: a late and an early stop, all negative with
    # and without a Newton step
    assert outcomes >= {(False, False, False), (False, True, False), (True, False, True)}


@pytest.mark.parametrize("digits", DIGITS)
def test_radius_matches_reference_probe(digits, monkeypatch):
    ctx = PrecisionContext(digits)
    trees = RANDOM_TREES[:1]
    if digits == 20:
        trees = TREES[1:] + trees
    cases = []
    for s_text in S_VALUES[:-1]:
        s = ctx.scalar(s_text)
        for tree in trees:
            d = max(tree.degree)
            cap = 1 + s * s * (d - 1) + abs(s) * d + 1
            cases.append((tree, s, ctx.zero(), cap))

    def brackets():
        out = []
        for tree, s, lo, hi in cases:
            est = approximate_radius(tree, s, lo, hi, target_digits=digits - 5)
            out.append((est.low.raw(), est.high.raw(), est.iterations, est.probes, est.early_breaks))
        return out

    got = brackets()
    monkeypatch.setattr(diagonalize, "_tree_all_negative", _reference_tree_all_negative)
    assert got == brackets()
