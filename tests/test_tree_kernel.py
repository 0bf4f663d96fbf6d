"""The raw-tuple and integer tree sweeps against Scalar loops of the same
recurrences.

``diagonalize._surgery_sweep`` in rounded libmp arithmetic (behind
``diagonalize_tree``) promises the pivots of ``_reference_diagonalize_tree``,
the Scalar sweep ``diagonalize_tree`` ran before the kernel, bit for bit.
The radius probe, ``diagonalize._radius_probe`` over the leaf-folded
nodes of ``diagonalize._fold``, promises those of
``_reference_probe_at``, a Scalar loop of the folded recurrence. Each
test runs both on the same inputs and asserts identical raw values, not
merely close ones. The child-by-child Scalar loop the probe ran before
the fold checks its verdicts wherever c is not an eigenvalue.
The float Laguerre start of the tree radii is checked the same way,
against the radii it skips, which start their Newton steps from hi.

The grid is every free tree with n <= 9; s over the `deflap verify` grid
and 0; c over the points below; 20 and 50 digits. c = 1 zeroes every
leaf pivot, so it runs the zero-pivot surgery. Random trees of 50, 300
and 2000 vertices join the grid at 50 digits on three s values. Radii,
whose probes fall next to eigenvalues, use the free trees with n >= 2 at
20 digits and the 50-vertex random tree at 20 and 50 digits.
"""

import heapq
import math
import random
from collections import namedtuple

import pytest
from mpmath.libmp import mpf_mul, round_nearest

from deflap import diagonalize
from deflap.diagonalize import (
    _fold,
    _newton_step,
    _radius_probe,
    approximate_radius,
    count_eigenvalues,
    diagonalize_tree,
    gershgorin_cap,
)
from deflap.scalar import PrecisionContext, Scalar
from deflap.trees import DENSE_CAP, Tree, dense_deformed_laplacian, free_trees

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


# the reference sweep's outcome: Scalar pivots and their inertia
_Outcome = namedtuple("_Outcome", "outputs inertia")


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
    return _Outcome(d, (pos, neg, zero))


def _reference_tree_all_negative(tree, s, c, slope):
    return _reference_probe_at(_fold(tree), s * s, c, slope)


def _reference_tree_probe(fold, s2, ctx):
    # the reference behind _radius_probe's signature
    s2 = Scalar(s2, ctx)
    return lambda c, slope: _reference_probe_at(fold, s2, c, slope)


def _reference_probe_at(fold, s2, c, slope):
    # the folded recurrence on Scalars: each node starts at
    # 1 + s2 (m - 1) - c, less the sum of s2/d_w over its inner children,
    # plus r delta, delta = s2/(c - 1)
    ctx = s2.ctx
    nodes, leaves = fold
    last = len(nodes) - 1
    if leaves:
        if (1 - c).sign() >= 0:
            return False, True, None
        delta = s2 / (c - 1)
        ddelta = -s2 / ((c - 1) * (c - 1))
    d = []
    dd = []
    total = None
    for j, (m, r, inner) in enumerate(nodes):
        v = 1 + s2 * (m - 1) - c
        acc = dacc = None
        for w in inner:
            q = s2 / d[w]
            acc = q if acc is None else acc + q
            t = q * dd[w] / d[w]
            dacc = t if dacc is None else dacc + t
        if acc is not None:
            v = v - acc
        if r:
            v = v + delta * r
            dacc = ddelta * r if dacc is None else dacc + ddelta * r
        if v.sign() >= 0:
            return False, j < last, None
        dv = ctx.scalar(-1) if dacc is None else dacc - 1
        d.append(v)
        dd.append(dv)
        total = dv / v if total is None else total + dv / v
    if not slope:
        return True, False, None
    if leaves:
        total = total + leaves / (c - 1)
    return True, False, _newton_step(total)


def _child_by_child_probe_at(tree, s2, c, slope):
    # the unfolded probe: every vertex absorbs s2/d_c from each child
    ctx = s2.ctx
    x = -c
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


def _tree_all_negative(tree, s, c, slope):
    # one probe of the factory approximate_radius builds for M(s)
    ctx = s.ctx
    s2 = mpf_mul(s.raw(), s.raw(), ctx.prec, round_nearest)
    return _radius_probe(_fold(tree), s2, ctx)(c, slope)


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


_SPECTRA = {}


def _near_eigenvalue(tree, s, c):
    """Whether c lies within 1e-12 of an eigenvalue of M(s), by the dense
    oracle at 20 digits, once per tree and |s| (trees are bipartite, so
    s and -s share the spectrum)."""
    key = id(tree), abs(s).to_decimal_string(25)
    if key not in _SPECTRA:
        ctx = PrecisionContext(20)
        m = dense_deformed_laplacian(tree, ctx.scalar(key[1]))
        _SPECTRA[key] = [e.to_float() for e in m.eigenvalues(ctx)]
    return any(abs(e - c.to_float()) <= 1e-12 for e in _SPECTRA[key])


@pytest.mark.parametrize("digits", DIGITS)
def test_probe_verdicts_match_child_by_child_sweep(digits):
    # folding the leaves moves the rounding, so verdicts may differ only
    # where rounding decides them, at an eigenvalue
    checked = skipped = 0
    for tree, s, c in _grid(digits):
        if tree.n > DENSE_CAP:
            continue
        if _near_eigenvalue(tree, s, c):
            skipped += 1
            continue
        got = _tree_all_negative(tree, s, c, False)[0]
        assert got == _child_by_child_probe_at(tree, s * s, c, False)[0], (tree.degree, s, c)
        checked += 1
    assert checked > 5 * skipped > 0


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
    monkeypatch.setattr(diagonalize, "_radius_probe", _reference_tree_probe)
    assert got == brackets()


# -- the float Laguerre start ---------------------------------------------------


def _radius(tree, s, ctx):
    return approximate_radius(tree, s, ctx.zero(), gershgorin_cap(s, tree.max_degree()))


def _bracket_raw(est):
    return est.low.raw(), est.high.raw(), est.iterations


def _from_hi(monkeypatch):
    monkeypatch.setattr(diagonalize, "_laguerre_start", lambda *args: None)


@pytest.mark.parametrize("digits", DIGITS)
def test_float_start_keeps_brackets(digits, monkeypatch):
    # every free tree on the verify grid, one vertex and P2 (where the
    # start lands on rho) at s = 0 too, and the random trees on part of
    # it: the start from hi takes 140-350 sweeps per radius on the 300-
    # and 2000-vertex ones. One vertex's rho, 1 - s^2, lies above lo = 0
    # only for |s| < 1.
    ctx = PrecisionContext(digits)
    grid = [ctx.scalar(t) for t in S_VALUES]
    cases = []
    for tree in TREES + RANDOM_TREES[:1]:
        for s in grid:
            if (s.sign() or tree.n <= 2) and (tree.n > 1 or abs(s) < 1):
                cases.append((tree, s))
    big = RANDOM_TREES[1] if digits == 50 else RANDOM_TREES[2]
    cases.append((big, grid[2 if digits == 50 else 6]))

    def brackets():
        # the sweeps are summed off s = 0, where M = I and rho = 1 is an
        # n-fold root that Newton nears linearly from either start
        runs = [_radius(tree, s, ctx) for tree, s in cases]
        probes = sum(est.probes for est, (_, s) in zip(runs, cases) if s.sign())
        return [_bracket_raw(est) for est in runs], probes

    got, probes = brackets()
    _from_hi(monkeypatch)
    want, probes_from_hi = brackets()
    assert got == want
    assert 2 * probes < probes_from_hi


def test_float_start_sweep_budget():
    ctx = PrecisionContext(50)
    for tree in RANDOM_TREES[1:]:
        grid = S_VALUES[:-1] if tree.n < 1000 else ("-0.9", "0.3", "1")
        for s_text in grid:
            assert _radius(tree, ctx.scalar(s_text), ctx).probes <= 15


def test_float_start_below_rho_falls_back_to_hi(monkeypatch):
    ctx = PrecisionContext(50)
    tree = RANDOM_TREES[0]
    s = ctx.scalar("0.9")
    _from_hi(monkeypatch)
    want = _radius(tree, s, ctx)
    below = want.low.to_float() * (1 - 1e-9)
    monkeypatch.setattr(diagonalize, "_laguerre_start", lambda *args: below)
    got = _radius(tree, s, ctx)
    assert _bracket_raw(got) == _bracket_raw(want)
    # the probe that rejected the start, then hi's own walk
    assert got.probes == want.probes + 1


def test_float_start_capped_keeps_brackets(monkeypatch):
    # two float sweeps leave the start far above rho, as the cap does on
    # trees too big for it; the Newton steps at full precision walk on
    ctx = PrecisionContext(50)
    tree = RANDOM_TREES[0]
    s = ctx.scalar("-0.9")
    monkeypatch.setattr(diagonalize, "_LAGUERRE_SWEEPS", 2)
    got = _radius(tree, s, ctx)
    hi = 1 + 0.81 * (tree.max_degree() - 1) + 0.9 * tree.max_degree() + 1
    base = {deg: 1 + 0.81 * (deg - 1) for deg in set(tree.degree)}
    start = diagonalize._laguerre_start(_fold(tree), base, 0.81, hi)
    assert got.high.to_float() + 1e-3 < start < hi
    _from_hi(monkeypatch)
    assert _bracket_raw(got) == _bracket_raw(_radius(tree, s, ctx))


def test_float_start_landing_on_the_root():
    # the start lands exactly: on 1 for one vertex at s = 0, and on
    # 1 + |s| in one step for the path P2, whose determinant is quadratic
    single = Tree.single_vertex()
    assert diagonalize._laguerre_start(_fold(single), {0: 1.0}, 0.0, 2.0) == 1.0
    p2 = Tree.from_edges([(0, 1)])
    for s_text in S_VALUES:
        s = float(s_text)
        rho = 1 + abs(s)
        guess = diagonalize._laguerre_start(_fold(p2), {1: 1.0}, s * s, rho + 1)
        assert abs(guess - rho) <= 4 * math.ulp(rho)


def test_float_start_past_float_range(monkeypatch):
    # s^2 overflows a float; the float start gives up and the search runs
    # from hi, on P2, whose rho is 1 + |s|
    ctx = PrecisionContext(20)
    p2 = Tree.from_edges([(0, 1)])
    cases = [ctx.scalar(t) for t in ("1e200", "-1e200", "1e160", "1e400")]

    def brackets():
        return [approximate_radius(p2, s, ctx.zero(), 3 * abs(s), iterations=80) for s in cases]

    got = brackets()
    for s, est in zip(cases, got):
        assert est.low <= 1 + abs(s) <= est.high
    _from_hi(monkeypatch)
    assert [_bracket_raw(est) for est in got] == [_bracket_raw(est) for est in brackets()]


def test_float_count_and_float_start_share_one_table(monkeypatch):
    # the float count pair and the float Laguerre start read one M(s)
    # table, built from s rounded to the nearest double: -0.9 there is
    # the double 0.9, not the truncated 0.8999999999999999. It holds
    # every degree up to the largest, 0 and 3 too, which this tree lacks
    # but its leaf deletions sweep
    ctx = PrecisionContext(50)
    tree = Tree.from_edges([(0, 1), (1, 2), (1, 3), (1, 4), (4, 5)])
    assert sorted(set(tree.degree)) == [1, 2, 4]
    tables = []
    starts = []
    positive = diagonalize._float_positive
    laguerre = diagonalize._laguerre_start

    def recorded(*args):
        # the leaf-folded arrays, then table, s2 and the shift
        tables.append(args[-3:-1])
        return positive(*args)

    def recorded_start(fold, base, s2, hi):
        starts.append((base, s2))
        return laguerre(fold, base, s2, hi)

    monkeypatch.setattr(diagonalize, "_float_positive", recorded)
    monkeypatch.setattr(diagonalize, "_laguerre_start", recorded_start)
    for s_text in ("-0.9", "0.3", "1.5", "0.05"):
        s = ctx.scalar(s_text)
        f = abs(float(s_text))
        want = ([1.0 - f * f, 1.0, 1.0 + f * f, 1.0 + 2 * f * f, 1.0 + 3 * f * f], f * f)
        del tables[:], starts[:]
        count_eigenvalues(tree, s, ctx.scalar(2))
        assert tables == [want, want]
        diagonalize._float_start(tree, s, _fold(tree), 10.0)
        assert starts == [want]
