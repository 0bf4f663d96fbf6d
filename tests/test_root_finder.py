"""The Newton-then-replay root finder against the plain bisections it replaces.

``find_root`` promises the bisection's own bracket. The loops below are
the bisections that ``approximate_radius``, ``epsilon_k`` and
``bisect_monotone_root`` (hence ``tau0``) ran before the finder: each
test runs both and asserts identical values, not merely close ones.
"""

import math

import pytest

from deflap.diagonalize import _probe, approximate_radius
from deflap.limits import s_star, tau0
from deflap.scalar import (
    BracketingError,
    PrecisionContext,
    PrecisionError,
    bisect_monotone_root,
    find_root,
    materialize,
)
from deflap.shearer import EpsilonBound, InvalidRunError, _prefix_value, epsilon_k, generate
from deflap.trees import free_trees

from test_limits import TABLE as TAU0_TABLE

S_GRID = ("-1.5", "-1", "-0.9", "-0.3", "0.3", "0.9", "1", "1.5")


# -- reference bisections ---------------------------------------------------


def _reference_radius(obj, s, lo, hi, iterations=None, target_digits=None):
    ctx = s.ctx
    lo = ctx.scalar(lo)
    hi = ctx.scalar(hi)
    below_lo, _, _ = _probe(obj, s, lo, False)
    below_hi, _, _ = _probe(obj, s, hi, False)
    if below_lo or not below_hi:
        raise BracketingError("bad reference bracket")
    if iterations is None:
        if target_digits is None:
            target_digits = ctx.digits
        span = (hi - lo).to_float()
        iterations = max(1, int(math.ceil(math.log2(span) + target_digits * math.log2(10))))
    for _ in range(int(iterations)):
        mid = (lo + hi).halved()
        below, _, _ = _probe(obj, s, mid, False)
        if below:
            hi = mid
        else:
            lo = mid
    return lo, hi, int(iterations)


def _reference_epsilon_k(run):
    wd = run.generation_digits + 10
    wctx = PrecisionContext(wd)
    lam = materialize(run.lam_spec, wctx)
    s = materialize(run.s_spec, wctx)
    s2 = s * s
    counts = run.counts
    k = len(counts)
    iters = int(math.ceil(25 * math.log2(10))) + 6

    def make_f(j):
        def f(eps):
            m = lam - eps
            delta = s2 * m / (m - 1)
            return _prefix_value(counts, s2, m, delta, j, k, False)[0]

        return f

    zero = wctx.zero()
    inset = wctx.power_of_ten(-wd + 8)
    upper = (lam - 1) * (1 - inset)
    lo = hi = None
    for j in range(1, k + 1):
        f = make_f(j)
        if f(zero).sign() >= 0:
            raise InvalidRunError("reference: b_%d(0) is not negative" % j)
        if j == 1 and counts[0] == 0:
            lo, hi = upper, lam - 1
            continue
        fh = f(upper).sign()
        if fh == 0:
            upper = upper * (1 - inset)
            fh = f(upper).sign()
        if fh <= 0:
            raise PrecisionError("reference: level %d not separated" % j)
        lo_j, hi_j = zero, upper
        for _ in range(iters):
            mid = (lo_j + hi_j).halved()
            sg = f(mid).sign()
            if sg < 0:
                lo_j = mid
            elif sg > 0:
                hi_j = mid
            else:
                break
        lo, hi = lo_j, hi_j
        upper = lo
    padded = hi + (hi - lo)
    value = run.ctx.scalar(padded * (1 + wctx.power_of_ten(-run.ctx.digits + 2)))
    return EpsilonBound(k, value, True)


def _reference_bisect(f, a, b, iters):
    fa = f(a).sign()
    fb = f(b).sign()
    if fa == 0:
        return a
    if fb == 0:
        return b
    if fa == fb:
        raise BracketingError("reference: no sign change")
    lo, hi = a, b
    for _ in range(int(iters)):
        mid = (lo + hi).halved()
        sg = f(mid).sign()
        if sg == 0:
            return mid
        if sg == fa:
            lo = mid
        else:
            hi = mid
    return (lo + hi).halved()


def _reference_tau0(s):
    ctx = s.ctx
    s2 = s * s
    s4 = s2 * s2

    def h(t):
        w = 1 + s2 - t
        pole_part = 1 + 1 / (t - 1)
        return w * w - 4 * s2 - s4 * pole_part * pole_part

    lo = 1 + ctx.power_of_ten(-(ctx.digits // 2))
    hi = 1 + 2 * s2 + 2 * ctx.scalar(2).sqrt() * abs(s)
    return _reference_bisect(h, lo, hi, ctx.default_bisection_iters)


# -- equivalence ------------------------------------------------------------


def _assert_same_radius(obj, s, lo, hi, **kw):
    est = approximate_radius(obj, s, lo, hi, **kw)
    low, high, iterations = _reference_radius(obj, s, lo, hi, **kw)
    assert (est.low.raw(), est.high.raw(), est.iterations) == (low.raw(), high.raw(), iterations)
    assert est.probes >= 2
    return est


@pytest.mark.parametrize("lam_text", ["5.4", "30"])
def test_caterpillar_radii_match_bisection(lam_text):
    # the default target resolves to the 120-digit rounding floor, so the
    # last halvings are decided by noise and must still be replayed
    ctx = PrecisionContext(120)
    lam = ctx.scalar(lam_text)
    s = s_star(lam).halved()
    for k in range(2, 21):
        run = generate(lam, s, k, ctx=ctx)
        est = _assert_same_radius(run.caterpillar(), s, ctx.scalar(1), lam)
        assert est.probes < est.iterations


def test_tree_radii_match_bisection():
    ctx = PrecisionContext(30)
    for s_text in S_GRID:
        s = ctx.scalar(s_text)
        for n in range(2, 9):
            for tree in free_trees(n):
                d = max(tree.degree)
                cap = 1 + s * s * (d - 1) + abs(s) * d + 1
                _assert_same_radius(tree, s, ctx.zero(), cap)


def test_epsilon_k_matches_bisection():
    ctx = PrecisionContext(120)
    lam = ctx.scalar("5.4")
    s = s_star(lam).halved()
    for k in range(2, 21):
        run = generate(lam, s, k, ctx=ctx)
        assert epsilon_k(run).value.raw() == _reference_epsilon_k(run).value.raw()


@pytest.mark.parametrize("s_text", [row[0] for row in TAU0_TABLE])
def test_tau0_matches_bisection(s_text):
    ctx = PrecisionContext(50)
    s = ctx.scalar(s_text)
    assert tau0(s).raw() == _reference_tau0(s).raw()


def test_bisect_monotone_root_matches_reference():
    ctx = PrecisionContext(50)
    cases = (
        (lambda t: t * t - 2, ctx.scalar(1), ctx.scalar(2), 200),
        (lambda t: 3 - t * t * t, ctx.scalar(0), ctx.scalar(5), 60),
        (lambda t: t - ctx.scalar("0.1"), ctx.scalar(-1), ctx.scalar(1), 170),
    )
    for f, a, b, iters in cases:
        assert bisect_monotone_root(f, a, b, iters).raw() == _reference_bisect(f, a, b, iters).raw()


def test_bisect_monotone_root_exact_zero_at_midpoint():
    ctx = PrecisionContext(50)
    calls = []

    def f(t):
        calls.append(t)
        return t - ctx.scalar("1.5")

    root = bisect_monotone_root(f, ctx.scalar(1), ctx.scalar(2), 50)
    assert root == ctx.scalar("1.5")
    # both ends, then the first midpoint, which is the zero
    assert len(calls) == 3


def test_find_root_without_a_step_is_plain_bisection():
    ctx = PrecisionContext(30)
    seen = []

    def probe(x, slope):
        seen.append(x)
        return (-1 if x < ctx.scalar("0.3") else 1), None

    found = find_root(probe, ctx.zero(), ctx.scalar(1), 40, ctx.scalar(1), None)
    assert found.probes == 40 == len(seen)
    assert found.zero is None
    assert found.low < ctx.scalar("0.3") <= found.high


def test_flagship_radius_probe_count():
    ctx = PrecisionContext(250)
    lam = ctx.scalar(2025)
    s = s_star(lam).halved()
    run = generate(lam, s, 150, ctx=ctx)
    est = _assert_same_radius(run.caterpillar(), s, ctx.scalar(1), lam, target_digits=220)
    assert est.iterations == 742
    # bisection probes both ends and every midpoint: 744 sweeps
    assert est.probes <= 60
