"""The Newton-then-replay root finder against the plain bisections it replaces.

``find_root`` promises the bisection's own bracket. The loops below are
the bisections that ``approximate_radius`` and ``bisect_monotone_root``
(hence ``tau0``) ran before the finder: each test runs both and asserts
identical values, not merely close ones. ``epsilon_k`` is now one radius
search; the nested chain of bisections it replaced is kept frozen as its
reference, which its bound must match to 1e-20 relative.

A caterpillar probes bit for bit as the tree it expands to, so the
probe those bisections call for a caterpillar is the Scalar loop of the
leaf-folded recurrence (``test_tree_kernel._reference_probe_at``) on its
arrays; the references do not run the integer kernel under test
(``diagonalize._pivots``), and a grid test checks the live probe against
that loop directly. The Shearer generation pass and its beta recurrence
have frozen Scalar copies, checked value for value against the
raw-tuple versions.

``find_root`` itself has a frozen copy from when its replay walked raw
tuples with ``mpf_add``; every root the package finds, on live probes,
must come out of both as the same bracket. The replay's integer
midpoint is fuzzed against ``mpf_add`` directly.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_cmp, mpf_mul, mpf_shift, round_nearest

import deflap.diagonalize
import deflap.limits
import deflap.scalar
from deflap.diagonalize import (
    _radius_probe,
    approximate_radius,
    diagonalize_tree,
    gershgorin_cap,
)
from deflap.limits import s_star, tau0
from deflap.recurrence import RecurrenceParams, recurrence_params
from deflap.scalar import (
    BracketingError,
    PrecisionContext,
    PrecisionError,
    RootBracket,
    Scalar,
    _lift,
    _midpoint,
    bisect_monotone_root,
    find_root,
    materialize,
)
from deflap.shearer import (
    EpsilonBound,
    InvalidRunError,
    ShearerRun,
    _betas_at,
    _generate_at,
    _NeedMorePrecision,
    beta_sequence,
    epsilon_k,
    generate,
)
from deflap.trees import Caterpillar, caterpillar_to_tree, free_trees

from test_limits import TABLE as TAU0_TABLE
from test_tree_kernel import _reference_probe_at

S_GRID = ("-1.5", "-1", "-0.9", "-0.3", "0.3", "0.9", "1", "1.5")


# -- one probe of each live factory -----------------------------------------


def _raw_s2(s):
    return mpf_mul(s.raw(), s.raw(), s.ctx.prec, round_nearest)


def _probe(obj, s, c, slope):
    # one probe of the factory approximate_radius builds for a Tree or a
    # Caterpillar
    return _radius_probe(obj._peeled(), _raw_s2(s), s.ctx)(c, slope)


# -- frozen eps_k level probe -----------------------------------------------


def _frozen_prefix_value(counts, s2, m, delta, j, k):
    # b_j of the full T_k run at the point m: the eps_k chain's level probe,
    # in the backbone form it ran on, delta = s2 m/(m - 1) and the root
    # less s2 last; it rounds apart from the live fold, so the chain is
    # matched to 1e-20, not bit for bit
    b = 1 - m + counts[0] * delta
    for i in range(1, j):
        if b.is_zero:
            raise PrecisionError("probe hit an intermediate zero; raise the precision")
        b = 1 + s2 - m - s2 / b + counts[i] * delta
        if i == k - 1:
            b = b - s2
    return b


# -- frozen generator -------------------------------------------------------


def _frozen_guarded_floor(t, guard):
    f = t.floor()
    frac = t - f
    if frac < guard or frac > 1 - guard:
        raise _NeedMorePrecision()
    return f


def _frozen_generate_at(p, k, wctx):
    # shearer's generation pass as it ran on Scalars
    lam, s = p.lam, p.s
    s2 = s * s
    delta, thp = p.delta, p.theta_prime
    lo_window = thp - delta
    guard = wctx.power_of_ten(-wctx.digits + 10)

    def windowed(b):
        if not (lo_window < b and b < thp):
            raise _NeedMorePrecision()
        return b

    r1 = _frozen_guarded_floor((thp + lam - 1) / delta, guard)
    if r1 < 0:
        raise InvalidRunError("negative leaf count; parameters are inconsistent")
    b = windowed(1 - lam + r1 * delta)
    counts = [r1]
    bs = [b]
    for j in range(1, k):
        step = 1 + s2 - lam - s2 / b
        if j == k - 1:
            step = step - s2
        r = _frozen_guarded_floor((thp - step) / delta, guard)
        if r < 0:
            raise InvalidRunError("negative leaf count; parameters are inconsistent")
        b = windowed(step + r * delta)
        counts.append(r)
        bs.append(b)
    return counts, bs


def _frozen_betas_at(counts, bs, lam, s):
    s2 = s * s
    lm1 = lam - 1
    lm1_sq = lm1 * lm1
    out = []
    prev = None
    for j, (r, b) in enumerate(zip(counts, bs)):
        c = (1 + r * s2 / lm1_sq) / (-b)
        if j == 0:
            beta = c
        else:
            g = s2 / (bs[j - 1] * b)
            beta = c + g * prev
        out.append(beta)
        prev = beta
    return out


# -- frozen root finder ----------------------------------------------------


def _frozen_find_root(probe, lo, hi, iters, start, step):
    # find_root as it ran when its replay walked raw tuples; a start
    # inside (lo, hi) lies on hi's side, as find_root takes it
    iters = int(iters)
    width = Scalar(mpf_shift((hi - lo)._v, -iters), lo.ctx)
    start_side = -1 if start == lo else 1
    probes = 0

    x = start
    err = prev = None
    for _ in range(iters):
        if step is None:
            break
        size = abs(step)
        if prev is not None and not size < prev:
            err = size
            break
        nxt = x + step
        if not (lo < nxt and nxt < hi):
            break
        x = nxt
        if not size > width:
            err = size
            break
        side, step = probe(x, True)
        probes += 1
        err = size if prev is None else min(size, size * size * size / (prev * prev))
        prev = size
        if side != start_side:
            break

    ends = [lo, hi]
    if err is not None:
        pad = err + err
        if pad < width:
            pad = width
        for i, want in ((0, -1), (1, 1)):
            g = pad
            while True:
                t = x + want * g
                if not (lo < t and t < hi):
                    break
                probes += 1
                if probe(t, False)[0] == want:
                    ends[i] = t
                    break
                g = g * 16
    ctx = lo.ctx
    prec = ctx.prec
    a, b = ends[0]._v, ends[1]._v
    lo, hi = lo._v, hi._v
    for _ in range(iters):
        mid = mpf_shift(mpf_add(lo, hi, prec, round_nearest), -1)
        if mpf_cmp(mid, a) <= 0:
            side = -1
        elif mpf_cmp(mid, b) >= 0:
            side = 1
        else:
            side = probe(Scalar(mid, ctx), False)[0]
            probes += 1
            if side == 0:
                return RootBracket(Scalar(lo, ctx), Scalar(hi, ctx), Scalar(mid, ctx), probes)
        if side < 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(Scalar(lo, ctx), Scalar(hi, ctx), None, probes)


# -- reference bisections ---------------------------------------------------


def _reference_caterpillar_probe(cat, s, c, slope):
    # the Scalar loop of the folded recurrence on the caterpillar's arrays
    return _reference_probe_at(cat._peeled(), s * s, c, slope)


def _reference_probe(obj, s, c):
    if isinstance(obj, Caterpillar):
        return _reference_caterpillar_probe(obj, s, c, False)[0]
    return _probe(obj, s, c, False)[0]


def _reference_radius(obj, s, lo, hi, iterations=None, target_digits=None):
    ctx = s.ctx
    lo = ctx.scalar(lo)
    hi = ctx.scalar(hi)
    below_lo = _reference_probe(obj, s, lo)
    below_hi = _reference_probe(obj, s, hi)
    if below_lo or not below_hi:
        raise BracketingError("bad reference bracket")
    if iterations is None:
        if target_digits is None:
            target_digits = ctx.digits
        span = (hi - lo).to_float()
        iterations = max(1, int(math.ceil(math.log2(span) + target_digits * math.log2(10))))
    for _ in range(int(iterations)):
        mid = (lo + hi).halved()
        below = _reference_probe(obj, s, mid)
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
            return _frozen_prefix_value(counts, s2, m, delta, j, k)

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
    ctx = run.lam.ctx
    value = ctx.scalar(padded * (1 + wctx.power_of_ten(-ctx.digits + 2)))
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
    return _reference_bisect(h, lo, hi, int(ctx.digits * 3.33) + 8)


# -- equivalence ------------------------------------------------------------


def _assert_same_radius(obj, s, lo, hi, **kw):
    est = approximate_radius(obj, s, lo, hi, **kw)
    low, high, iterations = _reference_radius(obj, s, lo, hi, **kw)
    assert (est.low.raw(), est.high.raw(), est.iterations) == (low.raw(), high.raw(), iterations)
    assert est.probes >= 2
    return est


def _outcome(fn, *args):
    """fn's result with every Scalar as its raw tuple, or the exception it
    raised as (type, args)."""
    try:
        out = fn(*args)
    except (PrecisionError, ZeroDivisionError) as exc:
        return type(exc), exc.args

    def raw(v):
        if isinstance(v, Scalar):
            return v.raw()
        if isinstance(v, (list, tuple)):
            return tuple(raw(x) for x in v)
        return v

    return raw(out)


def _assert_backbone_loops_match(cat, s, c):
    for slope in (False, True):
        live = _outcome(_probe, cat, s, c, slope)
        assert live == _outcome(_reference_caterpillar_probe, cat, s, c, slope), (cat.counts, c)


def test_backbone_loops_match_frozen_copies():
    rng = random.Random(5)
    points = ("-0.5", "0", "0.999", "1", "1.001", "1.5", "2", "3.7", "5.4", "30")
    for digits in (20, 50):
        ctx = PrecisionContext(digits)
        for _ in range(12):
            cat = Caterpillar([rng.randrange(0, 6) for _ in range(rng.randrange(2, 13))])
            s = ctx.scalar(rng.choice(("-1.3", "-0.4", "0.25", "0.5", "0.9", "1.1")))
            for c_text in points:
                _assert_backbone_loops_match(cat, s, ctx.scalar(c_text))
    # b_1 = 1 + 2 s^2 - 2 + 2 s^2/(2 - 1) is exactly zero at s = 0.5: with
    # or without a slope, the radius probe stops there, before it could
    # divide by the zero: not all-negative, decided early
    ctx = PrecisionContext(30)
    cat, s, c = Caterpillar([2, 1, 3]), ctx.scalar("0.5"), ctx.scalar(2)
    _assert_backbone_loops_match(cat, s, c)
    for slope in (False, True):
        assert _outcome(_probe, cat, s, c, slope) == (False, True, None)


def _generation_outcome(generate_at, p, k, wctx):
    """(counts, raw b values), or the exception raised as (type, args)."""
    try:
        counts, bs = generate_at(p, k, wctx)
    except (_NeedMorePrecision, InvalidRunError) as exc:
        return type(exc), exc.args
    return counts, [b.raw() if isinstance(b, Scalar) else b for b in bs]


def _assert_generation_matches(p, k, wctx):
    want = _generation_outcome(_frozen_generate_at, p, k, wctx)
    assert _generation_outcome(_generate_at, p, k, wctx) == want
    if isinstance(want[0], type):
        return want[0]
    counts, bs = want
    frozen = _frozen_betas_at(counts, [Scalar(b, wctx) for b in bs], p.lam, p.s)
    live = _betas_at(counts, bs, p.lam.raw(), p.s.raw(), wctx.prec)
    assert live == [beta.raw() for beta in frozen]
    return None


def _params_variant(p, **changes):
    fields = {name: getattr(p, name) for name in RecurrenceParams.__slots__}
    fields.update(changes)
    return RecurrenceParams(**fields)


def test_generator_matches_frozen_copies():
    # criterion 10's runs: lam = 5.4 at half coupling, 120 digits
    wctx = PrecisionContext(120)
    lam = wctx.scalar("5.4")
    p = recurrence_params(s_star(lam).halved(), lam)
    for k in range(2, 21):
        assert _assert_generation_matches(p, k, wctx) is None
    # a log-uniform lam grid at half and full coupling
    rng = random.Random(11)
    for digits in (60, 120):
        wctx = PrecisionContext(digits)
        for _ in range(6):
            lam = wctx.scalar("%.6g" % math.exp(rng.uniform(math.log(1.6), math.log(50.0))))
            s = s_star(lam)
            for coupling in (s.halved(), s):
                assert _assert_generation_matches(recurrence_params(coupling, lam), 30, wctx) is None
    # a rung the floor guard rejects: delta made to divide the first
    # floor argument, which then rounds to within the guard of 5; and a
    # negative delta, whose first leaf count is negative
    wctx = PrecisionContext(60)
    lam = wctx.scalar("5.4")
    p = recurrence_params(s_star(lam).halved(), lam)
    on_integer = _params_variant(p, delta=(p.theta_prime + p.lam - 1) / 5)
    assert _assert_generation_matches(on_integer, 8, wctx) is _NeedMorePrecision
    assert _assert_generation_matches(_params_variant(p, delta=-p.delta), 8, wctx) is InvalidRunError


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
    # the one search against the frozen chain of k nested bisections, and
    # against lam - rho with rho bracketed at twice the working precision
    # and to 40 relative digits of 1/beta_k, far finer than eps_k's width
    ctx = PrecisionContext(120)
    lam = ctx.scalar("5.4")
    s = s_star(lam).halved()
    for k in range(2, 21):
        run = generate(lam, s, k, ctx=ctx)
        eps = epsilon_k(run).value
        chain = _reference_epsilon_k(run).value
        assert abs(eps - chain) <= chain * ctx.power_of_ten(-20)
        gap, fine = _fine_gap_above(run)
        assert gap < fine.scalar(eps)


def _fine_gap_above(run):
    """(lam - low, ctx): low is rho(T_k)'s bracket end at twice eps_k's
    working precision, to 40 relative digits of 1/beta_k, so lam - low
    bounds lam - rho from above far inside eps_k's width."""
    fine = PrecisionContext(2 * (run.generation_digits + 10))
    lam = materialize(run.lam_spec, fine)
    s = materialize(run.s_spec, fine)
    width = fine.power_of_ten(-40) / fine.scalar(run.beta_trace[-1])
    iters = math.ceil(math.log2((lam - 1).to_float()) - width.decimal_magnitude() * math.log2(10))
    est = approximate_radius(run.caterpillar(), s, 1, lam, iterations=iters)
    return lam - est.low, fine


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(u=st.floats(0, 1), k=st.integers(2, 30))
def test_epsilon_k_certifies_random_runs(u, k):
    # lam log-uniform in [1.6, 50], s = s*(lam)/2 at 120 digits
    ctx = PrecisionContext(120)
    lam = ctx.scalar("%.6g" % math.exp(math.log(1.6) + u * (math.log(50) - math.log(1.6))))
    s = s_star(lam).halved()
    run = generate(lam, s, k, ctx=ctx)
    eps = epsilon_k(run)
    assert eps.certified and eps.k == k
    gap, fine = _fine_gap_above(run)
    assert gap < fine.scalar(eps.value)
    assert eps.value <= 1 / beta_sequence(run)[-1]


def _with(run, **changes):
    fields = {name: getattr(run, name) for name in ShearerRun.__slots__}
    fields.update(changes)
    return ShearerRun(**fields)


def test_epsilon_k_refuses_sub_ulp_width():
    # at 30 working digits, 1/beta_12 to 25 relative digits is finer than
    # 2^8 ulp of lam; a target of the generation's digits restores them
    ctx = PrecisionContext(120)
    lam = ctx.scalar("5.4")
    run = generate(lam, s_star(lam).halved(), 12, ctx=ctx)
    short = _with(run, generation_digits=20)
    with pytest.raises(PrecisionError):
        epsilon_k(short)
    restored = epsilon_k(short, target_digits=run.generation_digits)
    assert restored.value.raw() == epsilon_k(run).value.raw()


def test_epsilon_k_rejects_a_run_above_lam():
    # a hundred more leaves on node 1 push rho(T_k) past lam
    ctx = PrecisionContext(60)
    lam = ctx.scalar("5.4")
    run = generate(lam, s_star(lam).halved(), 6, ctx=ctx)
    heavy = _with(run, counts=(run.counts[0] + 100,) + run.counts[1:])
    with pytest.raises(InvalidRunError):
        epsilon_k(heavy)


def test_radii_at_s_zero_match_sweep_bisection():
    # M(0) = I: the search starts at rho = 1 itself, and its bracket is
    # the one bisecting with full kernel sweeps gives
    ctx = PrecisionContext(30)
    s = ctx.zero()
    cases = [(tree, tree) for n in range(2, 8) for tree in free_trees(n)]
    for counts in ([0, 0], [2, 0, 1], [3, 1, 4, 1, 5]):
        cat = Caterpillar(counts)
        cases.append((cat, caterpillar_to_tree(cat)))
    for obj, tree in cases:
        def below(c):
            pos, _, zero = diagonalize_tree(tree, s, -c).inertia
            return pos == 0 and zero == 0

        # at target 45 the final width is below the ulp of 1, so the
        # certification widens and a few more midpoints are probed
        for lo, hi, target, cap in (("0", "3", None, 8), ("0.5", "1.75", 12, 8), ("-2", "40", 45, 16),
                                    ("1", "3", None, 8)):
            lo, hi = ctx.scalar(lo), ctx.scalar(hi)
            est = approximate_radius(obj, s, lo, hi, target_digits=target)
            assert not below(lo) and below(hi)
            for _ in range(est.iterations):
                mid = (lo + hi).halved()
                if below(mid):
                    hi = mid
                else:
                    lo = mid
            assert (est.low.raw(), est.high.raw()) == (lo.raw(), hi.raw())
            # both ends, two certification probes, a few midpoints
            assert est.probes <= cap < est.iterations


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


# -- the integer replay against the tuple replay ------------------------------


def _bracket_raw(found):
    zero = None if found.zero is None else found.zero.raw()
    return found.low.raw(), found.high.raw(), zero, found.probes


def _assert_same_walk(probe, lo, hi, iters, start, step):
    found = find_root(probe, lo, hi, iters, start, step)
    assert _bracket_raw(found) == _bracket_raw(_frozen_find_root(probe, lo, hi, iters, start, step))
    return found


@pytest.fixture
def checked_walks(monkeypatch):
    """Route every find_root call through both replays; yields the list
    of brackets the live finder returned."""
    found = []

    def both(probe, lo, hi, iters, start, step):
        found.append(_assert_same_walk(probe, lo, hi, iters, start, step))
        return found[-1]

    for module in (deflap.diagonalize, deflap.limits, deflap.scalar):
        monkeypatch.setattr(module, "find_root", both)
    return found


def test_tree_radii_match_tuple_replay(checked_walks):
    ctx = PrecisionContext(30)
    calls = 0
    for s_text in S_GRID:
        s = ctx.scalar(s_text)
        for n in range(2, 8):
            for tree in free_trees(n):
                d = max(tree.degree)
                approximate_radius(tree, s, ctx.zero(), 1 + s * s * (d - 1) + abs(s) * d + 1)
                calls += 1
    assert len(checked_walks) == calls == 8 * 24


def test_caterpillar_radii_and_epsilon_k_match_tuple_replay(checked_walks):
    ctx = PrecisionContext(120)
    lam = ctx.scalar("5.4")
    s = s_star(lam).halved()
    for k in range(2, 21):
        run = generate(lam, s, k, ctx=ctx)
        approximate_radius(run.caterpillar(), s, ctx.scalar(1), lam)
        before = len(checked_walks)
        epsilon_k(run)
        # one radius search per bound, whatever k and r_1
        assert len(checked_walks) - before == 1


def test_tau0_matches_tuple_replay(checked_walks):
    ctx = PrecisionContext(50)
    for row in TAU0_TABLE:
        tau0(ctx.scalar(row[0]))
    assert len(checked_walks) == len(TAU0_TABLE)


def _cubic_probe(root, calls=None):
    # f(x) = (x - root)^3 + (x - root): increasing, with Newton steps
    def probe(x, slope):
        if calls is not None:
            calls.append(x)
        u = x - root
        f = u * u * u + u
        side = f.sign()
        if not slope or side == 0:
            return side, None
        return side, -f / (3 * u * u + 1)

    return probe


def test_replay_edge_brackets_match_tuple_replay():
    ctx = PrecisionContext(20)
    cases = (
        # lo = 0 and hi far above 2^(iters + 2): the fixed exponent is
        # positive, and zero must not be shifted to it
        ("0", 2 ** 40, "1234567.25", 3),
        ("0", 2 ** 40, "1234567.25", 12),
        ("0", 2 ** 80, "3.5", 30),
        # both ends negative
        ("-7", "-0.3", "-2.1", 60),
        # straddling 0, the first midpoint an exact zero of the probe
        ("-1", "1", "0", 40),
        ("-3", "5", "0.7", 70),
        ("-3", "5", "0", 70),
        # a dyadic root, met exactly by a midpoint
        ("1", "2", "1.5", 50),
        ("1", "2", "1.375", 50),
    )
    zeros = 0
    for lo_text, hi_text, root_text, iters in cases:
        lo, hi, root = ctx.scalar(lo_text), ctx.scalar(hi_text), ctx.scalar(root_text)
        probe = _cubic_probe(root)
        assert probe(lo, False)[0] < 0 < probe(hi, False)[0]
        for start in (lo, hi):
            for step in (None, probe(start, True)[1]):
                found = _assert_same_walk(probe, lo, hi, iters, start, step)
                assert found.low <= root <= found.high
                zeros += found.zero is not None
    assert zeros > 0


def test_zero_step_from_lo_replays_plain_bisection():
    # a zero step names its start as the root, even at lo, and ends the
    # Newton phase there: the bracket certified around lo = 0 is [0, w]
    # with w = 2^37 the final width, one probe, and the replay decides
    # every midpoint of [0, 2^40] by position. The frozen finder predates
    # that branch (it steps and probes three times), so plain bisection
    # is the reference
    ctx = PrecisionContext(20)
    lo, hi, root = ctx.zero(), ctx.scalar(2 ** 40), ctx.scalar("1234567.25")
    calls = []
    probe = _cubic_probe(root, calls)
    found = find_root(probe, lo, hi, 3, lo, ctx.zero())
    assert found.probes == 1 and found.zero is None
    assert [x.raw() for x in calls] == [ctx.scalar(2 ** 37).raw()]
    a, b = lo, hi
    for _ in range(3):
        mid = (a + b).halved()
        if probe(mid, False)[0] < 0:
            a = mid
        else:
            b = mid
    assert (found.low.raw(), found.high.raw()) == (a.raw(), b.raw()) == (fzero, ctx.scalar(2 ** 37).raw())
    assert _frozen_find_root(probe, lo, hi, 3, lo, ctx.zero()).probes == 3


def test_exact_zero_midpoint_is_returned():
    ctx = PrecisionContext(30)
    root = ctx.scalar("0.625")
    calls = []
    found = _assert_same_walk(_cubic_probe(root, calls), ctx.zero(), ctx.scalar(1), 40, ctx.scalar(1), None)
    # plain bisection: midpoints 0.5, 0.75, then 0.625, the zero
    assert found.zero.raw() == root.raw() and found.probes == 3
    assert (found.low.raw(), found.high.raw()) == (ctx.scalar("0.5").raw(), ctx.scalar("0.75").raw())
    # the live walk's probes, then the frozen one's
    want = [ctx.scalar(t).raw() for t in ("0.5", "0.75", "0.625")]
    assert [x.raw() for x in calls] == want + want


def _tree_side_probe(tree, s):
    # the radius probe as the bracket search sees it: +1 above rho
    def probe(c, slope):
        below, _, step = _probe(tree, s, c, slope)
        return (1 if below else -1), step

    return probe


def test_interior_start_on_hi_side_matches_start_at_hi():
    # Newton steps from a probed point between the root and hi, as the
    # tree radii take them from their float start, end on the bracket
    # and zero that starting at hi gives
    ctx = PrecisionContext(30)
    root = ctx.scalar("0.31415926535897932384626")
    cases = [(_cubic_probe(root), ctx.zero(), ctx.scalar(1), 100)]
    for n in (2, 4, 6):
        for tree in free_trees(n):
            for s_text in S_GRID[::3]:
                s = ctx.scalar(s_text)
                cases.append((_tree_side_probe(tree, s), ctx.zero(), gershgorin_cap(s, max(tree.degree)), 100))
    starts = 0
    for probe, lo, hi, iters in cases:
        want = find_root(probe, lo, hi, iters, hi, probe(hi, True)[1])
        for frac in ("0.5", "1e-6", "1e-15"):
            start = want.high + (hi - want.high) * ctx.scalar(frac)
            side, step = probe(start, True)
            assert side == 1 and step is not None
            got = find_root(probe, lo, hi, iters, start, step)
            assert _bracket_raw(got)[:3] == _bracket_raw(want)[:3]
            if frac != "1e-15":
                # Newton from a start clear of the rounding noise walks no
                # longer than from hi; a finder that took the start for
                # lo's side would stop after one step and replay dozens more
                assert got.probes <= want.probes
            starts += 1
    assert starts == 3 * (1 + 3 * (1 + 2 + 6))


# -- the integer midpoint against mpf_add ---------------------------------------


def _fuzz_operand(rng, prec, exp=None):
    bits = rng.choice((1, 2, prec, rng.randrange(1, prec + 1)))
    man = (1 << bits) - 1 if rng.random() < 0.2 else rng.getrandbits(bits) | 1 << (bits - 1)
    if exp is None:
        exp = rng.randrange(-2 * prec, 2 * prec)
    return from_man_exp(-man if rng.random() < 0.5 else man, exp)


def _fuzz_pair(rng, prec, kind):
    x = _fuzz_operand(rng, prec)
    sign = -1 if rng.random() < 0.5 else 1
    if kind == "carry":
        # two all-ones mantissas of prec bits: the sum carries to 2^(prec+1)
        top = (1 << prec) - 1
        x = from_man_exp(sign * (top - rng.randrange(0, 4)), x[2])
        return x, from_man_exp(sign * (top - rng.randrange(0, 4)), x[2] + rng.randrange(-2, 3))
    if kind == "tie":
        # an odd prec-bit mantissa plus an odd one a bit below it: the sum
        # has prec + 1 bits and ends in 1, halfway between neighbours
        m = rng.getrandbits(prec - 1) | 1 << (prec - 1) | 1
        x = from_man_exp(sign * m, x[2])
        return x, from_man_exp(rng.choice((-1, 1)) * (2 * rng.randrange(0, 8) + 1), x[2] - 1)
    if kind == "zero":
        return (x, fzero) if rng.random() < 0.5 else (fzero, x)
    if kind == "gap":
        # exponents more than prec + 100 apart: mpf_add's sticky-bit path
        far = _fuzz_operand(rng, prec, x[2] + x[3] + prec + 100 + rng.randrange(1, 3 * prec))
        return (x, far) if rng.random() < 0.5 else (far, x)
    return x, _fuzz_operand(rng, prec)


def test_integer_midpoint_matches_mpf_add():
    rng = random.Random(8)
    kinds = ("any", "carry", "tie", "zero", "gap")
    ties = 0
    for i in range(20000):
        prec = (53, 60, 170, 402, 834)[i % 5]
        x, y = _fuzz_pair(rng, prec, kinds[i // 5 % 5])
        e = min([v[2] for v in (x, y) if v[1]] or [0]) - 1
        total = abs(_lift(x, e) + _lift(y, e))
        odd = total >> (total & -total).bit_length() - 1 if total else 0
        # an exact sum of prec + 1 significant bits is a tie: halfway between
        # its two prec-bit neighbours
        ties += odd.bit_length() == prec + 1
        want = mpf_shift(mpf_add(x, y, prec, round_nearest), -1)
        assert from_man_exp(_midpoint(_lift(x, e), _lift(y, e), prec), e) == want, (prec, x, y)
    assert ties >= 3000
