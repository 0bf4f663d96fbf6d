"""The hand-rounded integer arithmetic behind the caterpillar and tau0 probes.

``scalar._round`` rounds an integer count of 2^-g to a precision, to
nearest with ties to even; ``_mul`` and ``_div`` form products and
quotients on the same grid, and ``_on_grid`` reruns a kernel on a finer
grid when a rounded value falls below it. Each is fuzzed here against the
libmp operation it stands for, bit for bit. The live probes built on them
are checked against Scalar loops of the same formulas, also on grids
coarse enough that every probe has to be rerun: a caterpillar probes bit
for bit as the tree it expands to, so its probe is checked against the
Scalar loop of the leaf-folded recurrence on its fold
(``test_tree_kernel._reference_probe_at``), and tau0's probe against the
Scalar form of its h.
"""

import random
from fractions import Fraction

import pytest
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_sub,
    round_nearest,
    to_rational,
)

import deflap.diagonalize
import deflap.limits
import deflap.scalar
from deflap.diagonalize import _fold, _pivots, approximate_radius
from deflap.limits import s_star, tau0
from deflap.scalar import (
    PrecisionContext,
    _div,
    _lift,
    _mul,
    _OffGrid,
    _on_grid,
    _round,
    find_root,
)
from deflap.shearer import generate
from deflap.trees import Caterpillar

from test_limits import TABLE as TAU0_TABLE
from test_root_finder import _assert_backbone_loops_match, _probe

RND = round_nearest


def _operand(rng, prec, exp=None):
    # a nonzero value of at most prec bits, either sign
    bits = rng.choice((1, 2, rng.randrange(1, prec + 1), prec, prec))
    man = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    if exp is None:
        exp = rng.randrange(-3 * prec, 2 * prec)
    return from_man_exp(rng.choice((-1, 1)) * man, exp)


def _pair(rng, prec, kind):
    x = _operand(rng, prec)
    if kind == "tie":
        # x + y has prec + 1 bits ending in 1: halfway between neighbours
        m = rng.getrandbits(prec - 1) | 1 << (prec - 1) | 1
        x = from_man_exp(rng.choice((-1, 1)) * m, x[2])
        return x, from_man_exp(rng.choice((-1, 1)) * (2 * rng.randrange(0, 8) + 1), x[2] - 1)
    if kind == "gap":
        # exponents more than prec + 100 apart: mpf_add's sticky-bit path
        far = _operand(rng, prec, x[2] + x[3] + prec + 100 + rng.randrange(1, 3 * prec))
        return (x, far) if rng.random() < 0.5 else (far, x)
    if kind == "near":
        # nearly equal magnitudes: cancellation
        y = from_man_exp(-x[1] * (-1) ** x[0] + rng.randrange(-4, 5), x[2])
        return x, y if y[1] else x
    return x, _operand(rng, prec, x[2] + rng.randrange(-prec, prec))


def _on_grid_value(op, prec, x, y):
    # op on x, y as counts of one grid, rerun finer as needed, as a tuple
    return _on_grid(lambda g, a, b: from_man_exp(op(g, a, b), -g), prec, (x, y))


INT_OPS = (
    ("add", lambda p: lambda g, a, b: _round(a + b, p), mpf_add),
    ("sub", lambda p: lambda g, a, b: _round(a - b, p), mpf_sub),
    ("mul", lambda p: lambda g, a, b: _mul(a, b, p, g), mpf_mul),
    ("div", lambda p: lambda g, a, b: _div(a, b, p, g), mpf_div),
)


def test_integer_ops_match_libmp():
    rng = random.Random(21)
    kinds = ("any", "tie", "gap", "near")
    for i in range(6000):
        digits = rng.randrange(20, 301)
        prec = PrecisionContext(digits).prec
        x, y = _pair(rng, prec, kinds[i % 4])
        for name, op, libmp_op in INT_OPS:
            if name == "div" and not y[1]:
                continue
            want = libmp_op(x, y, prec, RND)
            assert _on_grid_value(op(prec), prec, x, y) == want, (name, digits, x, y)


def test_integer_ties_go_to_even():
    # exact sums and products halfway between two prec-bit neighbours
    rng = random.Random(22)
    ties = 0
    for _ in range(3000):
        prec = PrecisionContext(rng.randrange(20, 301)).prec
        x, y = _pair(rng, prec, "tie")
        assert _on_grid_value(INT_OPS[0][1](prec), prec, x, y) == mpf_add(x, y, prec, RND)
        # odd a and b of a + b = prec + 1 bits: a product of prec + 1
        # bits ending in 1, or of prec bits, which is exact
        a = rng.randrange(2, prec)
        u = from_man_exp(rng.choice((-1, 1)) * (rng.getrandbits(a - 1) | 1 << (a - 1) | 1), rng.randrange(-prec, prec))
        v = from_man_exp(rng.choice((-1, 1)) * (rng.getrandbits(prec - a) | 1 << (prec - a) | 1), rng.randrange(-prec, prec))
        exact = u[1] * v[1]
        ties += exact.bit_length() == prec + 1
        assert _on_grid_value(INT_OPS[2][1](prec), prec, u, v) == mpf_mul(u, v, prec, RND)
    assert ties >= 1000


def test_integer_division_sticky_remainder():
    # p = q T + rem with T halfway between two prec-bit neighbours: a zero
    # remainder is a tie, which goes to even, and any other rounds up
    rng = random.Random(23)
    for _ in range(3000):
        prec = PrecisionContext(rng.randrange(20, 301)).prec
        tie = rng.getrandbits(prec - 1) << 1 | 1 << prec | 1
        q = rng.getrandbits(rng.randrange(2, 2 * prec)) | 1
        for rem in {0, 1, q // 2, q - 1}:
            p = q * tie + rem
            for sp, sq in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                got = from_man_exp(_div(sp * p, sq * q, prec, 0), 0)
                assert got == mpf_div(from_int(sp * p), from_int(sq * q), prec, RND)
                exact = Fraction(sp * p, sq * q)
                low = Fraction(*to_rational(got)) if got != fzero else Fraction(0)
                assert abs(low - exact) <= abs(exact) / 2 ** prec


def test_integer_multiples_match_libmp():
    # delta * r_j: a prec-bit value times an int count, rounded once
    rng = random.Random(24)
    for _ in range(4000):
        prec = PrecisionContext(rng.randrange(20, 301)).prec
        x = _operand(rng, prec)
        r = rng.choice((0, 1, 2, 3, rng.randrange(4, 10 ** 4), rng.randrange(10 ** 4, 10 ** 7)))
        g = max(prec + 64, -x[2])
        got = from_man_exp(_round(_lift(x, -g) * r, prec), -g)
        assert got == mpf_mul(x, from_int(r), prec, RND)


def test_round_refuses_values_below_the_grid():
    # a product or quotient whose rounded bits reach below 2^-g raises,
    # and one that lands on the grid exactly does not
    prec = 60
    g = 10
    third = _div(1 << g, 3 << g, prec, g + 100)
    assert third > 0
    with pytest.raises(_OffGrid):
        _div(1 << g, 3 << g, prec, g)
    with pytest.raises(_OffGrid):
        _mul(3, 3, prec, g)
    assert _mul(3 << g, 3 << g, prec, g) == 9 << g
    assert _div(1 << g, 4 << g, prec, g) == 1 << (g - 2)
    # 2^80 + 2^21 has 60 bits; 2^80 + 2^20 lies halfway below it
    assert _round(-(2 ** 80 + 2 ** 21), prec) == -(2 ** 80 + 2 ** 21)
    assert _round(-(2 ** 80 + 2 ** 20), prec) == -(2 ** 80)
    assert _round(-(2 ** 80 + 2 ** 20 + 1), prec) == -(2 ** 80 + 2 ** 21)
    assert _round(-(2 ** 80 + 3 * 2 ** 20), prec) == -(2 ** 80 + 2 ** 22)
    assert _round(2 ** 80 + 3 * 2 ** 20, prec) == 2 ** 80 + 2 ** 22


# -- the live probes ------------------------------------------------------


def _points_around(est, lam, ctx):
    ulp = est.high - est.low
    out = [est.low, est.high, lam, (est.low + est.high).halved()]
    for m in (1, 3, 1000):
        out += [est.low - m * ulp, est.high + m * ulp]
    out += [lam - ctx.power_of_ten(-8), ctx.scalar(1) + ctx.power_of_ten(-30)]
    return [c for c in out if c > 1]


@pytest.fixture(scope="module")
def flagship():
    ctx = PrecisionContext(250)
    lam = ctx.scalar(2025)
    s = s_star(lam).halved()
    run = generate(lam, s, 150, ctx=ctx)
    est = approximate_radius(run.caterpillar(), s, ctx.scalar(1), lam, target_digits=220)
    return run.caterpillar(), s, est, lam


def test_flagship_probe_matches_frozen_copy(flagship):
    cat, s, est, lam = flagship
    ctx = s.ctx
    for c in _points_around(est, lam, ctx):
        _assert_backbone_loops_match(cat, s, c)
    # the bracket's ends straddle rho: below it a pivot turns nonnegative
    assert _probe(cat, s, est.low, False)[0] is False
    assert _probe(cat, s, est.high, False)[0] is True


def test_random_probes_match_frozen_copy_at_120_and_250_digits():
    rng = random.Random(25)
    for digits in (120, 250):
        ctx = PrecisionContext(digits)
        for _ in range(6):
            lam = ctx.scalar("%.6g" % rng.uniform(1.6, 50))
            s = s_star(lam).halved()
            run = generate(lam, s, rng.randrange(2, 25), ctx=ctx)
            est = approximate_radius(run.caterpillar(), s, 1, lam)
            for c in _points_around(est, lam, ctx):
                _assert_backbone_loops_match(run.caterpillar(), s, c)
        for _ in range(10):
            cat = Caterpillar([rng.randrange(0, 60) for _ in range(rng.randrange(2, 30))])
            s = ctx.scalar("%.12g" % rng.uniform(-3, 3))
            for _ in range(4):
                _assert_backbone_loops_match(cat, s, ctx.scalar("%.20g" % rng.uniform(-1, 40)))


def _record_grids(monkeypatch):
    grids = []
    kernel = deflap.diagonalize._pivots

    def recording(fold, s2, c, prec, slope, g):
        grids.append(g)
        return kernel(fold, s2, c, prec, slope, g)

    monkeypatch.setattr(deflap.diagonalize, "_pivots", recording)
    return grids


def test_coarse_grid_reruns_the_probe_bit_for_bit(monkeypatch, flagship):
    # a guard far below the precision starts every probe on a grid too
    # coarse for its quotients; each reruns finer and ends as before
    rng = random.Random(26)
    ctx = PrecisionContext(120)
    cases = [(Caterpillar([rng.randrange(0, 30) for _ in range(rng.randrange(2, 12))]),
              ctx.scalar("%.10g" % rng.uniform(-2, 2)),
              ctx.scalar("%.15g" % rng.uniform(1.01, 30))) for _ in range(20)]
    cat, s, est, lam = flagship
    cases += [(cat, s, c) for c in _points_around(est, lam, s.ctx)]
    grids = _record_grids(monkeypatch)
    for cat, s, c in cases:
        monkeypatch.setattr(deflap.scalar, "_GUARD", 8 - s.ctx.prec)
        _assert_backbone_loops_match(cat, s, c)
    # some probe ran on more than one grid, the first one coarser than prec
    assert any(a < b for a, b in zip(grids, grids[1:]))
    assert min(grids) < ctx.prec


def test_backbone_on_a_coarse_grid_raises():
    ctx = PrecisionContext(50)
    s2, c = ctx.scalar("0.49").raw(), ctx.scalar("3.3").raw()
    g = max(-c[2], -s2[2])
    with pytest.raises(_OffGrid):
        list(_pivots(_fold(Caterpillar([2, 3, 1])), _lift(s2, -g), _lift(c, -g), ctx.prec, False, g))


def _frozen_h(s):
    # tau0's probe as it ran on Scalars
    s2 = s * s
    s4 = s2 * s2

    def probe(t, slope):
        w = 1 + s2 - t
        pole_part = 1 + 1 / (t - 1)
        value = w * w - 4 * s2 - s4 * pole_part * pole_part
        side = value.sign()
        if not slope:
            return side, None
        u = t - 1
        deriv = 2 * (s4 * pole_part / (u * u) - w)
        if deriv.sign() <= 0:
            return side, None
        return side, -value / deriv

    return probe


def _h_outcome(probe, t, slope):
    side, step = probe(t, slope)
    return side, None if step is None else step.raw()


@pytest.mark.parametrize("coarse", [False, True])
def test_tau0_probe_matches_scalar_formula(monkeypatch, coarse):
    # capture the probe tau0 hands find_root, then compare it with the
    # Scalar h at the finder's own points and at points around the root;
    # a coarse grid reruns the probes that need finer ones
    probes = []
    grids = []
    on_grid = deflap.scalar._on_grid

    def recording(kernel, prec, raws, *args):
        grids.append([])

        def run(g, *values):
            grids[-1].append(g)
            return kernel(g, *values)

        return on_grid(run, prec, raws, *args)

    monkeypatch.setattr(deflap.limits, "_on_grid", recording)

    def capture(probe, lo, hi, iters, start, step):
        probes.append((probe, lo, hi))
        return find_root(probe, lo, hi, iters, start, step)

    monkeypatch.setattr(deflap.limits, "find_root", capture)
    for digits in (20, 50, 120):
        ctx = PrecisionContext(digits)
        monkeypatch.setattr(deflap.scalar, "_GUARD", 8 - ctx.prec if coarse else 64)
        for s_text in [row[0] for row in TAU0_TABLE] + ["1e-7", "-2.5e-4", "40"]:
            s = ctx.scalar(s_text)
            root = tau0(s)
            probe, lo, hi = probes[-1]
            frozen = _frozen_h(s)
            tiny = ctx.power_of_ten(-digits + 3)
            points = [lo, hi, root, root * (1 + tiny), root * (1 - tiny), (lo + hi).halved()]
            for t in points:
                for slope in (False, True):
                    assert _h_outcome(probe, t, slope) == _h_outcome(frozen, t, slope), (s_text, t)
    # on the coarse grids some probes ran again on a finer grid (so does
    # the probe at lo for s = 1e-7, whose w^2 is about 2^-93)
    assert any(len(tried) > 1 for tried in grids)
    assert sum(len(tried) > 1 for tried in grids) > (30 if coarse else 0)
