"""Greedy caterpillar generation with certified error bounds.

Fix lam > (1 + |s|)^2 and s != 0. Walking the backbone left to right,
each leaf count r_j is chosen as the largest integer keeping the sweep
value b_j below the repelling fixed point theta'; the floor formula
places every b_j inside the window (theta' - delta, theta'), which
forces every output negative and hence rho(T_k) < lam for every k,
while rho(T_k) -> lam as k grows.

The b values are exquisitely noise-sensitive: a perturbation entering at
position j is amplified by roughly beta_j (the logarithmic derivative of
b_j with respect to the probe point), which grows geometrically. The
generator therefore runs on an internal precision ladder and only
accepts a run once its working precision exceeds the magnitude of
beta_k by a safe margin; inputs are re-materialized from their exact
specs (ints, decimal strings, or closures) at every rung.

The certificate lam - rho(T_k) < eps_k <= 1/beta_k (J. Shearer, "On the
distribution of the maximum eigenvalue of graphs", LAA 114/115 (1989)
17-20) takes eps_k from one radius search on the folded backbone of the
whole T_k, each probe one O(k) pass; the convergence report brackets
the same radius with the same search at its own width.
"""

from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    round_floor,
    round_nearest,
    to_int,
)

from .scalar import (
    BracketingError,
    DomainError,
    PrecisionContext,
    PrecisionError,
    Scalar,
    halvings,
    infer_context,
    materialize,
    scalar_from_raw,
)
from .trees import Caterpillar
from .diagonalize import approximate_radius
from .recurrence import recurrence_params


_RND = round_nearest


class InvalidRunError(DomainError):
    """A run whose b values are not all negative; bounds do not apply."""


class _NeedMorePrecision(Exception):
    pass


MAX_LADDER_ROUNDS = 8
BETA_MARGIN_DIGITS = 25
# eps_k's search resolves alpha_k = 1/beta_k to EPS_DIGITS relative
# digits, comfortably inside the ladder's noise floor (beta_k 10^-wd is at
# worst 1e-35 relative), and refuses a final width below 2^EPS_GUARD_BITS
# ulp of lam
EPS_DIGITS = 25
EPS_GUARD_BITS = 8
COUNTS_FULL_LIMIT = 12  # counts_cell prints longer vectors as 6 .. 3


class ShearerRun:
    """One generated caterpillar with its sweep and diagnostic traces.

    counts are exact ints; b_trace and beta_trace are the backbone sweep
    values at the probe point lam and their noise amplification factors,
    rounded into the caller's context, which is ``lam.ctx``.
    generation_digits records the ladder rung that produced the counts;
    the exact input specs are kept so error certificates can
    re-materialize lam and s at any precision. The recurrence constants
    are ``recurrence_params(run.s, run.lam)``.
    """

    __slots__ = (
        "lam",
        "s",
        "counts",
        "b_trace",
        "beta_trace",
        "generation_digits",
        "lam_spec",
        "s_spec",
    )

    def __init__(self, lam, s, counts, b_trace, beta_trace, generation_digits, lam_spec, s_spec):
        self.lam = lam
        self.s = s
        self.counts = counts
        self.b_trace = b_trace
        self.beta_trace = beta_trace
        self.generation_digits = generation_digits
        self.lam_spec = lam_spec
        self.s_spec = s_spec

    @property
    def k(self):
        return len(self.counts)

    def caterpillar(self):
        return Caterpillar(self.counts)

    def __repr__(self):
        return "ShearerRun(k=%d, lam=%s, s=%s)" % (
            self.k,
            self.lam.to_decimal_string(10),
            self.s.to_decimal_string(10),
        )


class EpsilonBound:
    """A certified upper bound eps on lam - rho(T_k).

    value is (lam - low) + width for the one radius search of
    :func:`epsilon_k`. certified means both ends of that bracket had
    their signs verified by :func:`deflap.scalar.find_root` at the
    working precision, so rho(T_k) > lam - eps rigorously.
    """

    __slots__ = ("k", "value", "certified")

    def __init__(self, k, value, certified):
        self.k = k
        self.value = value
        self.certified = certified

    def __repr__(self):
        return "EpsilonBound(k=%d, %s, certified=%r)" % (
            self.k,
            self.value.to_decimal_string(10),
            self.certified,
        )


def _guarded_floor(t, guard, top, prec):
    # a floor taken within guard of an integer is one rounding error away
    # from being wrong; force a retry at higher precision instead. t,
    # guard and top = 1 - guard are raw tuples
    f = int(to_int(t, round_floor))
    frac = mpf_sub(t, from_int(f, prec, _RND), prec, _RND)
    if mpf_cmp(frac, guard) < 0 or mpf_cmp(frac, top) > 0:
        raise _NeedMorePrecision()
    if f < 0:
        raise InvalidRunError("negative leaf count; parameters are inconsistent")
    return f


def _generate_at(p, k, wctx):
    """One full generation pass at a fixed working precision.

    Returns (counts, b values as raw tuples) or raises _NeedMorePrecision
    when a floor argument is too close to an integer or a value leaves
    its window. The pass runs on raw libmp tuples, each operation
    rounded to the working precision as Scalar arithmetic would round it.
    """
    prec = wctx.prec
    lam, s = p.lam.raw(), p.s.raw()
    s2 = mpf_mul(s, s, prec, _RND)
    delta, thp = p.delta.raw(), p.theta_prime.raw()
    lo_window = mpf_sub(thp, delta, prec, _RND)
    guard = wctx.power_of_ten(-wctx.digits + 10).raw()
    top = mpf_sub(fone, guard, prec, _RND)

    def windowed(b):
        if not (mpf_cmp(lo_window, b) < 0 and mpf_cmp(b, thp) < 0):
            raise _NeedMorePrecision()
        return b

    def leaf_count(numerator):
        return _guarded_floor(mpf_div(numerator, delta, prec, _RND), guard, top, prec)

    r1 = leaf_count(mpf_sub(mpf_add(thp, lam, prec, _RND), fone, prec, _RND))
    b = mpf_mul(delta, from_int(r1, prec, _RND), prec, _RND)
    b = windowed(mpf_add(mpf_sub(fone, lam, prec, _RND), b, prec, _RND))
    counts = [r1]
    bs = [b]
    # 1 + s2 - lam, shared by every step
    alpha = mpf_sub(mpf_add(fone, s2, prec, _RND), lam, prec, _RND)
    for j in range(1, k):
        step = mpf_sub(alpha, mpf_div(s2, b, prec, _RND), prec, _RND)
        if j == k - 1:
            step = mpf_sub(step, s2, prec, _RND)
        r = leaf_count(mpf_sub(thp, step, prec, _RND))
        b = mpf_mul(delta, from_int(r, prec, _RND), prec, _RND)
        b = windowed(mpf_add(step, b, prec, _RND))
        counts.append(r)
        bs.append(b)
    return counts, bs


def _betas_at(counts, bs, lam, s, prec):
    """Noise amplification factors beta_1..beta_k for one run.

    beta_j is b_j'(0)/(-b_j(0)) for the probe family lam - eps: the
    relative growth a perturbation of the probe point suffers by the
    time it reaches position j. Computed by the first-order recurrence
    beta_j = c_j + g_j*beta_{j-1}, on raw tuples at ``prec``.
    """
    s2 = mpf_mul(s, s, prec, _RND)
    lm1 = mpf_sub(lam, fone, prec, _RND)
    lm1_sq = mpf_mul(lm1, lm1, prec, _RND)
    out = []
    prev = None
    for j, (r, b) in enumerate(zip(counts, bs)):
        # c_j = (1 + r s2 / (lam - 1)^2) / (-b_j)
        c = mpf_div(mpf_mul(s2, from_int(r, prec, _RND), prec, _RND), lm1_sq, prec, _RND)
        c = mpf_div(mpf_add(c, fone, prec, _RND), mpf_neg(b), prec, _RND)
        if j == 0:
            beta = c
        else:
            g = mpf_div(s2, mpf_mul(bs[j - 1], b, prec, _RND), prec, _RND)
            beta = mpf_add(c, mpf_mul(g, prev, prec, _RND), prec, _RND)
        out.append(beta)
        prev = beta
    return out


def generate(lam, s, k, ctx=None):
    """Generate the k-node caterpillar whose radius approaches lam.

    lam and s may be ints, decimal strings, Scalars, or callables
    ctx -> Scalar; strings and callables are re-materialized exactly at
    every internal precision, which matters because the counts depend on
    digits of s far beyond any fixed rounding. s = 0 is degenerate
    (delta vanishes) and s must be adapted to lam. Raises PrecisionError
    when the ladder cannot stabilize the run.
    """
    if ctx is None:
        ctx = infer_context(lam, s)
    k = int(k)
    if k < 2:
        raise DomainError("need a backbone of at least 2 nodes")
    lam_user = materialize(lam, ctx)
    s_user = materialize(s, ctx)
    if s_user.is_zero:
        raise DomainError("s = 0 is degenerate: leaves add nothing and no finite counts exist")
    if not recurrence_params(s_user, lam_user).adapted:
        raise DomainError(
            "s is not adapted to lam (need lam > (1+|s|)^2); generation undefined"
        )
    digits = max(ctx.digits, 60)
    need = None
    for _ in range(MAX_LADDER_ROUNDS):
        wctx = PrecisionContext(digits)
        lam_w = materialize(lam, wctx)
        s_w = materialize(s, wctx)
        p = recurrence_params(s_w, lam_w)
        if not p.adapted:
            raise DomainError("adaptedness is borderline at %d digits; refusing" % digits)
        try:
            counts, bs = _generate_at(p, k, wctx)
        except _NeedMorePrecision:
            digits *= 2
            continue
        betas = _betas_at(counts, bs, lam_w.raw(), s_w.raw(), wctx.prec)
        need = Scalar(betas[-1], wctx).decimal_magnitude() + BETA_MARGIN_DIGITS
        if need <= digits:
            return ShearerRun(
                lam_user,
                s_user,
                tuple(counts),
                [scalar_from_raw(b, ctx) for b in bs],
                [scalar_from_raw(b, ctx) for b in betas],
                digits,
                lam,
                s,
            )
        digits = need + 10
    raise PrecisionError(
        "generation did not stabilize in %d rounds; last round wanted %s digits"
        % (MAX_LADDER_ROUNDS, need)
    )


def beta_sequence(run, method="recurrence"):
    """Recompute the amplification factors from a run's stored trace.

    method "recurrence" uses the first-order pass; "sum" expands each
    beta_j as the weighted sum over all entry positions i <= j, which is
    algebraically identical and serves as a consistency check.
    """
    if any(b.sign() >= 0 for b in run.b_trace):
        raise InvalidRunError("run has a nonnegative b value; not a valid run")
    lam, s = run.lam, run.s
    if method == "recurrence":
        bs = [b.raw() for b in run.b_trace]
        betas = _betas_at(run.counts, bs, lam.raw(), s.raw(), lam.ctx.prec)
        return [Scalar(beta, lam.ctx) for beta in betas]
    if method != "sum":
        raise DomainError("method must be 'recurrence' or 'sum'")
    s2 = s * s
    lm1_sq = (lam - 1) * (lam - 1)
    bs = run.b_trace
    cs = [(1 + r * s2 / lm1_sq) / (-b) for r, b in zip(run.counts, bs)]
    gs = [None] + [s2 / (bs[j - 1] * bs[j]) for j in range(1, len(bs))]
    out = []
    for j in range(len(bs)):
        total = cs[j]
        weight = None
        for i in range(j, 0, -1):
            weight = gs[i] if weight is None else weight * gs[i]
            total = total + weight * cs[i - 1]
        out.append(total)
    return out


def _radius_bracket(run, lam, width, guard_bits=None):
    """Bracket rho(T_k) as the halvings of [1, lam] that shrink it to
    about ``width`` would, at lam's precision.

    One :func:`deflap.diagonalize.approximate_radius` search on the folded
    backbone, with s re-materialized at that precision. With
    ``guard_bits``, a final width below 2^guard_bits ulp of lam raises
    PrecisionError before the search: rounding, not the root, would
    decide the last halvings. Raises InvalidRunError when the probe at
    lam is not all-negative.
    """
    pctx = lam.ctx
    s = materialize(run.s_spec, pctx)
    span = lam - 1
    iters = halvings(span, -width.decimal_magnitude())
    if guard_bits is not None:
        _, _, exp, bc = lam.raw()
        floor = from_man_exp(1, exp + bc - pctx.prec + guard_bits)
        if mpf_cmp(mpf_shift(span.raw(), -iters), floor) < 0:
            raise PrecisionError(
                "%d halvings fall below 2^%d ulp of lam at %d digits; raise the precision"
                % (iters, guard_bits, pctx.digits)
            )
    try:
        return approximate_radius(run.caterpillar(), s, 1, lam, iterations=iters)
    except BracketingError:
        raise InvalidRunError("T_%d has an eigenvalue at or above lam; not a valid run" % run.k)


def epsilon_k(run, target_digits=None):
    """Certified upper bound on lam - rho(T_k) from one radius search.

    The all-negative probe of the whole T_k is monotone in the point by
    Sylvester's law, so it has no poles, and Newton steps from lam, which
    lies above every eigenvalue, fall straight onto rho(T_k). So one
    bracket search on [1, lam] finds it, each probe one O(k) pass along
    the folded backbone. It runs at the generation's precision plus 10
    digits (or target_digits + 10, when larger) with the halvings that
    resolve alpha_k = 1/beta_k to EPS_DIGITS relative digits, and both
    bracket ends carry probed signs. The bound is (lam - low) + width,
    rounded up into the caller's context. Raises InvalidRunError when
    T_k's probe at lam is not all-negative, and PrecisionError when the
    final width would fall below 2^EPS_GUARD_BITS ulp of lam.
    """
    wd = run.generation_digits + 10
    if target_digits is not None:
        wd = max(wd, int(target_digits) + 10)
    wctx = PrecisionContext(wd)
    lam = materialize(run.lam_spec, wctx)
    width = (1 / wctx.scalar(run.beta_trace[-1])) * wctx.power_of_ten(-EPS_DIGITS)
    est = _radius_bracket(run, lam, width, EPS_GUARD_BITS)
    padded = (lam - est.low) + est.width()
    # round into the caller's context keeping the bound valid from above
    ctx = run.lam.ctx
    value = ctx.scalar(padded * (1 + wctx.power_of_ten(-ctx.digits + 2)))
    return EpsilonBound(run.k, value, True)


class ReportRow:
    __slots__ = ("k", "counts", "rho", "error")

    def __init__(self, k, counts, rho, error):
        self.k = k
        self.counts = counts
        self.rho = rho
        self.error = error

    def cells(self, digits, key=None):
        """CSV cells (key, counts, rho, error); key defaults to k."""
        return (
            str(self.k) if key is None else key,
            counts_cell(self.counts),
            self.rho.to_decimal_string(digits),
            self.error.to_decimal_string(digits),
        )


class ConvergenceReport:
    """Radius and gap lam - rho(T_k) for a family of generated runs."""

    __slots__ = ("lam", "s", "rows")

    def __init__(self, lam, s, rows):
        self.lam = lam
        self.s = s
        self.rows = rows


def format_counts(counts):
    """Counts as a bracketed space-separated cell, CSV-safe (no commas)."""
    return "[%s]" % " ".join(str(c) for c in counts)


def convergence_report(lam, s, ks, ctx=None):
    """Generate T_k for each k and bracket rho(T_k) with approximate_radius.

    The bracket is found at whatever precision the run's beta_k demands,
    re-materializing lam and s there, and resolves the gap lam - rho to
    a relative 1e-5 or to lam*10^-digits at ``ctx``'s digits, whichever
    is finer.
    """
    if ctx is None:
        ctx = infer_context(lam, s)
    rows = []
    lam_user = materialize(lam, ctx)
    s_user = materialize(s, ctx)
    for k in ks:
        run = generate(lam, s, k, ctx)
        beta_k = run.beta_trace[-1]
        probe_digits = max(ctx.digits, beta_k.decimal_magnitude() + BETA_MARGIN_DIGITS)
        pctx = PrecisionContext(probe_digits)
        lam_p = materialize(run.lam_spec, pctx)
        width_cap = lam_p * pctx.power_of_ten(-ctx.digits)
        width = (1 / pctx.scalar(beta_k)) * pctx.power_of_ten(-5)
        if width_cap < width:
            width = width_cap
        est = _radius_bracket(run, lam_p, width)
        rho = est.value()
        rows.append(ReportRow(k, run.counts, ctx.scalar(rho), ctx.scalar(lam_p - rho)))
    return ConvergenceReport(lam_user, s_user, rows)


def counts_cell(counts):
    """Table cell for a counts vector: full when short, else 6 .. 3."""
    if len(counts) > COUNTS_FULL_LIMIT:
        counts = list(counts[:6]) + [".."] + list(counts[-3:])
    return format_counts(counts)
