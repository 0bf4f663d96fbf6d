"""Limit points of caterpillar radii and the threshold s*(lam).

For fixed s != 0, the smallest limit point tau0(s) of the radii of
caterpillars with unbounded backbone is the unique root above 1 of

    h(t) = (1 + s^2 - t)^2 - 4 s^2 - s^4 (1 + 1/(t - 1))^2,

equivalently of the quartic (t-1)^2 h(t), which is what
tau0_quartic_residual evaluates. At s = 1 the root has the closed
radical form returned by laplacian_closed_form.

For fixed lam, convergence_margin(s, lam) = theta' - delta + s is
positive exactly when the generated caterpillars converge at the
geometric rate; s_star(lam) is its root in s, past which generation
still works but convergence degrades. It has a closed cubic-formula
expression, cross-checked here against the margin and against its own
quartic before being returned.

tau0's probe evaluates h and h' on Python integers counting 2^-g, each
operation rounded by hand as the Scalar formula would round it
(:func:`deflap.scalar._round`), so its signs and Newton steps are bit
for bit those of Scalar arithmetic.
"""

from .recurrence import recurrence_params
from .scalar import (
    BracketingError,
    DomainError,
    PrecisionContext,
    Scalar,
    ScalarError,
    context_from_env,
    find_root,
    infer_context,
    materialize,
)
from .scalar import _div, _drop, _mul, _on_grid, _round


class ConsistencyError(ScalarError, RuntimeError):
    """Independent formulas for the same quantity disagree."""


def tau0(s):
    """The smallest limit point of caterpillar radii, for this s.

    Works at the digits of s when it is a Scalar, else at the
    environment's. Brackets h on [1 + 10^(-digits/2),
    1 + 2s^2 + 2*sqrt(2)*|s|]; the upper end comes from the radius bound
    at maximum degree 3 and the lower end stays below the root for every
    |s| above about 10^(-digits/2), since tau0(s) - 1 grows linearly in
    |s|. The root is the midpoint that int(3.33 digits) + 8 halvings of
    that bracket end on, found by :func:`deflap.scalar.find_root` with
    Newton steps down from the upper end, using h'(t) in closed form.
    The result is cross-checked against the quartic before returning.
    """
    ctx = infer_context(s)
    s = materialize(s, ctx)
    if s.is_zero:
        raise DomainError("s = 0 is degenerate: every radius is 1 and no limit points exist")
    prec = ctx.prec
    s2 = s * s
    s4 = (s2 * s2).raw()

    def h(g, t, s2, s4, slope):
        # h(t) = w^2 - 4 s^2 - s^4 (1 + 1/(t - 1))^2 with w = 1 + s^2 - t,
        # h'(t) = -2w + 2 s^4 (1 + 1/(t - 1)) / (t - 1)^2, on integers
        # counting 2^-g, each op rounded as the Scalar formula rounds it
        one = 1 << g
        w = _round(_round(one + s2, prec) - t, prec)
        u = _round(t - one, prec)
        pole_part = _round(one + _div(one, u, prec, g), prec)
        scaled = _mul(s4, pole_part, prec, g)
        value = _round(_round(_mul(w, w, prec, g) - 4 * s2, prec) - _mul(scaled, pole_part, prec, g), prec)
        side = (value > 0) - (value < 0)
        if not slope:
            return side, None
        deriv = 2 * _round(_div(scaled, _mul(u, u, prec, g), prec, g) - w, prec)
        if deriv <= 0:
            return side, None
        return side, -_drop(value, -g, ctx) / _drop(deriv, -g, ctx)

    def probe(t, slope):
        return _on_grid(h, prec, (t.raw(), s2.raw(), s4), slope)

    lo = 1 + ctx.power_of_ten(-(ctx.digits // 2))
    hi = 1 + 2 * s2 + 2 * ctx.scalar(2).sqrt() * abs(s)
    if probe(lo, False)[0] >= 0:
        raise BracketingError("h is not negative at the lower end; |s| is too small")
    side, step = probe(hi, True)
    if side <= 0:
        raise BracketingError("h is not positive at the upper end")
    found = find_root(probe, lo, hi, int(ctx.digits * 3.33) + 8, hi, step)
    root = found.zero if found.zero is not None else (found.low + found.high).halved()
    residual = tau0_quartic_residual(root, s)
    scale = (abs(root) + 1) ** 3
    if abs(residual) > scale * ctx.power_of_ten(-ctx.digits + 12):
        raise ConsistencyError(
            "tau0 root fails its quartic cross-check (residual %s)"
            % residual.to_decimal_string(5)
        )
    return root


def tau0_quartic_residual(t, s):
    """Value at t of the quartic (t-1)^2 h(t); zero exactly at tau0(s)."""
    if not isinstance(t, Scalar):
        raise DomainError("t must be a Scalar")
    ctx = t.ctx
    s = ctx.scalar(s)
    s2 = s * s
    s4 = s2 * s2
    c3 = -2 * s2 - 4
    c2 = 2 * s2 + 6
    c1 = -2 * s4 + 2 * s2 - 4
    c0 = s4 - 2 * s2 + 1
    return (((t + c3) * t + c2) * t + c1) * t + c0


def laplacian_closed_form(ctx=None):
    """tau0 at s = 1 in radicals: cbrt(54 + 6*sqrt(33))/3 + 4/cbrt(...) + 2."""
    if ctx is None:
        ctx = context_from_env()
    c = (54 + 6 * ctx.scalar(33).sqrt()).cbrt()
    return c / 3 + 4 / c + 2


def convergence_margin(s, lam):
    """theta' - delta + s: positive iff generation converges geometrically."""
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    p = recurrence_params(s, lam)
    if not p.adapted:
        raise DomainError("margin needs s adapted to lam (lam > (1+|s|)^2)")
    return p.theta_prime - p.delta + s


def _s_star_quartic_residual(x, lam):
    # -4*lam*s^4 + (4*lam^2-4)*s^3 + (-4*lam^3+12*lam-8)*s^2
    #            + (4*lam^3-12*lam^2+12*lam-4)*s, zero at s*
    c4 = -4 * lam
    c3 = 4 * lam * lam - 4
    c2 = -4 * lam ** 3 + 12 * lam - 8
    c1 = 4 * lam ** 3 - 12 * lam * lam + 12 * lam - 4
    return (((c4 * x + c3) * x + c2) * x + c1) * x


def s_star(lam):
    """The root of the convergence margin in s, by the cubic formula.

    Returns a Scalar at the digits of lam when it is a Scalar, else at
    the environment's. The radical expression cancels roughly
    log10(lam^3) digits, so it works at that many digits more, and at
    least 15 more, than the result's, then verifies three ways before
    returning: the margin vanishes at the result, the result's own
    quartic vanishes, and the value lies in (0, sqrt(lam) - 1).
    """
    ctx = infer_context(lam)
    lam_user = materialize(lam, ctx)
    if not lam_user > 1:
        raise DomainError("lam must be strictly greater than 1")
    wctx = PrecisionContext(ctx.digits + max(15, 3 * lam_user.decimal_magnitude()))
    w = materialize(lam, wctx)
    inner = (3 * w ** 3 + 4 * w * w + 20 * w - 4) / w
    rad = 12 * wctx.scalar(3).sqrt() * inner.sqrt() * w * w - 28 * w ** 3 + 24 * w * w - 48 * w + 8
    ell = rad.cbrt()
    cand = (ell.halved() - (4 * w * w + 8 * w - 2) / ell + w + 1) * (w - 1) / (3 * w)

    upper = w.sqrt() - 1
    if not (cand > 0 and cand < upper):
        raise ConsistencyError("s* candidate %s escapes (0, sqrt(lam)-1)" % cand)
    margin = convergence_margin(cand, w)
    if abs(margin) > (1 + w) * wctx.power_of_ten(-ctx.digits + 5):
        raise ConsistencyError(
            "s* candidate does not zero the convergence margin (%s)"
            % margin.to_decimal_string(5)
        )
    residual = _s_star_quartic_residual(cand, w)
    if abs(residual) > (1 + w ** 3) * wctx.power_of_ten(-ctx.digits + 10):
        raise ConsistencyError(
            "s* candidate fails its quartic cross-check (%s)"
            % residual.to_decimal_string(5)
        )
    return ctx.scalar(cand)
