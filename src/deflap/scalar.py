"""Configurable-precision real arithmetic and the package's one root finder.

Every numerical quantity this package takes or returns is a ``Scalar``:
a wrapper around mpmath's raw bigfloat tuples with an explicit
:class:`PrecisionContext`. Unlike ``mpmath.mpf``, nothing here reads or
mutates the global ``mp`` context, so computations at different
precisions can coexist (the Shearer generator raises its working
precision internally while callers keep 50-digit values).

Values are exact dyadic rationals; only operations round. Comparisons are
exact and total. Mixing Scalars from contexts with different digit counts
is a programming error and raises :class:`PrecisionMixingError`.

Every root the package computes (spectral radii, eps_k, tau0)
comes from :func:`find_root`: Newton steps from one end of a bracket,
or from a point inside it whose side a probe has shown, then a
certified replay of the bisection of that bracket, so each result
is the bracket a fixed number of halvings would give, reached in a few
probes instead of one per halving.

The hot loops below the API run without Scalars. The tree pivot sweep,
the Shearer generator and the finder's Newton and certification steps
work on the raw tuples themselves, rounding every operation to the
context's precision, to nearest, in the order the Scalar formula would
run it. The caterpillar backbone recurrence, tau0's probe and the
replay work on Python integers counting one power of two, and round
each sum, product and quotient to the context's precision by hand, half
to even (:func:`_round`), as ``mpf_add``, ``mpf_mul`` and ``mpf_div``
round it. Either way the values are bit for bit those of Scalar
arithmetic; Scalars are made only where values are returned or handed
to a caller.
"""

import math
import os

from mpmath.libmp import (
    dps_to_prec,
    from_float,
    from_int,
    from_man_exp,
    from_str,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_nthroot,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_floor,
    round_nearest,
    to_float,
    to_int,
    to_str,
)

DIGITS_ENV_VAR = "DEFLAP_DIGITS"
MIN_DIGITS = 16
DEFAULT_DIGITS = 50

_RND = round_nearest


class ScalarError(Exception):
    pass


class DomainError(ScalarError, ValueError):
    """Input outside an operation's mathematical domain."""


class BracketingError(ScalarError, ValueError):
    """Bisection endpoints do not bracket a sign change."""


class PrecisionMixingError(ScalarError, TypeError):
    """Operands belong to contexts with different precisions."""


class NegativeRootError(DomainError):
    """Square root of a negative value (never returned as NaN)."""


class PrecisionError(ScalarError, RuntimeError):
    """A computation could not reach the precision it needs."""


class PrecisionContext:
    """Shared precision for one computation.

    digits: working decimal digits, at least 16 (default 50).
    """

    __slots__ = ("digits", "prec")

    def __init__(self, digits=DEFAULT_DIGITS):
        digits = int(digits)
        if digits < MIN_DIGITS:
            raise DomainError(
                "precision must be at least %d digits, got %d" % (MIN_DIGITS, digits)
            )
        self.digits = digits
        self.prec = dps_to_prec(digits)

    def scalar(self, value):
        """Lift ``value`` (Scalar, int, str, float) into this context.

        Strings are decimal literals, rounded once to this precision.
        Floats convert exactly (every binary float is dyadic). Scalars from
        another context are re-rounded here; this is the explicit way to
        move values between precisions. NaN and infinities, as strings or
        floats, raise DomainError: a Scalar is always finite.
        """
        if isinstance(value, Scalar):
            if value.ctx is self or value.ctx.digits == self.digits:
                return value
            # explicit re-round into this context
            return Scalar(mpf_add(value._v, fzero, self.prec, _RND), self)
        if isinstance(value, int):
            return Scalar(from_int(value, self.prec, _RND), self)
        if isinstance(value, str):
            try:
                v = from_str(value.strip(), self.prec, _RND)
            except ValueError:
                raise DomainError("not a decimal literal: %r" % (value,))
        elif isinstance(value, float):
            v = from_float(value, self.prec, _RND)
        else:
            raise DomainError("cannot build a Scalar from %r" % (type(value).__name__,))
        if not v[1] and v != fzero:
            raise DomainError("not a finite number: %r" % (value,))
        return Scalar(v, self)

    def zero(self):
        return Scalar(fzero, self)

    def power_of_ten(self, e):
        """10^e, parsed as a decimal literal (rounded once)."""
        return Scalar(from_str("1e%d" % int(e), self.prec, _RND), self)

    def __repr__(self):
        return "PrecisionContext(digits=%d)" % self.digits

    def __eq__(self, other):
        return isinstance(other, PrecisionContext) and other.digits == self.digits

    def __hash__(self):
        return hash(("PrecisionContext", self.digits))


def context_from_env(digits=None):
    """Resolve a context from an explicit value or the environment."""
    if digits is None:
        digits = os.environ.get(DIGITS_ENV_VAR, DEFAULT_DIGITS)
    return PrecisionContext(int(digits))


def infer_context(*values):
    """Context of the first Scalar among ``values``, else the env default.

    Lets a function follow the caller's working precision instead of
    silently re-rounding Scalar arguments to the environment default.
    """
    for v in values:
        if isinstance(v, Scalar):
            return v.ctx
    return context_from_env()


class Scalar:
    """A real number bound to a :class:`PrecisionContext`.

    Arithmetic rounds to the context precision; the stored value itself is
    exact. Integers mix freely (they lift losslessly); everything else must
    share the context's precision.
    """

    __slots__ = ("_v", "ctx")

    def __init__(self, v, ctx):
        self._v = v
        self.ctx = ctx

    # -- plumbing ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx.digits != self.ctx.digits:
                raise PrecisionMixingError(
                    "mixing %d-digit and %d-digit scalars; convert explicitly "
                    "with ctx.scalar()" % (self.ctx.digits, other.ctx.digits)
                )
            return other._v
        if isinstance(other, int):
            return from_int(other, self.ctx.prec, _RND)
        return NotImplemented

    @property
    def is_zero(self):
        return self._v == fzero

    def sign(self):
        """-1, 0, or +1. Exact."""
        return mpf_cmp(self._v, fzero)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Scalar(mpf_add(self._v, w, self.ctx.prec, _RND), self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Scalar(mpf_sub(self._v, w, self.ctx.prec, _RND), self.ctx)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Scalar(mpf_sub(w, self._v, self.ctx.prec, _RND), self.ctx)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Scalar(mpf_mul(self._v, w, self.ctx.prec, _RND), self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if w == fzero:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(mpf_div(self._v, w, self.ctx.prec, _RND), self.ctx)

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if self._v == fzero:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(mpf_div(w, self._v, self.ctx.prec, _RND), self.ctx)

    def __neg__(self):
        return Scalar(mpf_neg(self._v), self.ctx)

    def __abs__(self):
        return Scalar(mpf_abs(self._v), self.ctx)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self._v == fzero:
            raise ZeroDivisionError("zero to a negative power")
        return Scalar(mpf_pow_int(self._v, n, self.ctx.prec, _RND), self.ctx)

    def sqrt(self):
        if mpf_cmp(self._v, fzero) < 0:
            raise NegativeRootError("square root of a negative scalar")
        return Scalar(mpf_sqrt(self._v, self.ctx.prec, _RND), self.ctx)

    def cbrt(self):
        """Real cube root (odd root: negative inputs allowed)."""
        if mpf_cmp(self._v, fzero) < 0:
            r = mpf_nthroot(mpf_neg(self._v), 3, self.ctx.prec, _RND)
            return Scalar(mpf_neg(r), self.ctx)
        return Scalar(mpf_nthroot(self._v, 3, self.ctx.prec, _RND), self.ctx)

    def halved(self):
        """Exact division by two (exponent shift, no rounding)."""
        return Scalar(mpf_shift(self._v, -1), self.ctx)

    def floor(self):
        """Exact floor of the stored value, as a Python int."""
        # to_int hands back gmpy2.mpz when that backend is loaded
        return int(to_int(self._v, round_floor))

    def decimal_magnitude(self):
        """ceil(log10 |x|) within one unit, from the binary exponent.

        Never overflows, unlike going through float. Zero maps to a
        huge negative sentinel.
        """
        sign, man, exp, bc = self._v
        if man == 0:
            if self._v == fzero:
                return -(10 ** 9)
            raise DomainError("magnitude of a non-finite scalar")
        return int(math.ceil((exp + bc) * 0.30102999566398120))

    # -- comparisons (exact, total) ----------------------------------------

    def _cmp(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return mpf_cmp(self._v, w)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        if isinstance(other, (Scalar, int)):
            c = self._cmp(other)
            return c == 0
        return NotImplemented

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __hash__(self):
        return hash(self._v)

    # -- output -----------------------------------------------------------

    def to_float(self):
        return to_float(self._v)

    def to_decimal_string(self, digits=None):
        """Round-to-nearest decimal string with ``digits`` significant digits."""
        if digits is None:
            digits = self.ctx.digits
        return to_str(self._v, digits)

    def raw(self):
        """The underlying libmp tuple (sign, man, exp, bc). Exact."""
        return self._v

    def __repr__(self):
        return "Scalar(%s @%dd)" % (self.to_decimal_string(min(self.ctx.digits, 20)), self.ctx.digits)

    def __str__(self):
        return self.to_decimal_string()


def scalar_from_raw(v, ctx):
    """Wrap a raw libmp tuple, rounding once into ``ctx``."""
    return Scalar(mpf_add(v, fzero, ctx.prec, _RND), ctx)


def materialize(value, ctx):
    """Realize an exact value description at a given precision.

    Functions that raise precision internally cannot treat a 50-digit Scalar
    as the definition of its own input: extending it with zero bits is not
    the same number as, say, the closed-form s*(λ)/2 at 300 digits, and the
    caterpillar counts are sensitive to differences that small. So interfaces
    that elevate precision accept any of
      - int (exact at every precision),
      - decimal string (re-parsed per precision),
      - callable ctx -> Scalar (re-evaluated per precision),
      - Scalar (taken at face value; exact but precision-frozen),
    and call this at each working precision.
    """
    if callable(value) and not isinstance(value, Scalar):
        out = value(ctx)
        if not isinstance(out, Scalar):
            raise DomainError("value callable must return a Scalar")
        return ctx.scalar(out)
    return ctx.scalar(value)


def halvings(span, digits):
    """The halvings of a bracket ``span`` wide (a Scalar) that shrink it
    below 10^-digits: ceil(log2 span + digits log2 10), at least one.

    Raises DomainError when span lies outside float range.
    """
    width = span.to_float()
    if not 0 < width < math.inf:
        raise DomainError("hi - lo lies outside float range; no iteration count can be derived")
    return max(1, int(math.ceil(math.log2(width) + digits * math.log2(10))))


class RootBracket:
    """What :func:`find_root` leaves of the bisection.

    low and high are the bisection's final bracket; zero is the midpoint
    at which a probe read an exact zero and the halvings stopped, else
    None; probes counts the probes the finder ran.
    """

    __slots__ = ("low", "high", "zero", "probes")

    def __init__(self, low, high, zero, probes):
        self.low = low
        self.high = high
        self.zero = zero
        self.probes = probes


def find_root(probe, lo, hi, iters, start, step):
    """The bracket ``iters`` halvings of [lo, hi] end on, mostly without them.

    ``probe(x, slope)`` returns ``(side, step)``: side is -1 when x lies
    on lo's side of the root (bisection would move lo to x), +1 on hi's
    side, and 0 at an exact zero, where bisection stops; step is the
    Newton displacement from x toward the root when ``slope`` is true and
    the probe can form it, else None. The caller has already probed the
    ends: lo lies on side -1 and hi on side +1. ``start`` is the point to
    take Newton steps from and ``step`` its displacement (None for none):
    lo, hi, or a point inside (lo, hi) the caller's probe has put on
    hi's side, as a start above a radius is.

    Three phases:

    1. Newton steps from ``start`` while they stay inside (lo, hi), stay
       on the start's side (-1 for lo, else +1) and keep shrinking; a
       step below the final bisection width is taken unprobed and ends
       them. A zero step, as a caller passes with a root known exactly,
       ends them at once, wherever its point lies in [lo, hi].
    2. Certify a bracket (a, b) around the last iterate c: probe c - g
       expecting side -1 and c + g expecting +1, with g = max(2 err,
       final width). err is the size of the last step formed, or, when c
       gave no usable step, the size^3 / prev^2 that a quadratically
       converging step of that size leaves. A side that decides
       otherwise is probed again 16 times farther out, until it decides
       as expected or reaches lo or hi. From c = lo or hi, a g under
       half an ulp of c, which would probe c again, grows the same way
       unprobed.
    3. Replay the bisection: walk its midpoints over the original
       [lo, hi], probing only those strictly inside (a, b) and deciding
       the others by position. The walk runs on Python integers counting
       2^e, e = (least exponent of lo, hi, a, b that are not zero) -
       iters - 1, fine enough to hold every midpoint exactly: each step
       forms lo + hi, rounds it by hand to the context's precision, half
       to even, as ``(lo + hi).halved()`` rounds it, halves it and
       compares it with a and b as plain integers. A midpoint becomes a
       tuple and a Scalar only when it is probed or returned. The hand
       rounding is ``mpf_add``'s as long as lo and hi carry at most the
       context's precision in bits, as every value rounded in it does.

    The returned bracket and zero are therefore the bisection's own
    whenever the probe's sides are monotone outside (a, b), that is,
    whenever a and b lie clear of the band where rounding noise rather
    than the root decides a probe. Without a start step the certified
    bracket is [lo, hi] and the replay is plain bisection.
    """
    iters = int(iters)
    ctx = lo.ctx
    prec = ctx.prec
    start_side = -1 if start == lo else 1
    lo, hi, x = lo._v, hi._v, start._v
    width = mpf_shift(mpf_sub(hi, lo, prec, _RND), -iters)
    probes = 0

    # phases 1 and 2 run on raw tuples, each op rounded as Scalar
    # arithmetic rounds it
    err = prev = None
    for _ in range(iters):
        if step is None:
            break
        size = mpf_abs(step._v)
        if size == fzero:
            # a zero step names x as the root itself, even at lo or hi
            err = size
            break
        if prev is not None and mpf_cmp(size, prev) >= 0:
            # steps stopped shrinking: rounding noise decides them now,
            # and their size measures how far it reaches
            err = size
            break
        nxt = mpf_add(x, step._v, prec, _RND)
        if not (mpf_cmp(lo, nxt) < 0 and mpf_cmp(nxt, hi) < 0):
            break
        x = nxt
        if mpf_cmp(size, width) <= 0:
            err = size
            break
        side, step = probe(Scalar(x, ctx), True)
        probes += 1
        err = size
        if prev is not None:
            cube = mpf_mul(mpf_mul(size, size, prec, _RND), size, prec, _RND)
            tail = mpf_div(cube, mpf_mul(prev, prev, prec, _RND), prec, _RND)
            if mpf_cmp(tail, size) < 0:
                err = tail
        prev = size
        if side != start_side:
            break

    ends = [lo, hi]
    if err is not None:
        pad = mpf_add(err, err, prec, _RND)
        if mpf_cmp(pad, width) < 0:
            pad = width
        inside = mpf_cmp(lo, x) < 0 and mpf_cmp(x, hi) < 0
        for i, want in ((0, -1), (1, 1)):
            g = pad
            while True:
                t = (mpf_sub if want < 0 else mpf_add)(x, g, prec, _RND)
                if not inside and mpf_cmp(t, x) == 0:
                    # g is under half an ulp of the end x: probe past it
                    g = mpf_shift(g, 4)
                    continue
                if not (mpf_cmp(lo, t) < 0 and mpf_cmp(t, hi) < 0):
                    break
                probes += 1
                if probe(Scalar(t, ctx), False)[0] == want:
                    ends[i] = t
                    break
                g = mpf_shift(g, 4)
    raw = (lo, hi, ends[0], ends[1])
    e = min(v[2] for v in raw if v[1]) - iters - 1
    lo, hi, a, b = [_lift(v, e) for v in raw]
    for _ in range(iters):
        mid = _midpoint(lo, hi, prec)
        if mid <= a:
            lo = mid
            continue
        if mid >= b:
            hi = mid
            continue
        x = _drop(mid, e, ctx)
        side = probe(x, False)[0]
        probes += 1
        if side == 0:
            return RootBracket(_drop(lo, e, ctx), _drop(hi, e, ctx), x, probes)
        if side < 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(_drop(lo, e, ctx), _drop(hi, e, ctx), None, probes)


def _lift(v, e):
    # a finite raw tuple as its integer count of 2^e; zero, whose tuple
    # carries exponent 0, is 0 at every e
    sign, man, exp, _ = v
    if not man:
        return 0
    man <<= exp - e
    return -man if sign else man


def _drop(n, e, ctx):
    # the Scalar n * 2^e, exact
    return Scalar(from_man_exp(n, e), ctx)


def _midpoint(x, y, prec):
    """(x + y)/2 with the sum rounded to ``prec`` bits, for integers x, y
    counting one power of two: ``mpf_add(., ., prec, round_nearest)``,
    halved, bit for bit, whenever both carry at most ``prec`` bits. A
    sum that needs no rounding must be even, so the halving is exact.
    """
    return _round(x + y, prec) >> 1


class _OffGrid(ArithmeticError):
    """A rounded value has bits below the integer grid it must lie on."""


def _round(n, prec, shift=0, sticky=False):
    """n / 2^shift rounded to ``prec`` bits, to nearest with ties to even,
    as an integer: the package's one hand rounding.

    The integers count one power of two, 2^-g on the probes' grids. Sums
    and int multiples are exact before rounding; a product is exact on
    the grid 2^-2g, and ``shift`` g brings it back; a quotient comes from
    ``divmod`` on magnitudes, its remainder ``sticky``: the true value
    exceeds n >= 0 by less than one. Each result is then bit for bit the
    one ``mpf_add``, ``mpf_sub``, ``mpf_mul`` or ``mpf_div`` gives at
    ``prec`` with round_nearest. Raises _OffGrid when it is not an
    integer, so the caller reruns on a finer grid.
    """
    k = n.bit_length() - prec
    if k <= 0 or k < shift:
        if sticky or n & ((1 << shift) - 1):
            raise _OffGrid
        return n >> shift
    # t ends in the rounding bit; the floor remainder below it, or the
    # sticky one, breaks a tie upward, else it goes to the even side
    t = n >> (k - 1)
    if t & 1 and (t & 2 or sticky or n & ((1 << (k - 1)) - 1)):
        t += 2
    return t >> 1 << (k - shift)


def _mul(x, y, prec, g):
    # x * y for integers counting 2^-g, rounded, on the same grid
    return _round(x * y, prec, g)


def _div(x, y, prec, g):
    # x / y for integers counting 2^-g, rounded, on the same grid
    q, r = divmod((-x if x < 0 else x) << g, -y if y < 0 else y)
    q = _round(q, prec, 0, r)
    return -q if (x < 0) != (y < 0) else q


# bits the probes' integer grids reach below the working precision
_GUARD = 64


def _on_grid(kernel, prec, raws, *args):
    """kernel(g, *ints, *args), the ints the raw tuples ``raws`` as counts
    of 2^-g: g is ``prec`` + _GUARD, or finer so every one lifts exactly,
    and doubles until no value the kernel rounds falls below the grid."""
    g = max(prec + _GUARD, *[-v[2] for v in raws])
    while True:
        try:
            return kernel(g, *[_lift(v, -g) for v in raws], *args)
        except _OffGrid:
            g += g


def bisect_monotone_root(f, a, b, iters):
    """Bisect a sign change of a continuous strictly monotone ``f`` on [a, b].

    Returns the midpoint of the final bracket; the true root is within
    (b-a)/2^iters of it. An exact zero at a midpoint returns immediately.
    Raises BracketingError when f(a), f(b) do not have strictly opposite
    signs, DomainError when a >= b. ``f`` gives no slope, so
    :func:`find_root` probes every midpoint.
    """
    if not isinstance(a, Scalar) or not isinstance(b, Scalar):
        raise DomainError("bisection endpoints must be Scalars")
    if not a < b:
        raise DomainError("empty bracket: a must be strictly below b")
    fa = f(a).sign()
    fb = f(b).sign()
    if fa == 0:
        return a
    if fb == 0:
        return b
    if fa == fb:
        raise BracketingError("f has the same sign at both endpoints")

    def probe(x, slope):
        sg = f(x).sign()
        return (0 if sg == 0 else -1 if sg == fa else 1), None

    found = find_root(probe, a, b, iters, b, None)
    if found.zero is not None:
        return found.zero
    return (found.low + found.high).halved()
