"""Congruence diagonalization of M(s) = I - s*A + s^2*(D-I) on trees.

One bottom-up sweep produces a diagonal matrix congruent to M(s) + x*I,
so by Sylvester's law of inertia the sign counts of the output locate
eigenvalues relative to -x without ever forming the matrix (Jacobs &
Trevisan, "Locating the eigenvalues of trees", LAA 434 (2011) 81-88).
Everything else in this package (radius brackets, the adjacency radius
rho(A), caterpillar generation, error certificates) reduces to this
sweep or to its closed caterpillar form; no library path forms a dense
matrix.

A tree sweep starts from a per-degree table, so it sweeps M(s) + x*I and
A - c*I alike. The probe kernel, :func:`_sweep`, runs it on raw libmp
tuples for the tree radius probes and stops at the first nonnegative
pivot. The surgery kernel, :func:`_surgery_sweep`, sweeps every vertex
with the zero-pivot surgery in the arithmetic its caller hands it:
rounded libmp for :func:`diagonalize_tree`, outward-rounded intervals
and exact rationals for :func:`count_eigenvalues`. The caterpillar form
is one raw-tuple recurrence along the backbone, :func:`_backbone`, read
only by the caterpillar radius probe (behind the radii and the eps_k
certificate of :mod:`deflap.shearer`), which stops at its first
nonnegative value. Rounded sweeps round every operation as Scalar
arithmetic would; Scalars appear only at the API edge, in returned
values and in the Newton step of the probes, which share one bracket
search. A tree's search starts from a float Laguerre estimate
(:func:`_laguerre_start`); floats only place that start, and every sign
a radius rests on comes from the kernel.

:func:`count_eigenvalues` proves each triple it returns. Most are
decided by a pair of double-precision sweeps a backward-error bound
apart (:func:`_float_positive`); the rest by the surgery kernel in
interval arithmetic at the context's precision, or in exact rational
arithmetic.
"""

import math
import operator
from functools import partial

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sub,
    mpi_add,
    mpi_div,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
    to_rational,
)

from .scalar import BracketingError, DomainError, PrecisionError, Scalar, find_root, halvings
from .trees import Caterpillar, Tree

_RND = round_nearest


class DiagOutcome:
    """Final diagonal of one sweep plus its inertia.

    outputs[v] is the value attached to vertex v; inertia is the triple
    (positive, negative, zero) of their signs. By congruence with
    M(s) + x*I, exact pivots would count the eigenvalues of M(s) greater
    than, smaller than, and equal to -x; these are rounded, and next to an
    eigenvalue can miscount: where M(1) has the eigenvalue 4, the 50-digit
    sweep at x = -4 gives (1, 7, 0) for the true (1, 6, 1).
    :func:`count_eigenvalues` proves its triple. The outcome keeps the
    sweep's raw pivots and wraps them as Scalars in ``ctx`` when
    ``outputs`` is read, so a caller after the inertia alone never pays
    for them.
    """

    __slots__ = ("_raw", "_ctx", "inertia")

    def __init__(self, raw, ctx, inertia):
        self._raw = raw
        self._ctx = ctx
        self.inertia = inertia

    @property
    def outputs(self):
        return [Scalar(v, self._ctx) for v in self._raw]

    def __repr__(self):
        return "DiagOutcome(inertia=%r)" % (self.inertia,)


def _sign(v):
    # mpf_cmp(v, fzero), read off the tuple when v is finite and nonzero
    if v[1]:
        return -1 if v[0] else 1
    return mpf_cmp(v, fzero)


def _base(tree, s2, prec):
    """The start table of M(s): degree -> 1 + s2*(deg - 1), before any shift."""
    one = from_int(1, prec, _RND)
    return {deg: mpf_add(one, mpf_mul(s2, from_int(deg - 1, prec, _RND), prec, _RND), prec, _RND)
            for deg in set(tree.degree)}


def _sweep(tree, start, s2, prec, slope):
    """The probe sweep on raw libmp tuples: returns (stop, dlog).

    d[v] starts at the caller's pivot ``start[deg v]`` (:func:`_base` plus x
    for M(s) + x*I; -c with s2 = 1 for A - c*I) and, in postorder, each
    vertex absorbs -s2/d_c from every child c. Every operation rounds to
    ``prec`` to nearest, children are summed in ``tree.children`` order,
    and values are shared only where the operands are identical: the
    starting pivot per distinct degree, and the childless vertices'
    terms, since they all start at the same pivot and none is rewritten
    before its parent reads it.

    The sweep stops at the first vertex whose pivot is nonnegative and
    returns it as ``stop``; children are then negative when their parent
    reads them, so the zero-pivot surgery never arises. With ``slope`` and
    no stop, dlog is L = sum of d_v'/d_v with d_v' = -1 + s2 sum_c
    d_c'/d_c^2, the derivative of log|det| in c, every start moving as -c;
    else None.
    """
    children = tree.children
    postorder = tree.postorder
    one = from_int(1, prec, _RND)
    d = [start[deg] for deg in tree.degree]
    # every childless vertex has the first postorder vertex's degree
    leaf = d[postorder[0]]
    if _sign(leaf) >= 0:
        return postorder[0], None
    leaf_r = mpf_div(one, leaf, prec, _RND)
    if slope:
        dd = [None] * tree.n
        leaf_dd = mpf_neg(one)
        leaf_term = mpf_div(leaf_dd, leaf, prec, _RND)
        leaf_dterm = mpf_div(leaf_dd, mpf_mul(leaf, leaf, prec, _RND), prec, _RND)
        dlog = fzero
    for v in postorder:
        kids = children[v]
        if not kids:
            if slope:
                dlog = mpf_add(dlog, leaf_term, prec, _RND)
            continue
        acc = None
        for c in kids:
            r = mpf_div(one, d[c], prec, _RND) if children[c] else leaf_r
            acc = r if acc is None else mpf_add(acc, r, prec, _RND)
        dv = d[v] = mpf_sub(d[v], mpf_mul(s2, acc, prec, _RND), prec, _RND)
        if _sign(dv) >= 0:
            return v, None
        if slope:
            dacc = None
            for c in kids:
                if children[c]:
                    dc = d[c]
                    t = mpf_div(dd[c], mpf_mul(dc, dc, prec, _RND), prec, _RND)
                else:
                    t = leaf_dterm
                dacc = t if dacc is None else mpf_add(dacc, t, prec, _RND)
            ddv = dd[v] = mpf_sub(mpf_mul(s2, dacc, prec, _RND), one, prec, _RND)
            dlog = mpf_add(dlog, mpf_div(ddv, dv, prec, _RND), prec, _RND)
    return None, (dlog if slope else None)


def _surgery_sweep(tree, start, s2, arith):
    """Sweep every vertex with the zero-pivot surgery in the arithmetic
    ``arith``: returns (d, inertia), or None when a sign is unknown.

    ``arith`` is (one, add, sub, mul, div, sign); sign(x) is -1, 0, 1, or
    None when unknown. d[v] starts at ``start[deg v]`` and, in postorder,
    becomes d_v - s2 * acc, acc the sum of 1/d_c over its children in
    ``tree.children`` order. A zero child c instead forces (d_v, d_c) :=
    (-s2/2, 2), d_v formed as d_c - s2/2, and detaches v from its parent.
    At s2 = 0 the pivots are the start. inertia is (positive, negative,
    zero) over d. A child, or a final pivot, of unknown sign gives None.
    """
    one, add, sub, mul, div, sign = arith
    d = [start[deg] for deg in tree.degree]
    if sign(s2):
        two = add(one, one)
        children = tree.children
        # childless vertices share one pivot, which no surgery rewrites
        # before their parent reads it, so they share its reciprocal too
        leaf = d[tree.postorder[0]]
        leaf_r = div(one, leaf) if sign(leaf) else None
        cut = set()
        for v in tree.postorder:
            acc = None
            for c in children[v]:
                if c in cut:
                    continue
                dc = d[c]
                sc = sign(dc)
                if sc is None:
                    return None
                if not sc:
                    d[v] = sub(dc, div(s2, two))
                    d[c] = two
                    cut.add(v)
                    break
                r = div(one, dc) if children[c] else leaf_r
                acc = r if acc is None else add(acc, r)
            else:
                if acc is not None:
                    d[v] = sub(d[v], mul(s2, acc))
    signs = [sign(v) for v in d]
    if None in signs:
        return None
    pos = signs.count(1)
    neg = signs.count(-1)
    return d, (pos, neg, tree.n - pos - neg)


def diagonalize_tree(tree, s, x):
    """Run the sweep on a tree: returns a DiagOutcome for M(s) + x*I.

    Processing order is the tree's postorder. A vertex whose children all
    carry nonzero values absorbs -s^2/d_c from each child c; a zero child
    instead forces the pair (d_v, d_c) := (-s^2/2, 2) and detaches v from
    its parent for the rest of the sweep. The sweep is
    :func:`_surgery_sweep` in libmp arithmetic rounded to the context's
    precision; the outputs become Scalars when first read. Rounded pivots
    can give a wrong inertia next to an eigenvalue (see
    :class:`DiagOutcome`); :func:`count_eigenvalues` proves its triple.
    """
    if not isinstance(tree, Tree):
        raise DomainError("diagonalize_tree needs a Tree")
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    ctx = s.ctx
    prec = ctx.prec
    s_raw = s.raw()
    s2 = mpf_mul(s_raw, s_raw, prec, _RND)
    x = ctx.scalar(x).raw()
    start = {deg: mpf_add(b, x, prec, _RND) for deg, b in _base(tree, s2, prec).items()}
    ops = [lambda a, b, op=op: op(a, b, prec, _RND) for op in (mpf_add, mpf_sub, mpf_mul, mpf_div)]
    d, inertia = _surgery_sweep(tree, start, s2, (fone, *ops, _sign))
    return DiagOutcome(d, ctx, inertia)


def count_eigenvalues(tree, s, c):
    """How many eigenvalues of M(s) lie above / below / at the point c.

    Every triple returned is exact for the Scalar values of s and c. It
    comes from the first of three rungs that decides it:

    1. :func:`_float_pair`: two double-precision sweeps, at c - 2 eta and
       at c + 2 eta. When both meet no zero or non-finite pivot and give
       the same positive count p, the triple is (p, n - p, 0).
    2. :func:`_interval_inertia`: :func:`_surgery_sweep` in interval
       arithmetic at the context's precision. It decides when every
       pivot's interval excludes zero or is the point zero, as at c = 1
       on a tree with two sibling leaves.
    3. :func:`_exact_inertia`: :func:`_surgery_sweep` in exact rational
       arithmetic, which decides every input within its work budget
       and raises PrecisionError beyond it.

    Why a pair decides. A sweep whose operations round with unit
    roundoff u computes the exact pivots, up to positive factors, of
    M(s) + E - xI, where x is the shift it ran at and E is symmetric and
    carried by the diagonal and the tree's edges. Write each computed
    pivot a_v = fl(beta_v - fl(s2 * acc_v)), acc_v the rounded sum of
    fl(1/a_w) over v's k children w. Dividing a_v by the (1 + nu_v) of
    its last subtraction leaves beta_v - sum_w s~^2/d~_w exactly, where
    s~^2 = s^2 (1 + rho) gathers, per edge, the rounding of s and of s^2
    (3u), of the reciprocal (u), of the sum (k - 1 times u), of the
    product (u) and the child's own nu_w (u): |rho| <= (k + 5)u. So an
    edge moves by at most |s| (D + 5) u, D the largest degree, and the
    edges of E together by at most that times D in norm. The diagonal
    entry beta_v = fl(fl(1 + fl(s2 (deg - 1))) - x) is off 1 + s^2 (deg
    - 1) - x by at most u (4 s^2 m + |1 + s^2 m| + |b_v - x|) with
    m = max(D - 1, 1), so by u (2 + 6 s^2 m + |x|). In all, ||E|| <=
    u (2 + 6 s^2 m + |c| + |s| D (D + 5)) to first order, and rounding c
    and c +- 2 eta to the sweep's format moves the shift by at most
    3u|c| more. eta is u times :func:`_half_width`, twice the sum with
    5|c| in place of |c|, which covers those, every second-order term and
    the rounding of |s|, |c| and the sum itself to floats.

    By Weyl's inequality each eigenvalue of M(s) + E lies within ||E|| of
    one of M(s). The shifts x+ and x- the two sweeps run at lie more than
    eta beyond c, so the sweep at x+ counts p+ <= #{lam > c} eigenvalues
    above x+, and the sweep at x- counts p- >= #{lam >= c}. If p- = p+ =
    p, then #{lam >= c} <= p <= #{lam > c}: no eigenvalue equals c and
    exactly p lie above it. A zero pivot ends the float sweep undecided.

    The first rung runs only for |s| in [2^-200, 2^200] (or s = 0) and
    |c| <= 2^400. There an overflow in a reciprocal or a sum leaves an
    infinity or a NaN in the sums, which ends the sweep undecided. A
    pivot that overflows keeps its sign, and its reciprocal, read as
    zero, is off by less than 2^-1022; that and every underflow move a
    pivot by less than (D + 1) 2^-600, which eta adds. J. Demmel, I.
    Dhillon and H. Ren (ETNA 3 (1995) 116-149) bound Sturm counts in
    floating point the same way.
    """
    if not isinstance(tree, Tree):
        raise DomainError("count_eigenvalues needs a Tree")
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    c = s.ctx.scalar(c)
    pos = _float_pair(tree, s, c)
    if pos is not None:
        return pos, tree.n - pos, 0
    return _interval_inertia(tree, s, c) or _exact_inertia(tree, s, c)


def _half_width(s, c, max_degree):
    """eta/u for a sweep with unit roundoff u (see :func:`count_eigenvalues`),
    from the floats |s| = ``s`` and |c| = ``c``; inf beyond float range."""
    m = max(max_degree - 1, 1)
    return 2 * (2 + 6 * s * s * m + 5 * c + s * max_degree * (max_degree + 5))


def _float_positive(tree, table, s2, x):
    """The positive count of the float sweep at shift ``x``, or None when
    a pivot is zero or the sweep leaves float range.

    Push form over the tree's own lists: in postorder each vertex takes
    a = table[deg] - x - s2 * acc and adds 1/a to its parent's acc.
    """
    degree = tree.degree
    parent = tree.parent
    postorder = tree.postorder
    start = [b - x for b in table]
    acc = [0.0] * tree.n
    neg = 0
    try:
        for v in postorder[:-1]:
            a = start[degree[v]] - s2 * acc[v]
            if a < 0.0:
                neg += 1
            acc[parent[v]] += 1.0 / a
    except ZeroDivisionError:
        return None
    root = postorder[-1]
    a = start[degree[root]] - s2 * acc[root]
    # an overflow leaves an infinity or a NaN in acc, at the latest in
    # the root's, whose pivot reads it
    if a == 0.0 or not math.isfinite(sum(acc)):
        return None
    if a < 0.0:
        neg += 1
    return tree.n - neg


def _float_pair(tree, s, c):
    """Rung 1 of :func:`count_eigenvalues`: the count of eigenvalues above
    c, proved by two float sweeps, or None."""
    fs = abs(to_float(s.raw(), rnd=_RND))
    fc = to_float(c.raw(), rnd=_RND)
    if not ((s.is_zero or 2.0 ** -200 <= fs <= 2.0 ** 200) and abs(fc) <= 2.0 ** 400):
        return None
    degrees = set(tree.degree)
    top = max(degrees)
    eta = _half_width(fs, abs(fc), top) * 2.0 ** -53 + (top + 1) * 2.0 ** -600
    s2 = fs * fs
    table = [0.0] * (top + 1)
    for deg in degrees:
        table[deg] = 1.0 + s2 * (deg - 1)
    pos = _float_positive(tree, table, s2, fc + 2 * eta)
    if pos is None or pos != _float_positive(tree, table, s2, fc - 2 * eta):
        return None
    return pos


def _interval_inertia(tree, s, c):
    """Rung 2 of :func:`count_eigenvalues`: the triple of
    :func:`_surgery_sweep` run on M(s) - cI in interval arithmetic at the
    context's precision, or None when a pivot's interval holds zero and
    more.

    Every operation rounds outward, so each interval holds the exact
    pivot: one that excludes zero gives its sign, and one that is the
    point zero is an exact zero (a leaf at c = 1, say), on which the
    surgery runs as in exact arithmetic. A straddling child ends the
    sweep, since whether it takes the surgery is then unknown.
    """
    prec = s.ctx.prec
    c = c.raw()
    s2 = mpf_mul(s.raw(), s.raw())  # exact

    def point(x):
        return mpf_pos(x, prec, round_floor), mpf_pos(x, prec, round_ceiling)

    def sign(x):
        lo = _sign(x[0])
        return lo if lo == _sign(x[1]) else None

    start = {deg: point(mpf_sub(mpf_add(fone, mpf_mul(s2, from_int(deg - 1))), c))
             for deg in set(tree.degree)}
    ops = [lambda a, b, op=op: op(a, b, prec) for op in (mpi_add, mpi_sub, mpi_mul, mpi_div)]
    swept = _surgery_sweep(tree, start, point(s2), ((fone, fone), *ops, sign))
    return swept and swept[1]


# the largest sum, over the pivots that :func:`_exact_inertia`'s sweep
# forms, of their bit lengths: 0.4-0.6 s of Fraction arithmetic on a
# shared 2-core Intel Xeon host
_EXACT_BITS = 1 << 26


def _exact_inertia(tree, s, c):
    """Rung 3 of :func:`count_eigenvalues`: the inertia triple of
    M(s) - cI from :func:`_surgery_sweep` in exact rational arithmetic
    on the Scalars' dyadic values.

    A pivot's bit length grows with its subtree (about 2 prec bits per
    vertex along a path), so the sweep's cost grows as the square of the
    tree's height; past a work budget of :data:`_EXACT_BITS` bits it
    raises PrecisionError. The budget is metered in the subtraction,
    which forms every pivot the sweep takes on.
    """
    from fractions import Fraction

    s2 = Fraction(*to_rational(s.raw())) ** 2
    shift = Fraction(*to_rational(c.raw()))
    start = {deg: 1 + s2 * (deg - 1) - shift for deg in set(tree.degree)}
    work = 0

    def sub(a, b):
        nonlocal work
        d = a - b
        work += d.numerator.bit_length() + d.denominator.bit_length()
        if work > _EXACT_BITS:
            raise PrecisionError(
                "counting eigenvalues at c = %s exactly needs more than %d bits of "
                "pivots: c is an eigenvalue of M(s), or within the working precision "
                "of one, on a tree this deep" % (c, _EXACT_BITS))
        return d

    def sign(x):
        return (x > 0) - (x < 0)

    arith = (Fraction(1), operator.add, sub, operator.mul, operator.truediv, sign)
    return _surgery_sweep(tree, start, s2, arith)[1]


def _backbone(counts, s2, c, prec, slope):
    """Yield raw (b_j, b_j') for j = 1..k: the leaf-folded sweep at point c.

    Every pendant leaf pivot is 1 - c, so each leaf adds delta =
    s2*c/(c - 1) to its backbone node: b_1 = 1 - c + r_1 delta and
    b_j = 1 + s2 - c - s2/b_{j-1} + r_j delta, less s2 at node k only
    (never at a point where a caller stops early). With ``slope``,
    b_j' = -1 + s2 b_{j-1}'/b_{j-1}^2 + r_j delta' is the derivative in c,
    delta' = -s2/(c - 1)^2; otherwise b_j' is None.

    ``s2`` and ``c`` are raw libmp tuples. Every operation rounds to
    ``prec`` to nearest, in the order the formulas read left to right, as
    Scalar arithmetic would; 1 + s2 - c is formed once per point. c = 1
    is a pole of delta, and the next value divides by b_j, so the caller
    (:func:`_caterpillar_probe`) never passes c = 1 and stops at the
    first nonnegative b_j.
    """
    cm1 = mpf_sub(c, fone, prec, _RND)
    delta = mpf_div(mpf_mul(s2, c, prec, _RND), cm1, prec, _RND)
    base = mpf_sub(mpf_add(fone, s2, prec, _RND), c, prec, _RND)
    r = from_int(counts[0], prec, _RND)
    b = mpf_add(mpf_sub(fone, c, prec, _RND), mpf_mul(delta, r, prec, _RND), prec, _RND)
    db = None
    if slope:
        ddelta = mpf_div(mpf_neg(s2), mpf_mul(cm1, cm1, prec, _RND), prec, _RND)
        db = mpf_sub(mpf_mul(ddelta, r, prec, _RND), fone, prec, _RND)
    yield b, db
    last = len(counts) - 1
    for j in range(1, last + 1):
        r = from_int(counts[j], prec, _RND)
        q = mpf_div(s2, b, prec, _RND)
        nb = mpf_sub(base, q, prec, _RND)
        nb = mpf_add(nb, mpf_mul(delta, r, prec, _RND), prec, _RND)
        if j == last:
            nb = mpf_sub(nb, s2, prec, _RND)
        if slope:
            db = mpf_div(mpf_mul(q, db, prec, _RND), b, prec, _RND)
            db = mpf_add(db, mpf_mul(ddelta, r, prec, _RND), prec, _RND)
            db = mpf_sub(db, fone, prec, _RND)
        b = nb
        yield b, db


def _caterpillar_probe(cat, s2, ctx):
    """The radius probe of a caterpillar at s^2 = ``s2`` (raw): returns
    probe(c, slope) -> (all_negative, early, step) on the folded backbone.

    The probe stops at its first nonnegative pivot, so it never divides by
    a zero one. The leaf pivot sign is checked before :func:`_backbone`
    forms delta, so the c = 1 pole is never evaluated: a nonnegative or
    zero leaf pivot already decides the probe.
    ``early`` reports a verdict reached before the last backbone node.
    With ``slope`` and every pivot negative, step is the Newton step -1/L
    toward the largest eigenvalue, where L = d/dc log|det(M - cI)| sums
    b_j'/b_j over the backbone and 1/(c - 1) per leaf; otherwise step is
    None.
    """
    prec = ctx.prec
    counts = cat.counts
    last = cat.k - 1
    leaves = sum(counts)
    leaf_sum = from_int(leaves, prec, _RND)

    def probe(c, slope):
        c = c.raw()
        leaf_pivot = mpf_sub(fone, c, prec, _RND)
        if (leaves and _sign(leaf_pivot) >= 0) or leaf_pivot == fzero:
            # with no leaves anywhere the backbone pivots start at zero
            return False, True, None
        total = None
        for j, (b, db) in enumerate(_backbone(counts, s2, c, prec, slope)):
            if _sign(b) >= 0:
                return False, j < last, None
            if slope:
                t = mpf_div(db, b, prec, _RND)
                total = t if total is None else mpf_add(total, t, prec, _RND)
        if not slope:
            return True, False, None
        if leaves:
            t = mpf_div(leaf_sum, mpf_sub(c, fone, prec, _RND), prec, _RND)
            total = mpf_add(total, t, prec, _RND)
        return True, False, _newton_step(Scalar(total, ctx))

    return probe


def _tree_probe(tree, base, s2, ctx):
    """The radius probe of a tree matrix: returns probe(c, slope) ->
    (all_negative, early, step), one kernel sweep from ``base[deg] - c``
    that stops at the first nonnegative pivot.

    ``base`` is :func:`_base` and ``s2`` is s^2 (raw) for M(s); base 0
    and s2 = 1 give A. ``early`` reports a stop before the root. With
    ``slope`` and every pivot negative, step is the Newton step -1/L,
    L = sum of d_v'/d_v with d_v' = -1 + s2 sum_c d_c'/d_c^2; otherwise
    None.
    """
    prec = ctx.prec
    root = tree.postorder[-1]
    if s2 == fzero:
        # M(0) = I: every pivot is 1 - c
        one = from_int(1, prec, _RND)
        return lambda c, slope: (_sign(mpf_sub(one, c.raw(), prec, _RND)) < 0, False, None)

    def probe(c, slope):
        c = c.raw()
        start = {deg: mpf_sub(b, c, prec, _RND) for deg, b in base.items()}
        stop, dlog = _sweep(tree, start, s2, prec, slope)
        if stop is not None:
            return False, stop != root, None
        if not slope:
            return True, False, None
        return True, False, _newton_step(Scalar(dlog, ctx))

    return probe


def _newton_step(dlog):
    # above the largest root d/dc log|det| is positive; anything else is
    # rounding noise and gives no step
    if dlog.sign() > 0:
        return -1 / dlog
    return None


def gershgorin_cap(s, max_degree):
    """A strict upper bound on the spectrum of M(s): the largest Gershgorin
    row bound, 1 + s^2 (d - 1) + |s| d at the largest degree d, plus one.

    Rounding is monotone in d, so this row is the largest one bit for bit.
    """
    return 1 + s * s * (max_degree - 1) + abs(s) * max_degree + 1


class RadiusEstimate:
    """A bracket [low, high] around the largest eigenvalue.

    low, high and iterations are those of bisecting the starting bracket
    ``iterations`` times, so high - low equals its width divided by
    2^iterations (up to final-digit rounding). ``probes`` counts the
    sweeps actually run (both ends, the probe confirming a tree's float
    start, Newton steps, certification and the replayed midpoints) and
    ``early_breaks`` those decided before their sweep finished; both are
    diagnostic only. The float sweeps behind that start are not counted.
    """

    __slots__ = ("low", "high", "iterations", "early_breaks", "probes")

    def __init__(self, low, high, iterations, early_breaks, probes):
        self.low = low
        self.high = high
        self.iterations = iterations
        self.early_breaks = early_breaks
        self.probes = probes

    def value(self):
        return (self.low + self.high).halved()

    def width(self):
        return self.high - self.low

    def __repr__(self):
        return "RadiusEstimate(%s, width=%s, iters=%d)" % (
            self.value().to_decimal_string(20),
            self.width().to_decimal_string(3),
            self.iterations,
        )


def approximate_radius(obj, s, lo, hi, iterations=None, target_digits=None):
    """Bracket the largest eigenvalue of M(s) as bisecting [lo, hi] would.

    ``obj`` is a Tree or a Caterpillar (the latter probed by the folded
    backbone recurrence). The bracket must satisfy rho >= lo and
    rho < hi; both ends are probed and a bad bracket raises
    BracketingError. When ``iterations`` is omitted it is derived from
    ``target_digits`` (default: the context's digits) as the count needed
    to shrink the bracket below 10^-target_digits. The result is that of
    ``iterations`` halvings, found by :func:`deflap.scalar.find_root`:
    Newton steps down to the root, a certified bracket, and a replay of
    the halvings that probes only the midpoints inside it. On a Tree the
    Newton steps start from a float Laguerre estimate just above rho
    (:func:`_laguerre_start`) once a probe confirms it lies above; a
    caterpillar's, or an unconfirmed estimate's, start from hi. At s = 0,
    M(0) = I: rho = 1 exactly and every pivot is 1 - c, so the search
    skips the float start and probes only around 1, lo = 1 included.

    The default target reaches the ulp of hi (at 120 digits, [1, 5.4]
    ends one ulp, 7.75e-121, wide), so rounding decides the last
    halvings; :func:`deflap.shearer.epsilon_k` refuses such widths. A
    target ceil(log10 |hi|) + 3 digits below the context's keeps the
    width above 2^11 ulp of hi: on 40 caterpillar radii at 50-250 digits
    no halving then stalled or took another side than at 400 digits.
    """
    if not isinstance(obj, (Tree, Caterpillar)):
        raise DomainError("expected a Tree or a Caterpillar")
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    ctx = s.ctx
    prec = ctx.prec
    s_raw = s.raw()
    s2 = mpf_mul(s_raw, s_raw, prec, _RND)
    root = ctx.scalar(1) if s2 == fzero else None
    estimate = None
    if isinstance(obj, Caterpillar):
        probe = _caterpillar_probe(obj, s2, ctx)
    else:
        probe = _tree_probe(obj, _base(obj, s2, prec), s2, ctx)
        if root is None:
            f = s.to_float()
            fs2 = f * f  # inf past float range, where the float start gives up
            fbase = {deg: 1.0 + fs2 * (deg - 1) for deg in set(obj.degree)}
            estimate = partial(_laguerre_start, obj, fbase, fs2)
    return _bracket(probe, ctx.scalar(lo), ctx.scalar(hi), iterations, target_digits, estimate, root)


def adjacency_radius(tree, ctx, target_digits=None):
    """Bracket rho(A), the largest adjacency eigenvalue of a tree.

    The kernel sweeps A - c*I (each pivot starts at -c and absorbs -1/d_c
    from each child) over [0, max degree + 1], which holds rho(A) since
    trace A = 0, with :func:`approximate_radius`'s Newton steps from its
    confirmed float Laguerre start. The high end bounds rho(A) from above
    within 10^-target_digits (default: the context's digits).
    """
    if not isinstance(tree, Tree):
        raise DomainError("adjacency_radius needs a Tree")
    probe = _tree_probe(tree, dict.fromkeys(tree.degree, fzero), fone, ctx)
    estimate = partial(_laguerre_start, tree, dict.fromkeys(tree.degree, 0.0), 1.0)
    hi = ctx.scalar(tree.max_degree() + 1)
    return _bracket(probe, ctx.zero(), hi, None, target_digits, estimate)


# Laguerre's float pre-solve runs at most this many sweeps, and a step
# below _LAGUERRE_TOL times the iterate lands. Far above rho its steps
# shrink only linearly, the more slowly the larger the tree: random trees
# of 10^5 vertices took 60-138 sweeps. A float sweep costs about 1/20 of
# a 50-digit one, so the cap stays near 10 sweeps' worth, against the
# 140-350 a start from hi takes.
_LAGUERRE_SWEEPS = 200
_LAGUERRE_TOL = 1e-14


def _laguerre_start(tree, base, s2, hi):
    """A float at or just above the largest root of det(P - cI), or None.

    P is the tree matrix whose pivot sweep at c starts each vertex at
    ``base[deg] - c`` and subtracts ``s2``/d_c per child: M(s) with base
    1 + s^2 (deg - 1), or A with base 0 and s2 = 1. Its determinant is a
    real-rooted polynomial of degree n, so Laguerre's steps
    c <- c - n/(G + sqrt((n - 1)(nH - G^2))), run from ``hi`` above the
    roots, fall monotonically onto the largest (B. Parlett, Math. Comp.
    18 (1964) 464-485). G = sum d'/d and H = sum (d'/d)^2 - d''/d come
    from one float sweep per step, with d_v' = -1 + s2 sum_c d_c'/d_c^2
    and d_v'' = s2 sum_c (d_c''/d_c^2 - 2 d_c'^2/d_c^3).

    The sweep follows :func:`_sweep`'s order and stops at the first
    nonnegative pivot, which marks an iterate on or below the root. The
    steps stop there, when one stops shrinking or drops below
    _LAGUERRE_TOL of the iterate, or after _LAGUERRE_SWEEPS sweeps. The
    result is the last iterate the sweep found above the root, or the
    landed one. Nothing here decides a sign the caller returns: the
    caller raises the result, probes it before using it, and takes None
    (no finite start) as hi.
    """
    if not math.isfinite(hi):
        return None
    children = tree.children
    degree = tree.degree
    postorder = tree.postorder
    # childless vertices share one pivot (see _sweep) and are folded into
    # their parents' sums; the rest are swept in postorder, each with its
    # base, its childless children's count and its swept children's slots
    leaf_base = base[degree[postorder[0]]]
    leaves = 0
    slot = [0] * tree.n
    nodes = []
    for v in postorder:
        kids = children[v]
        if not kids:
            leaves += 1
            continue
        inner = [slot[c] for c in kids if children[c]]
        slot[v] = len(nodes)
        nodes.append((base[degree[v]], len(kids) - len(inner), inner))
    d = [0.0] * len(nodes)
    d1 = [0.0] * len(nodes)
    d2 = [0.0] * len(nodes)

    def sweep(c):
        # (G, H) at c, or None at the first nonnegative pivot
        leaf = leaf_base - c
        if leaf >= 0:
            return None
        r = 1.0 / leaf
        lr1 = -r * r
        lr2 = 2.0 * lr1 * r
        g_sum = -leaves * r
        h_sum = -leaves * lr1
        for i, (b, k, inner) in enumerate(nodes):
            acc = k * r
            acc1 = k * lr1
            acc2 = k * lr2
            for j in inner:
                q = 1.0 / d[j]
                p = d1[j] * q
                acc += q
                acc1 += p * q
                acc2 += (d2[j] - 2.0 * p * d1[j]) * q * q
            a = b - c - s2 * acc
            if a >= 0:
                return None
            a1 = s2 * acc1 - 1.0
            a2 = s2 * acc2
            g = a1 / a
            g_sum += g
            h_sum += g * g - a2 / a
            d[i] = a
            d1[i] = a1
            d2[i] = a2
        return g_sum, h_sum

    n = tree.n
    c = hi
    gh = sweep(c)
    if gh is None:
        return None
    prev = math.inf
    for _ in range(_LAGUERRE_SWEEPS - 1):
        g, h = gh
        disc = (n - 1) * (n * h - g * g)
        den = g + math.sqrt(disc) if disc > 0 else g
        if not (den > 0 and math.isfinite(den)):
            break
        step = n / den
        if not step < prev:
            break
        nxt = c - step
        if step <= _LAGUERRE_TOL * abs(c):
            c = nxt
            break
        gh = sweep(nxt)
        c = nxt
        if gh is None:
            break
        prev = step
    return c


def _bracket(all_negative, lo, hi, iterations, target_digits, estimate=None, root=None):
    """The search behind both radius brackets.

    ``all_negative(c, slope)`` is a probe returning (all_negative, early,
    step). After both ends, a ``root`` known exactly in [lo, hi) is
    handed to :func:`deflap.scalar.find_root` as its start with a zero
    step, so only the probes within a final width of it run, also when
    it is lo itself.
    Otherwise ``estimate(hi)``, when given, names a float at or just
    above the root (or None). Raised by a relative lift, one
    probe with the slope confirms it, and :func:`deflap.scalar.find_root`
    takes its Newton steps from there when it lies strictly inside
    (lo, hi), on hi's side and with a step, else from hi. Either way the
    replay walks the midpoints of [lo, hi], so the bracket is the one
    bisecting [lo, hi] gives.

    The lift is 2^-40, or 2^-(prec/3) below 120 bits: the first Newton
    step from the start then leaves the iterate about 2^-(2 prec/3)
    above the root, clear of the rounding noise, so the finder's error
    model sees a converging step before the noise decides a side.
    """
    ctx = lo.ctx
    if not lo < hi:
        raise BracketingError("bracket is empty: lo must be strictly below hi")
    early_breaks = 0

    def probe(c, slope):
        nonlocal early_breaks
        below, early, step = all_negative(c, slope)
        if early:
            early_breaks += 1
        return (1 if below else -1), step

    if probe(lo, False)[0] > 0:
        raise BracketingError("largest eigenvalue lies below lo already")
    side, step = probe(hi, True)
    if side < 0:
        raise BracketingError("largest eigenvalue is not below hi")
    if iterations is None:
        if target_digits is None:
            target_digits = ctx.digits
        iterations = halvings(hi - lo, target_digits)
    probes = 2
    start = hi
    if root is not None and lo <= root < hi:
        start, step = root, ctx.zero()
    elif estimate is not None:
        guess = estimate(hi.to_float())
        if guess is not None:
            guess = ctx.scalar(guess + abs(guess) * 2.0 ** -min(40, ctx.prec // 3))
            if lo < guess < hi:
                probes += 1
                above, guess_step = probe(guess, True)
                if above > 0 and guess_step is not None:
                    start, step = guess, guess_step
    found = find_root(probe, lo, hi, iterations, start, step)
    return RadiusEstimate(found.low, found.high, int(iterations), early_breaks, found.probes + probes)
