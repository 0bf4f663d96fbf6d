"""Congruence diagonalization of M(s) = I - s*A + s^2*(D-I) on trees.

One bottom-up sweep produces a diagonal matrix congruent to M(s) + x*I,
so by Sylvester's law of inertia the sign counts of the output locate
eigenvalues relative to -x without ever forming the matrix (Jacobs &
Trevisan, "Locating the eigenvalues of trees", LAA 434 (2011) 81-88).
Everything else in this package (radius brackets, caterpillar
generation, error certificates) reduces to this sweep or to its closed
caterpillar form; no library path forms a dense matrix.

The surgery kernel, :func:`_surgery_sweep`, sweeps every vertex of a
tree from a per-degree table with the zero-pivot surgery in the
arithmetic its caller hands it: rounded libmp for
:func:`diagonalize_tree`, outward-rounded intervals and exact rationals
for the count ladder. The radius probe of a tree and of a caterpillar
is one leaf-folded recurrence, :func:`_pivots`: :func:`_fold` turns a
tree, or a caterpillar as the tree it expands to, into nodes that
absorb their pendant leaves, whose pivots are all 1 - c, and the probe
(:func:`_radius_probe`, behind the radii and the eps_k certificate of
:mod:`deflap.shearer`) stops at the first nonnegative node pivot. It
runs on Python integers counting 2^-g, g = prec + 64 or finer, each
operation rounded by hand (:func:`deflap.scalar._round`); a value that
falls below the grid reruns the probe on a finer one. Rounded sweeps
round every operation as Scalar arithmetic would; Scalars appear only at
the API edge, in returned values and in the Newton step of the probes,
which share one bracket search, :func:`approximate_radius`. A tree's
search starts from a float Laguerre estimate (:func:`_laguerre_start`,
on the same fold); floats only place that start, and every sign a
radius rests on comes from the kernel.

:func:`count_eigenvalues` proves each triple it returns, by the count
ladder :class:`_Ladder`: most are decided by a pair of double-precision
sweeps a backward-error bound apart, which also proves each side of a
count alone; the rest by the surgery kernel in interval or exact
rational arithmetic. The same ladder counts M(s) on T less a leaf, on
T's own arrays, and A - tI.
"""

import math
import operator
from itertools import islice

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
from .scalar import _div, _drop, _mul, _on_grid, _round
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


def _surgery_sweep(order, degree, children, start, s2, arith):
    """Sweep every vertex with the zero-pivot surgery in the arithmetic
    ``arith``: returns (d, inertia), or None when a sign is unknown.

    ``order`` visits each vertex after its ``children``; with ``degree``
    these are T's postorder, children lists and degrees, or those of
    T - v on T's (:meth:`_Ladder._surgery_arrays`). ``arith`` is (one,
    add, sub, mul, div, sign); sign(x) is -1, 0, 1, or None when
    unknown. d[v] starts at ``start[deg v]`` and, in ``order``, becomes
    d_v - s2 * acc, acc the sum of 1/d_c over its children in list
    order. A zero child c
    instead forces (d_v, d_c) := (-s2/2, 2), d_v formed as d_c - s2/2,
    and detaches v from its parent. At s2 = 0 the pivots are the start.
    inertia is (positive, negative, zero) over the pivots of ``order``.
    A child, or a final pivot, of unknown sign gives None.
    """
    one, add, sub, mul, div, sign = arith
    d = [start[deg] for deg in degree]
    if sign(s2):
        two = add(one, one)
        # childless vertices share one pivot, which no surgery rewrites
        # before their parent reads it, so they share its reciprocal too
        leaf = d[order[0]]
        leaf_r = div(one, leaf) if sign(leaf) else None
        cut = set()
        for v in order:
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
    signs = [sign(d[v]) for v in order]
    if None in signs:
        return None
    pos = signs.count(1)
    neg = signs.count(-1)
    return d, (pos, neg, len(order) - pos - neg)


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
    one = from_int(1, prec, _RND)
    start = {}
    for deg in set(tree.degree):
        # 1 + s^2 (deg - 1), then the shift
        b = mpf_add(one, mpf_mul(s2, from_int(deg - 1, prec, _RND), prec, _RND), prec, _RND)
        start[deg] = mpf_add(b, x, prec, _RND)
    ops = [lambda a, b, op=op: op(a, b, prec, _RND) for op in (mpf_add, mpf_sub, mpf_mul, mpf_div)]
    d, inertia = _surgery_sweep(tree.postorder, tree.degree, tree.children, start, s2, (fone, *ops, _sign))
    return DiagOutcome(d, ctx, inertia)


def count_eigenvalues(tree, s, c):
    """How many eigenvalues of M(s) lie above / below / at the point c.

    Every triple returned is exact for the Scalar values of s and c. It
    comes from the first of three rungs of :meth:`_Ladder.prove` that
    decides it:

    1. :meth:`_Ladder.pair`: two double-precision sweeps, at c - 2 eta
       and at c + 2 eta, from :func:`_float_table`, which holds
       1 + s^2 (deg - 1) at every degree 0..D, over the tree's inner
       vertices with its pendant leaves folded in
       (:func:`_float_positive`). When both meet no zero or non-finite
       pivot and give the same positive count p, the triple is
       (p, n - p, 0).
    2. :meth:`_Ladder.interval`: :func:`_surgery_sweep` in interval
       arithmetic at the context's precision from the exact start table.
       It decides when every pivot's interval excludes zero or is the
       point zero, as at c = 1 on a tree with two sibling leaves.
    3. :meth:`_Ladder.exact`: :func:`_surgery_sweep` in exact rational
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
    product (u) and the child's own nu_w (u): |rho| <= (k + 5)u. The
    float rung folds v's r pendant leaves, whose pivots all equal
    a_leaf = beta_leaf (a leaf subtracts nothing, so its nu is 0), into
    one summand fl(r fl(1/a_leaf)) of acc_v, summed first, and its i
    inner children add theirs. For r = 1 the product is exact; for
    r >= 2 its one rounding stands for r equal terms. The sum then has
    i + 1 summands where the unfolded sweep has k = i + r, so a leaf's
    edge takes the reciprocal, at most one product and at most i sum
    roundings, (i + 2)u <= ku for r >= 2 and (i + 1)u = ku for r = 1,
    and an inner child's edge the reciprocal and at most i roundings:
    within the ku of the reciprocal and the sum above, so |rho| <=
    (k + 5)u holds for the folded sweep too, edge by edge. So an
    edge moves by at most |s| (D + 5) u, D the largest degree, and the
    edges of E together by at most that times D in norm. The diagonal
    entry beta_v = fl(fl(1 + fl(s2 (deg - 1))) - x) is off 1 + s^2 (deg
    - 1) - x by at most u (4 s^2 m + |1 + s^2 m| + |b_v - x|) with
    m = max(D - 1, 1), so by u (2 + 6 s^2 m + |x|). In all, ||E|| <=
    u (2 + 6 s^2 m + |c| + |s| D (D + 5)) to first order, and rounding c
    and c +- 2 eta to the sweep's format moves the shift by at most
    3u|c| more. eta (:meth:`_Ladder._positive`) is u times twice the sum
    with 5|c| in place of |c|, which covers those, every second-order term
    and the rounding of |s|, |c| and the sum itself to floats.

    By Weyl's inequality each eigenvalue of M(s) + E lies within ||E|| of
    one of M(s). The shifts x+ and x- the two sweeps run at lie more than
    eta beyond c, so the sweep at x+ counts p+ <= #{lam > c} eigenvalues
    above x+, and the sweep at x- counts p- >= #{lam >= c}. If p- = p+ =
    p, then #{lam >= c} <= p <= #{lam > c}: no eigenvalue equals c and
    exactly p lie above it. A zero pivot ends the float sweep undecided.

    Each sweep also proves one side alone (:meth:`_Ladder.side`): p+ >= 1
    proves some eigenvalue above c, and p- = 0 proves every eigenvalue
    below c. So a caller that needs only one side runs one sweep, and
    falls back to the count when it is undecided. The same rungs with
    T's eta count T - v, v a leaf, on T's own arrays: T - v's degrees
    and |s| are T's or lower, and the bound grows with the largest
    degree, so T's eta covers the smaller matrix. Its lowered degree may
    be one T lacks (2 on K1,3 less a leaf, 0 on K2 less one), which is
    why the table holds every degree up to D.

    The first rung runs only for |s| in [2^-200, 2^200] (or s = 0) and
    |c| <= 2^400. There an overflow in a reciprocal, a folded product or
    a sum leaves an infinity or a NaN in the sums, which ends the sweep
    undecided. A pivot that overflows keeps its sign, and its
    reciprocal, read as zero, is off by less than 2^-1022; that and every
    underflow move a pivot by less than (D + 1) 2^-600, which eta adds. J. Demmel, I.
    Dhillon and H. Ren (ETNA 3 (1995) 116-149) bound Sturm counts in
    floating point the same way.
    """
    if not isinstance(tree, Tree):
        raise DomainError("count_eigenvalues needs a Tree")
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    return _Ladder(tree, s).prove(s.ctx.scalar(c))


def _float_positive(order, last, fold, degree, parent, size, table, s2, x):
    """The positive count of the float sweep at shift ``x``, or None when
    a pivot is zero or the sweep leaves float range.

    Push form over the leaf-folded arrays it is handed (see
    :class:`_Ladder`). Every pendant leaf's pivot is a_leaf = table[1] -
    x, so a vertex's acc starts at its count k of pendant leaves times
    1/a_leaf, which ``fold`` picks out of those products for k = 0..D,
    and the ``size`` - ``last`` - 1 leaves are counted by its sign. The
    first ``last`` vertices of ``order``, then its root ``order[last]``,
    each take a = table[degree] - x - s2 * acc, and all but the root add
    1/a to their ``parent``'s acc. With no leaves a_leaf is not formed.
    """
    start = [b - x for b in table]
    leaves = size - last - 1
    neg = 0
    try:
        r = 1.0 / start[1] if leaves else 0.0
        acc = list(fold([k * r for k in range(len(table))]))
        for v in islice(order, last):
            a = start[degree[v]] - s2 * acc[v]
            if a < 0.0:
                neg += 1
            acc[parent[v]] += 1.0 / a
    except ZeroDivisionError:
        return None
    root = order[last]
    a = start[degree[root]] - s2 * acc[root]
    # an overflow leaves an infinity or a NaN in acc, at the latest in
    # the root's, whose pivot reads it
    if a == 0.0 or not math.isfinite(sum(acc)):
        return None
    if a < 0.0:
        neg += 1
    if r < 0.0:
        neg += leaves
    return size - neg


def _float_table(tree, s):
    """(|s|, s^2, table): s rounded to the nearest float, and M(s)'s
    float start table at every degree 0..D: table[deg] = 1 + s^2 (deg - 1).
    Degrees absent from the tree are filled too, for the sweeps of T - v
    (:class:`_Ladder`), whose lowered degree may be absent from T, and 0
    on K1. |s| and s^2 are inf past float range.
    """
    fs = abs(to_float(s.raw(), rnd=_RND))
    s2 = fs * fs
    return fs, s2, [1.0 + s2 * (deg - 1) for deg in range(tree.max_degree() + 1)]


# the largest sum, over the pivots that :meth:`_Ladder.exact`'s sweep
# forms, of their bit lengths: 0.4-0.6 s of Fraction arithmetic on a
# shared 2-core Intel Xeon host
_EXACT_BITS = 1 << 26


class _Ladder:
    """The rungs of :func:`count_eigenvalues` for one tree matrix P given
    as sweep arrays: M(s) on the tree T, M(s) on T - ``leaf``, or A - tI
    when s is None. :meth:`prove` counts at c, and :meth:`count` keeps
    the counts per point. :meth:`above` and :meth:`below` take one float
    sweep (:meth:`side`) where it proves the answer, else the count.

    ``arrays`` is (order, last, fold, degree, parent, size) of
    :func:`_float_positive`, on T's leaf-folded arrays
    (:meth:`deflap.trees.Tree._peeled`): its inner order, the index of
    the sweep's root in it, an itemgetter of the pendant-leaf counts,
    the degrees, the parents and the number of vertices counted. The
    getter takes one more index, 0, so that it returns a tuple also on
    K1; the sweep's acc then has one unused slot. T - v lowers the
    pendant count and the degree of v's parent; when v is T's root, its
    one child, last but one in the inner order, becomes the sweep's root
    with its degree lowered, and on K2 the lone other vertex is. No
    order is copied. ``floats`` is (table, s^2) of rung 1: T's
    :func:`_float_table`, whose eta bounds T - v's sweep too. A - tI's
    is a zero table with s^2 = 1 and M(s)'s eta at |s| = 1. That bound
    holds for it: the diagonal -x is exact, since each start is 0 - x,
    and s^2 = 1 is exact, so the matrix the rounded sweep diagonalizes
    moves by no more than M(s)'s at |s| = 1, whose diagonal and s^2
    carry rounding that A - tI's do not. ``_eta`` keeps the parts of
    eta that do not depend on c.

    The interval and exact rungs sweep T's postorder and children lists,
    derived when one of them first runs (:meth:`_surgery_arrays`).
    """

    __slots__ = ("s", "arrays", "floats", "_eta", "_tree", "_leaf", "_surgery", "_counts")

    def __init__(self, tree, s=None, leaf=None):
        self.s = s
        if s is None:
            zero, fs, s2, table = False, 1.0, 1.0, [0.0] * (tree.max_degree() + 1)
        else:
            zero = s.is_zero
            fs, s2, table = _float_table(tree, s)
        self.floats = table, s2
        top = len(table) - 1
        m = max(top - 1, 1)
        # eta/u is twice the sum that bounds ||E||/u, with 5|c| for |c|
        # (see _positive); these are its terms free of c
        self._eta = ((zero or 2.0 ** -200 <= fs <= 2.0 ** 200), 2 + 6 * fs * fs * m,
                     fs * top * (top + 5), (top + 1) * 2.0 ** -600)
        self._counts = {}
        self._tree, self._leaf, self._surgery = tree, leaf, None
        order, pendant = tree._peeled()
        degree = tree.degree
        last = len(order) - 1
        size = tree.n
        if leaf is not None:
            size -= 1
            u = tree.parent[leaf]
            if u is None:
                if last:
                    last -= 1
                    u = order[last]
                else:
                    u = 1 - leaf
                    order = [u]
            else:
                pendant = list(pendant)
                pendant[u] -= 1
            degree = list(degree)
            degree[u] -= 1
        self.arrays = order, last, operator.itemgetter(*pendant, 0), degree, tree.parent, size

    def _positive(self, c, up):
        """The positive count of the float sweep at c + 2 eta (``up``) or
        c - 2 eta, or None, also outside the range eta's bound covers
        (see :func:`count_eigenvalues`)."""
        in_range, head, tail, floor = self._eta
        fc = to_float(c.raw(), rnd=_RND)
        if not (in_range and abs(fc) <= 2.0 ** 400):
            return None
        eta = 2 * (head + 5 * abs(fc) + tail) * 2.0 ** -53 + floor
        return _float_positive(*self.arrays, *self.floats, fc + 2 * eta if up else fc - 2 * eta)

    def side(self, c, above):
        """True when one half of rung 1's pair proves that some eigenvalue
        lies above c (``above``: p+ >= 1), or that every eigenvalue lies
        below c (p- = 0; see :func:`count_eigenvalues`). False says
        nothing either way."""
        pos = self._positive(c, above)
        if above:
            return pos is not None and pos >= 1
        return pos == 0

    def pair(self, c):
        """Rung 1: the count of eigenvalues above c, proved by two float
        sweeps, or None."""
        pos = self._positive(c, True)
        if pos is None or pos != self._positive(c, False):
            return None
        return pos

    def _surgery_arrays(self):
        """(order, degree, children) of :func:`_surgery_sweep`, made on
        first use: T's postorder and children lists, for T - v the
        postorder less v and v left out of its parent's list; when v is
        T's root its one child comes last in that order and is T - v's
        root."""
        if self._surgery is None:
            tree, leaf = self._tree, self._leaf
            order, children = tree.postorder, tree.children
            if leaf is not None:
                order = [w for w in order if w != leaf]
                u = tree.parent[leaf]
                if u is not None:
                    children = list(children)
                    children[u] = [w for w in children[u] if w != leaf]
            self._surgery = order, self.arrays[3], children
        return self._surgery

    def _start(self, c):
        """(start, s2): P - cI's start table by degree, 1 + s^2 (deg - 1) - c
        or -c, and s^2, exact raw tuples."""
        degrees = set(self.arrays[3])
        if self.s is None:
            return dict.fromkeys(degrees, mpf_neg(c.raw())), fone
        s2 = mpf_mul(self.s.raw(), self.s.raw())
        one_c = mpf_sub(fone, c.raw())
        return {deg: mpf_add(one_c, mpf_mul(s2, from_int(deg - 1))) for deg in degrees}, s2

    def interval(self, c):
        """Rung 2: the triple of :func:`_surgery_sweep` from the exact
        :meth:`_start` in intervals at c's precision, or None when a
        pivot's interval holds zero and more.

        Every operation rounds outward, so each interval holds the exact
        pivot: one that excludes zero gives its sign, and one that is the
        point zero is an exact zero (a leaf at c = 1, say), on which the
        surgery runs as in exact arithmetic. A straddling child ends the
        sweep, since whether it takes the surgery is then unknown.
        """
        start, s2 = self._start(c)
        prec = c.ctx.prec

        def point(x):
            return mpf_pos(x, prec, round_floor), mpf_pos(x, prec, round_ceiling)

        def sign(x):
            lo = _sign(x[0])
            return lo if lo == _sign(x[1]) else None

        start = {deg: point(b) for deg, b in start.items()}
        ops = [lambda a, b, op=op: op(a, b, prec) for op in (mpi_add, mpi_sub, mpi_mul, mpi_div)]
        swept = _surgery_sweep(*self._surgery_arrays(), start, point(s2), ((fone, fone), *ops, sign))
        return swept and swept[1]

    def exact(self, c):
        """Rung 3: the inertia triple of :func:`_surgery_sweep` in rational
        arithmetic from the exact :meth:`_start`; c names the point in the
        error.

        A pivot's bit length grows with its subtree (about 2 prec bits per
        vertex along a path), so the sweep's cost grows as the square of the
        tree's height; past a work budget of :data:`_EXACT_BITS` bits it
        raises PrecisionError. The budget is metered in the subtraction,
        which forms every pivot the sweep takes on.
        """
        from fractions import Fraction

        start, s2 = self._start(c)
        work = 0

        def sub(a, b):
            nonlocal work
            d = a - b
            work += d.numerator.bit_length() + d.denominator.bit_length()
            if work > _EXACT_BITS:
                raise PrecisionError(
                    "counting eigenvalues at c = %s exactly needs more than %d bits of "
                    "pivots: c is an eigenvalue, or within the working precision "
                    "of one, on a tree this deep" % (c, _EXACT_BITS))
            return d

        def sign(x):
            return (x > 0) - (x < 0)

        start = {deg: Fraction(*to_rational(b)) for deg, b in start.items()}
        arith = (Fraction(1), operator.add, sub, operator.mul, operator.truediv, sign)
        return _surgery_sweep(*self._surgery_arrays(), start, Fraction(*to_rational(s2)), arith)[1]

    def prove(self, c):
        """The proved triple (above, below, at) c from the first rung that
        decides it."""
        pos = self.pair(c)
        if pos is not None:
            return pos, self.arrays[5] - pos, 0
        return self.interval(c) or self.exact(c)

    def count(self, c):
        """:meth:`prove` at c, once per point."""
        key = c.raw()
        if key not in self._counts:
            self._counts[key] = self.prove(c)
        return self._counts[key]

    def above(self, c):
        """Whether some eigenvalue lies above c."""
        return self.side(c, True) or self.count(c)[0] >= 1

    def below(self, c):
        """Whether every eigenvalue lies below c."""
        if self.side(c, False):
            return True
        pos, _, zero = self.count(c)
        return pos == 0 and zero == 0


def _fold(obj):
    """A Tree or a Caterpillar as (nodes, leaves), the input of its
    leaf-folded sweep (:func:`_pivots`), built once per radius search.

    Each node is (m, r, inner): m is its degree, r counts its childless
    children, the folded leaves, and inner lists the indices of its other
    children in the tree's children order. Nodes are the root and every
    vertex with children, in postorder, the root last, so inner indices
    point back; ``leaves`` is the sum of r. A node starts at
    1 + s^2 (m - 1) - c, which carries every leaf's s^2, so c cancels
    there as in the unfolded sweep. A caterpillar folds as the tree it
    expands to (:func:`deflap.trees.caterpillar_to_tree`), built from its
    counts: v_j has degree r_j plus its backbone neighbours, and a v_1
    with no leaves is a leaf of v_2.
    """
    if isinstance(obj, Caterpillar):
        counts = obj.counts
        k = len(counts)
        # the first node is v_1, or v_2 with a leafless v_1 among its leaves
        first = 0 if counts[0] else 1
        nodes = [(counts[j] + (j > 0) + (j < k - 1), counts[j] + (j == first == 1),
                  [j - first - 1] if j > first else []) for j in range(first, k)]
        return nodes, k + sum(counts) - len(nodes)
    children = obj.children
    root = obj.postorder[-1]
    slot = [0] * obj.n
    nodes = []
    for v in obj.postorder:
        kids = children[v]
        if kids or v == root:
            inner = [slot[w] for w in kids if children[w]]
            slot[v] = len(nodes)
            nodes.append((obj.degree[v], len(kids) - len(inner), inner))
    return nodes, obj.n - len(nodes)


def _pivots(fold, s2, c, prec, slope, g):
    """Yield (b_v, b_v') for the nodes of ``fold``: the leaf-folded sweep
    of M(s) - cI.

    Every pendant leaf pivot is 1 - c, so each leaf adds delta =
    s2/(c - 1) to its node: b_v = 1 + s2 (m - 1) - c - sum of s2/b_w
    over its inner children w + r delta. A caterpillar's fold is that of
    the tree it expands to (:func:`_fold`), so it sweeps bit for bit as
    that tree. With ``slope``, b_v' = -1 + sum of s2 b_w'/b_w^2 +
    r delta' is the derivative in c, delta' = -s2/(c - 1)^2; otherwise
    b_v' is None.

    ``s2``, ``c`` and every value yielded are Python integers counting
    2^-g. Every operation rounds to ``prec`` bits by hand, to nearest,
    in the order the formulas read left to right, the inner children's
    terms summed first and in list order, bit for bit as libmp and
    Scalar arithmetic would (:func:`deflap.scalar._round`); a value that
    would fall below the grid raises _OffGrid. 1 + s2 (m - 1) - c is
    formed once per m and point, and delta once per point, only when the
    fold has leaves. c = 1 is a pole of delta, and a parent divides by
    its children's b_w, so the caller (:func:`_radius_probe`) passes c = 1
    only to a fold with no leaves and stops at the first nonnegative b_v.
    """
    nodes, leaves = fold
    one = 1 << g
    if leaves:
        cm1 = _round(c - one, prec)
        delta = _div(s2, cm1, prec, g)
        if slope:
            ddelta = _div(-s2, _mul(cm1, cm1, prec, g), prec, g)
    starts = {}
    b = [0] * len(nodes)
    db = [None] * len(nodes)
    for j, (m, r, inner) in enumerate(nodes):
        v = starts.get(m)
        if v is None:
            v = starts[m] = _round(_round(one + _round(s2 * (m - 1), prec), prec) - c, prec)
        acc = dacc = None
        for w in inner:
            bw = b[w]
            q = _div(s2, bw, prec, g)
            acc = q if acc is None else _round(acc + q, prec)
            if slope:
                t = _div(_mul(q, db[w], prec, g), bw, prec, g)
                dacc = t if dacc is None else _round(dacc + t, prec)
        if acc is not None:
            v = _round(v - acc, prec)
        if r:
            v = _round(v + _round(delta * r, prec), prec)
            if slope:
                t = _round(ddelta * r, prec)
                dacc = t if dacc is None else _round(dacc + t, prec)
        if slope:
            dacc = db[j] = _round((dacc or 0) - one, prec)
        b[j] = v
        yield v, dacc


def _radius_probe(fold, s2, ctx):
    """The radius probe of M(s) at s^2 = ``s2`` (raw) on a :func:`_fold`:
    returns probe(c, slope) -> (all_negative, early, step).

    The probe runs :func:`_pivots` on integers counting 2^-g, g = prec
    + 64 or finer, so that c and s2 lift exactly; a value that falls
    below the grid reruns the probe on a finer one
    (:func:`deflap.scalar._on_grid`). Signs are read off the integers.
    The probe stops at its first nonnegative pivot, so it never divides
    by a zero one. With leaves, the leaf pivot 1 - c is checked first, so
    the c = 1 pole is never evaluated: a nonnegative leaf pivot already
    decides the probe. ``early`` reports a verdict reached before the
    root. With ``slope`` and every pivot negative, step is the Newton
    step -1/L toward the largest eigenvalue, where L = d/dc log|det(M -
    cI)| sums b_v'/b_v over the nodes and 1/(c - 1) per leaf; L alone
    becomes a raw tuple, and step a Scalar; otherwise step is None.
    """
    prec = ctx.prec
    nodes, leaves = fold
    last = len(nodes) - 1

    def sweep(g, s2, c, slope):
        one = 1 << g
        if leaves and c <= one:
            return False, True, None
        total = None
        for j, (b, db) in enumerate(_pivots(fold, s2, c, prec, slope, g)):
            if b >= 0:
                return False, j < last, None
            if slope:
                t = _div(db, b, prec, g)
                total = t if total is None else _round(total + t, prec)
        if not slope:
            return True, False, None
        if leaves:
            total = _round(total + _div(leaves << g, _round(c - one, prec), prec, g), prec)
        return True, False, _newton_step(_drop(total, -g, ctx))

    return lambda c, slope: _on_grid(sweep, prec, (s2, c.raw()), slope)


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

    ``obj`` is a Tree or a Caterpillar, both probed by the leaf-folded
    recurrence (:func:`_fold`, :func:`_radius_probe`). The bracket must
    satisfy rho >= lo and rho < hi; both ends are probed and a bad
    bracket raises BracketingError. When ``iterations`` is omitted it is
    derived from ``target_digits`` (default: the context's digits) as the
    count needed to shrink the bracket below 10^-target_digits. The
    result is that of ``iterations`` halvings, found by
    :func:`deflap.scalar.find_root`: Newton steps down to the root, a
    certified bracket, and a replay of the halvings that probes only the
    midpoints inside it. On a Tree the Newton steps start from a float
    Laguerre estimate just above rho (:func:`_float_start`), raised by a
    small relative lift, once one probe with the slope confirms that it
    lies above rho and strictly inside (lo, hi); a caterpillar's, or an
    unconfirmed estimate's, start from hi. At s = 0, M(0) = I: rho = 1
    exactly and every pivot is 1 - c, so the search skips the float start
    and, from 1 with a zero step, probes only around 1, lo = 1 included.

    The default target reaches the ulp of hi (at 120 digits, [1, 5.4]
    ends one ulp, 7.75e-121, wide), so rounding decides the last
    halvings; :func:`deflap.shearer.epsilon_k` refuses such widths. A
    target ceil(log10 |hi|) + 3 digits below the context's keeps the
    width above 2^11 ulp of hi: on 40 caterpillar radii at 50-250 digits
    no halving then stalled or took another side than at 400 digits. A
    caterpillar probes bit for bit as the tree it expands to
    (:func:`_fold`), so the two brackets agree at every target.
    """
    if not isinstance(obj, (Tree, Caterpillar)):
        raise DomainError("expected a Tree or a Caterpillar")
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    ctx = s.ctx
    prec = ctx.prec
    s_raw = s.raw()
    s2 = mpf_mul(s_raw, s_raw, prec, _RND)
    fold = _fold(obj)
    all_negative = _radius_probe(fold, s2, ctx)
    lo = ctx.scalar(lo)
    hi = ctx.scalar(hi)
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
    if s2 == fzero:
        # every pivot is 1 - c, so the end probes passing puts rho = 1 in
        # [lo, hi); with a zero step find_root runs only the probes within
        # a final width of it, also when it is lo itself
        start, step = ctx.scalar(1), ctx.zero()
    elif isinstance(obj, Tree):
        guess = _float_start(obj, s, fold, hi.to_float())
        if guess is not None:
            # the lift is 2^-40, or 2^-(prec/3) below 120 bits: the first
            # Newton step from the start then leaves the iterate about
            # 2^-(2 prec/3) above the root, clear of the rounding noise, so
            # the finder's error model sees a converging step before the
            # noise decides a side
            guess = ctx.scalar(guess + abs(guess) * 2.0 ** -min(40, prec // 3))
            if lo < guess < hi:
                probes += 1
                above, guess_step = probe(guess, True)
                if above > 0 and guess_step is not None:
                    start, step = guess, guess_step
    # from any start the replay walks the midpoints of [lo, hi], so the
    # bracket is the one bisecting [lo, hi] gives
    found = find_root(probe, lo, hi, iterations, start, step)
    return RadiusEstimate(found.low, found.high, int(iterations), early_breaks, found.probes + probes)


# Laguerre's float pre-solve runs at most this many sweeps, and a step
# below _LAGUERRE_TOL times the iterate lands. Far above rho its steps
# shrink only linearly, the more slowly the larger the tree: random trees
# of 10^5 vertices took 60-138 sweeps. A float sweep costs about 1/20 of
# a 50-digit one, so the cap stays near 10 sweeps' worth, against the
# 140-350 a start from hi takes.
_LAGUERRE_SWEEPS = 200
_LAGUERRE_TOL = 1e-14


def _float_start(tree, s, fold, hi):
    """:func:`_laguerre_start` for M(s) on ``tree``, whose :func:`_fold` is
    ``fold``, from the float ``hi``."""
    _, s2, table = _float_table(tree, s)
    return _laguerre_start(fold, table, s2, hi)


def _laguerre_start(fold, base, s2, hi):
    """A float at or just above the largest root of det(P - cI), or None.

    P is M(s) on the tree whose :func:`_fold` is ``fold``. Its pivot
    sweep at c starts each vertex at ``base[deg] - c``, base 1 + s^2 (deg
    - 1), and subtracts ``s2``/d_w per child w. Its determinant is a
    real-rooted polynomial of degree n, so Laguerre's steps
    c <- c - n/(G + sqrt((n - 1)(nH - G^2))), run from ``hi`` above the
    roots, fall monotonically onto the largest (B. Parlett, Math. Comp.
    18 (1964) 464-485). G = sum d'/d and H = sum (d'/d)^2 - d''/d come
    from one float sweep per step, with d_v' = -1 + s2 sum_w d_w'/d_w^2
    and d_v'' = s2 sum_w (d_w''/d_w^2 - 2 d_w'^2/d_w^3).

    The sweep follows the fold's node order, the leaves sharing one
    pivot, and stops at the first nonnegative pivot, which marks an
    iterate on or below the root. The
    steps stop there, when one stops shrinking or drops below
    _LAGUERRE_TOL of the iterate, or after _LAGUERRE_SWEEPS sweeps. The
    result is the last iterate the sweep found above the root, or the
    landed one. Nothing here decides a sign the caller returns: the
    caller raises the result, probes it before using it, and takes None
    (no finite start) as hi.
    """
    if not math.isfinite(hi):
        return None
    nodes, leaves = fold
    starts = [base[m] for m, _, _ in nodes]
    d = [0.0] * len(nodes)
    d1 = [0.0] * len(nodes)
    d2 = [0.0] * len(nodes)

    def sweep(c):
        # (G, H) at c, or None at the first nonnegative pivot
        r = lr1 = lr2 = 0.0
        if leaves:
            leaf = base[1] - c
            if leaf >= 0:
                return None
            r = 1.0 / leaf
            lr1 = -r * r
            lr2 = 2.0 * lr1 * r
        g_sum = -leaves * r
        h_sum = -leaves * lr1
        for i, (_, k, inner) in enumerate(nodes):
            acc = k * r
            acc1 = k * lr1
            acc2 = k * lr2
            for j in inner:
                q = 1.0 / d[j]
                p = d1[j] * q
                acc += q
                acc1 += p * q
                acc2 += (d2[j] - 2.0 * p * d1[j]) * q * q
            a = starts[i] - c - s2 * acc
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

    n = len(nodes) + leaves
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
