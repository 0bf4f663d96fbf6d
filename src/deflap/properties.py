"""Executable spectral-property checks for deformed Laplacians on trees.

Each check encodes one published inequality or characterization as a
predicate over a (tree, s) pair and returns a :class:`PropertyReport`.
Checks against a closed-form bound are decided by proved counts, exact
for the Scalar values of s and the point, also at an eigenvalue: a
floor at its bound, a ceiling at its bound plus :attr:`_Shared.slack`
(tol, or ten nominal widths of the default bracket), and the star floor
on stars, where it is attained, at its bound minus and plus that slack.
The two checks that compare two spectra, leaf deletion and the
adjacency ceiling at s != 0, read rho(M(s)) through the tiers of
:meth:`_Shared.ends`. The adjacency ceiling needs no rho(A): it holds
iff rho(A) >= t for the t it solves for from a tier's high end, which a
proved count of A - tI decides. Every False verdict takes its witness
from a radius bracket.

Most questions a check asks need one side of a count only: is some
eigenvalue above c, or is every eigenvalue below c? :class:`_Shared`
asks them of the count ladder of :mod:`deflap.diagonalize`, for M(s) on
T, on T - v (on T's own arrays, never a rebuilt tree) and for A - tI.
The ladder answers each with one float sweep when that sweep proves
it, and with a proved count otherwise. A sweep proves only what the
count would say, so the verdicts and witnesses are the counts' alone.

``holds`` is three-valued: True, False (with a witness), or None when the
property's hypotheses do not apply to the input. Summaries never count
None either way.

The check functions live in the :data:`PROPERTY_CHECKS` registry so a
test harness can swap one out and confirm that injected violations are
reported.
"""

import math
from functools import cached_property

from .diagonalize import _float_start, _fold, _Ladder, approximate_radius, gershgorin_cap
from .scalar import DomainError, PrecisionError, Scalar, halvings, infer_context
from .trees import Tree

# bisection resolution (decimal digits) of the default bracket; with no
# tolerance given, the slack granted is ten of its nominal widths
DEFAULT_WIDTH_DIGITS = 30


class PropertyReport:
    """Outcome of one property check.

    holds is True, False, or None (hypotheses not satisfied; distinct
    from a violation). A False report carries a witness dict with the
    tree in text form, the value of s, and the numbers that clash.
    """

    __slots__ = ("property_id", "holds", "witness")

    def __init__(self, property_id, holds, witness=None):
        self.property_id = property_id
        self.holds = holds
        self.witness = witness

    @property
    def applicable(self):
        return self.holds is not None

    def __repr__(self):
        state = {True: "holds", False: "VIOLATED", None: "n/a"}[self.holds]
        return "PropertyReport(%s: %s)" % (self.property_id, state)


def _fmt(x):
    if isinstance(x, Scalar):
        return x.to_decimal_string(20)
    return repr(x)


def _witness(tree, s, **values):
    return {
        "tree": tree.to_text(),
        "s": _fmt(s),
        "values": {k: _fmt(v) for k, v in values.items()},
    }


class _Shared:
    """Per-(tree, s) facts memoized across the checks of one sweep cell.

    ``slack`` is the one margin granted an attained bound: tol, or 10w,
    where w = cap / 2^h is the nominal width of the default bracket,
    h = halvings(cap, width_digits) capped at prec - 2 so that w stays
    above the rounding of the working precision.

    :meth:`ends` yields (low, high) tiers, each enclosing rho:

    1. ``placed``, when its counts confirm it: two counts prove
       g(1 - 2^-36) < rho < g(1 + 2^-36) for the float Laguerre estimate
       g of rho, and low and high are those points moved 2w outward.
    2. ``bracket``, the default bracket.
    3. ``fine``, only with ``fine=True``: 15 digits finer, for leaf
       deletions whose radius gap is below the default width.

    Each bracket is searched once per cell, when a check first needs it.

    The checks put their questions to ``ladder``, the count ladder of
    M(s) on T (:class:`deflap.diagonalize._Ladder`), directly or through
    :meth:`below` and :meth:`at_most`. A side question runs one float
    sweep and returns at once when the sweep proves its answer;
    otherwise it reads the proved count, kept per point so that checks
    asking at one point (zero-eig and posdef at 0, the branching and
    adapted floors at (1 + |s|)^2) share one. :meth:`below` with a leaf
    asks the ladder of T - v, built on T's own arrays once per cell and
    leaf. ``adjacency`` is the ladder of A - tI.
    """

    def __init__(self, tree, s, tol, width_digits):
        self.tree = tree
        self.s = s
        self.tol = tol
        self.width_digits = width_digits
        self._less = {}

    @cached_property
    def cap(self):
        return gershgorin_cap(self.s, self.tree.max_degree())

    @cached_property
    def w(self):
        return self.cap / 2 ** min(halvings(self.cap, self.width_digits), self.s.ctx.prec - 2)

    @cached_property
    def slack(self):
        return self.tol if self.tol is not None else 10 * self.w

    @cached_property
    def placed(self):
        tree, s = self.tree, self.s
        g = _float_start(tree, s, _fold(tree), self.cap.to_float())
        # the padded floats must stay finite
        if g is None or not math.isfinite(2 * g):
            return None
        lo, hi = s.ctx.scalar(g * (1 - 2.0 ** -36)), s.ctx.scalar(g * (1 + 2.0 ** -36))
        if not (self.below(hi) and self.ladder.above(lo)):
            return None
        return lo - 2 * self.w, hi + 2 * self.w

    def _tier(self, width_digits):
        est = approximate_radius(self.tree, self.s, self.s.ctx.zero(), self.cap, target_digits=width_digits)
        return est.low, est.high

    @cached_property
    def bracket(self):
        return self._tier(self.width_digits)

    @cached_property
    def fine(self):
        return self._tier(self.width_digits + 15)

    def ends(self, fine=False):
        if self.placed is not None:
            yield self.placed
        yield self.bracket
        if fine:
            yield self.fine

    @cached_property
    def ladder(self):
        return _Ladder(self.tree, self.s)

    @cached_property
    def adjacency(self):
        return _Ladder(self.tree)

    def below(self, c, leaf=None):
        """Whether every eigenvalue lies below c, of T, or of T - ``leaf``."""
        if leaf is None:
            return self.ladder.below(c)
        if leaf not in self._less:
            self._less[leaf] = _Ladder(self.tree, self.s, leaf)
        return self._less[leaf].below(c)

    def at_most(self, c):
        """Whether no eigenvalue lies above c."""
        return self.below(c) or self.ladder.count(c)[0] == 0


def _floor(pid, shared, bound):
    """The verdict on rho > bound."""
    if shared.ladder.above(bound):
        return PropertyReport(pid, True)
    return PropertyReport(pid, False, _witness(shared.tree, shared.s, bound=bound))


def _ceiling(pid, shared, bound):
    """The verdict on rho <= bound + slack."""
    if shared.at_most(bound + shared.slack):
        return PropertyReport(pid, True)
    return PropertyReport(pid, False, _witness(shared.tree, shared.s, bound=bound, radius_high=shared.bracket[1]))


def _is_unit(s):
    return abs(s) == 1


def _has_pendant_pair(tree):
    # a leaf whose unique neighbor has degree exactly two
    for v in tree.leaves():
        (u,) = tree.neighbors(v)
        if tree.degree[u] == 2:
            return True
    return False


def _branch_heights(tree, v):
    """Heights (in vertices) of the branches hanging off v, descending."""
    heights = []
    for u in tree.neighbors(v):
        depth = {u: 1}
        stack = [(u, v)]
        best = 1
        while stack:
            w, parent = stack.pop()
            for x in tree.neighbors(w):
                if x == parent:
                    continue
                depth[x] = depth[w] + 1
                if depth[x] > best:
                    best = depth[x]
                stack.append((x, w))
        heights.append(best)
    heights.sort(reverse=True)
    return heights


def _contains_deep_three_star(tree):
    # a vertex with three disjoint outgoing paths of 4, 4 and 1 vertices
    for v in range(tree.n):
        if tree.degree[v] < 3:
            continue
        h = _branch_heights(tree, v)
        if len(h) >= 3 and h[1] >= 4:
            return True
    return False


def _starlike_center(tree):
    """The unique vertex of degree >= 3, or None if not starlike."""
    centers = [v for v in range(tree.n) if tree.degree[v] >= 3]
    if len(centers) == 1:
        return centers[0]
    return None


def _check_zero_eig(tree, s, tol, shared):
    pid = "zero-eig-iff-unit-s"
    if tree.n == 1:
        return PropertyReport(pid, None)
    _, _, zero = shared.ladder.count(s.ctx.zero())
    claimed = _is_unit(s)
    if (zero >= 1) == claimed:
        return PropertyReport(pid, True)
    return PropertyReport(pid, False, _witness(tree, s, zero_count=zero))


def _check_posdef(tree, s, tol, shared):
    pid = "posdef-iff-subunit-s"
    if tree.n == 1:
        return PropertyReport(pid, None)
    _, neg, zero = shared.ladder.count(s.ctx.zero())
    posdef = neg == 0 and zero == 0
    if posdef == (abs(s) < 1):
        return PropertyReport(pid, True)
    return PropertyReport(pid, False, _witness(tree, s, negative=neg, zero=zero))


def _check_radius_above_one(tree, s, tol, shared):
    pid = "radius-above-one"
    if tree.n == 1 or s.is_zero:
        return PropertyReport(pid, None)
    return _floor(pid, shared, s.ctx.scalar(1))


def _check_pendant_pair_floor(tree, s, tol, shared):
    pid = "pendant-pair-floor"
    if tree.n == 1 or s.is_zero or not _has_pendant_pair(tree):
        return PropertyReport(pid, None)
    return _floor(pid, shared, 1 + s * s)


def _check_leaf_deletion(tree, s, tol, shared):
    pid = "leaf-deletion-decreases"
    if tree.n == 1 or s.is_zero:
        return PropertyReport(pid, None)
    for v in tree.leaves():
        # the gap may be finer than the shared bracket; the fine tier,
        # searched once for all the leaves, looks closer
        for low, high in shared.ends(fine=True):
            if shared.below(low, v):
                break
        else:
            # a violation only when counts prove rho(T - v) >= high >= rho(T)
            if shared.below(high, v) or shared.ladder.above(high):
                raise PrecisionError("leaf %r: no count at this precision separates rho(T - v) from rho(T)" % (v,))
            return PropertyReport(pid, False, _witness(tree, s, deleted_leaf=v, parent_radius_low=low))
    return PropertyReport(pid, True)


def _check_branching_floor(tree, s, tol, shared):
    pid = "branching-floor"
    if s.is_zero or tree.max_degree() < 3:
        return PropertyReport(pid, None)
    a = abs(s)
    report = _floor(pid, shared, 1 + s.ctx.scalar(3).sqrt() * a + s * s)
    if report.holds and tree.max_degree() >= 4:
        report = _floor(pid, shared, (1 + a) ** 2)
    return report


def _check_starlike_ceiling(tree, s, tol, shared):
    pid = "starlike-ceiling"
    center = _starlike_center(tree)
    if center is None:
        return PropertyReport(pid, None)
    k = tree.degree[center]
    bound = 1 + s * s * (k - 1) + abs(s) * k / s.ctx.scalar(k - 1).sqrt()
    return _ceiling(pid, shared, bound)


def _check_star_floor(tree, s, tol, shared):
    pid = "star-floor"
    if tree.n == 1:
        return PropertyReport(pid, None)
    if not (s.sign() <= 0 or s >= 1):
        return PropertyReport(pid, None)
    delta = tree.max_degree()
    s2 = s * s
    inner = s2 * (delta - 1) ** 2 + 4 * delta
    bound = (s2 * (delta - 1) + 2 + abs(s) * inner.sqrt()).halved()
    if s.is_zero:
        # every radius and the bound both collapse to one
        return PropertyReport(pid, True)
    if tree.max_degree() == tree.n - 1:
        # the bound is attained exactly on stars: rho within slack of it
        slack = shared.slack
        if shared.ladder.above(bound - slack) and shared.at_most(bound + slack):
            return PropertyReport(pid, True)
        low, high = shared.bracket
        return PropertyReport(pid, False, _witness(tree, s, bound=bound, radius_low=low, radius_high=high))
    return _floor(pid, shared, bound)


def _check_adjacency_ceiling(tree, s, tol, shared):
    pid = "adjacency-ceiling"
    base = 1 + s * s * (tree.max_degree() - 1)
    if tree.n == 1:
        # base = 1 + s^2 (0 - 1) rounds as 1 - s^2 does: no margin needed
        lhs = 1 - s * s
        if lhs <= base:
            return PropertyReport(pid, True)
        return PropertyReport(pid, False, _witness(tree, s, bound=base, radius=lhs))
    if s.is_zero:
        return _ceiling(pid, shared, base)
    # rho <= base + |s| rho(A) + slack iff rho(A) >= t; the placed tier
    # gives a t no lower than the bracket's
    for _, high in shared.ends():
        t = (high - base - shared.slack) / abs(s)
        pos, _, zero = shared.adjacency.prove(t)
        if pos + zero >= 1:
            return PropertyReport(pid, True)
    return PropertyReport(pid, False, _witness(tree, s, radius_high=high, adjacency_radius_below=t))


# the adaptedness checks are floors at (1+|s|)^2: rho above it makes every
# lam >= rho satisfy lam > (1+|s|)^2
def _check_adapted_super(tree, s, tol, shared):
    pid = "adapted-super"
    if tree.max_degree() < 3 or not abs(s) > 1:
        return PropertyReport(pid, None)
    return _floor(pid, shared, (1 + abs(s)) ** 2)


def _check_adapted_sub_deg4(tree, s, tol, shared):
    pid = "adapted-sub-deg4"
    if tree.max_degree() < 4 or s.is_zero or not abs(s) < 1:
        return PropertyReport(pid, None)
    return _floor(pid, shared, (1 + abs(s)) ** 2)


def _check_adapted_sub_deg3_deep(tree, s, tol, shared):
    pid = "adapted-sub-deg3-deep"
    if tree.max_degree() != 3 or s.is_zero or not abs(s) < 1:
        return PropertyReport(pid, None)
    if not _contains_deep_three_star(tree):
        return PropertyReport(pid, None)
    return _floor(pid, shared, (1 + abs(s)) ** 2)


PROPERTY_CHECKS = {
    "zero-eig-iff-unit-s": _check_zero_eig,
    "posdef-iff-subunit-s": _check_posdef,
    "radius-above-one": _check_radius_above_one,
    "pendant-pair-floor": _check_pendant_pair_floor,
    "leaf-deletion-decreases": _check_leaf_deletion,
    "branching-floor": _check_branching_floor,
    "starlike-ceiling": _check_starlike_ceiling,
    "star-floor": _check_star_floor,
    "adjacency-ceiling": _check_adjacency_ceiling,
    "adapted-super": _check_adapted_super,
    "adapted-sub-deg4": _check_adapted_sub_deg4,
    "adapted-sub-deg3-deep": _check_adapted_sub_deg3_deep,
}
PROPERTY_IDS = tuple(PROPERTY_CHECKS)


def _width_digits_for(tol, ctx):
    if tol is None:
        return DEFAULT_WIDTH_DIGITS
    tol = ctx.scalar(tol)
    if not tol > 0:
        raise DomainError("tol must be positive")
    # shrink the bracket until ten widths fit inside tol
    return max(8, -tol.decimal_magnitude() + 2)


def check_property(property_id, tree, s, tol=None):
    """Evaluate one named property on (tree, s), at the digits of s when
    it is a Scalar, else at the environment's.

    tol bounds the slack granted to equality cases and upper-bound
    checks; strict inequalities use exact eigenvalue counts and ignore
    it. When omitted, the slack is ten nominal widths of the bracket at
    DEFAULT_WIDTH_DIGITS (:attr:`_Shared.slack`). Leaf deletion raises
    PrecisionError when counts at the working precision can neither
    clear a leaf nor prove its violation.
    """
    if not isinstance(tree, Tree):
        raise DomainError("check_property needs a Tree")
    return sweep([property_id], [tree], [s], tol).reports[0]


class SweepResult:
    """All reports from a sweep plus tallies that skip inapplicable ones."""

    __slots__ = ("reports",)

    def __init__(self, reports):
        self.reports = reports

    def violations(self):
        return [r for r in self.reports if r.holds is False]

    def summary(self):
        passed = sum(1 for r in self.reports if r.holds is True)
        failed = sum(1 for r in self.reports if r.holds is False)
        skipped = sum(1 for r in self.reports if r.holds is None)
        return {
            "checked": len(self.reports),
            "passed": passed,
            "failed": failed,
            "not_applicable": skipped,
        }


def sweep(property_ids, trees, s_grid, tol=None, ctx=None):
    """Run the named checks over every (tree, s) pair.

    trees is any iterable of Tree objects; s_grid a list of Scalar-likes.
    Shared per-pair work (the radius bracket) is computed once per pair,
    not once per property.
    """
    for pid in property_ids:
        if pid not in PROPERTY_CHECKS:
            raise DomainError("unknown property id %r" % (pid,))
    if ctx is None:
        ctx = infer_context(*[v for v in s_grid if isinstance(v, Scalar)])
    grid = [ctx.scalar(v) for v in s_grid]
    if tol is not None:
        tol = ctx.scalar(tol)
    width_digits = _width_digits_for(tol, ctx)
    reports = []
    for tree in trees:
        for s in grid:
            shared = _Shared(tree, s, tol, width_digits)
            for pid in property_ids:
                reports.append(PROPERTY_CHECKS[pid](tree, s, tol, shared))
    return SweepResult(reports)
