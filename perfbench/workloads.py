"""The three workloads of the deflap benchmark.

Each workload turns a seed into a list of input items (``setup``), runs
one item through deflap's public API the way a user would (``run``: one
call is one *op*), checks the answer (``check``), and reduces the answer
to a string of its integer outputs (``value``) that is compared with the
stored references and across passes. ``describe`` reports the input
properties the program's cost depends on.

Why these three: they put the cost in different layers.

- ``caterpillar``: the folded-backbone path at high precision. Shearer's
  precision ladder, the eps_k chain, the caterpillar probe and bisection
  do nearly all the work; no Tree is ever built.
- ``big_tree``: few calls on huge trees (10^4..10^5 vertices, 50 digits).
  Tree construction and the per-vertex pivot sweep dominate; there is no
  bisection and no shearer. The working set is tens of MB.
- ``property_sweep``: many calls on tiny trees (n <= 14, 50 digits).
  Per-call overhead, 30-digit radius brackets, leaf-deletion rebuilds and
  the dense adjacency eigensolve dominate.

Input sizes are stratified so that every seed gets the same mix of sizes
(and hence nearly the same amount of work); the seed picks the actual
values, tree shapes and probe points.
"""

import array
import heapq
import itertools
import math
import random
import statistics
import zlib

import deflap

# the s grid of `deflap verify` (cli.DEFAULT_S_GRID), copied here so the
# benchmark does not drive the CLI module
S_GRID = ("-1.5", "-1", "-0.9", "-0.3", "0.3", "0.9", "1", "1.5")

FLAGSHIP_HEAD = (8108, 7431, 8095, 8086, 8102, 8093)


def _rng(workload, seed):
    # a string seed is hashed deterministically (not by PYTHONHASHSEED)
    return random.Random("%s/%d" % (workload, seed))


def prufer_edges(seq):
    """Edges of the labelled tree on len(seq) + 2 vertices with this
    Pruefer sequence, decoded in O(n log n)."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree_edges(rng, n):
    """A uniform random labelled tree on n >= 2 vertices, as edges."""
    return prufer_edges([rng.randrange(n) for _ in range(n - 2)])


def leaf_stats(n, edges):
    """(leaves, leaves that share their neighbour with another leaf).

    Leaves with a sibling leaf have equal pivots in every sweep, which is
    what folding repeated leaves exploits.
    """
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    leaf_kids = [0] * n
    for u, v in edges:
        if degree[u] == 1:
            leaf_kids[v] += 1
        if degree[v] == 1:
            leaf_kids[u] += 1
    leaves = sum(1 for d in degree if d == 1)
    return leaves, sum(c for c in leaf_kids if c >= 2)


def _distribution(values):
    values = sorted(values)
    return {
        "count": len(values),
        "min": values[0],
        "median": statistics.median(values),
        "max": values[-1],
        "total": sum(values),
    }


def _share(pairs):
    leaves = sum(p[0] for p in pairs)
    return sum(p[1] for p in pairs) / leaves if leaves else 0.0


# -- caterpillar -------------------------------------------------------------


class CaterpillarItem:
    __slots__ = ("lam", "k", "digits")

    def __init__(self, lam, k, digits):
        self.lam = lam
        self.k = k
        self.digits = digits

    @property
    def flagship(self):
        return self.lam == "2025"


class CaterpillarOut:
    __slots__ = ("lam", "run", "est", "eps", "betas")

    def __init__(self, lam, run, est, eps=None, betas=None):
        self.lam = lam
        self.run = run
        self.est = est
        self.eps = eps
        self.betas = betas


class Caterpillar:
    """Greedy caterpillars toward lam, certified, at high precision.

    One pass is the flagship (lam = 2025, s = s*(lam)/2, k = 150 at 250
    digits: generate, then the radius to 220 digits) plus two seeded tasks
    for each k in 2..20, with lam log-uniform in the lower and in the
    upper half of [1.6, 50] and s = s*(lam)/2 at 120 digits, each running
    s_star, tau0, generate, epsilon_k, beta_sequence and
    approximate_radius. The reference value of an op is
    its leaf counts; probe and rung counts are left to the trace, since a
    faster root finder may change them.
    """

    name = "caterpillar"

    def __init__(self, size="full"):
        self.tiny = size == "tiny"

    def setup(self, seed):
        rng = _rng(self.name, seed)
        ks, halves = (range(2, 5), 1) if self.tiny else (range(2, 21), 2)
        lam_lo, lam_hi = math.log(1.6), math.log(50.0)
        items = [] if self.tiny else [CaterpillarItem("2025", 150, 250)]
        # every k once in each half of the log-lam range: the eps chain
        # costs about k^2 and lam moves the cost too, so a fixed (k, half)
        # grid gives every seed the same amount of work
        for k in ks:
            for half in range(halves):
                u = (half + rng.random()) / halves
                lam = "%.6g" % math.exp(lam_lo + u * (lam_hi - lam_lo))
                items.append(CaterpillarItem(lam, k, 120))
        return items

    def run(self, item):
        ctx = deflap.PrecisionContext(item.digits)
        lam = ctx.scalar(item.lam)
        if item.flagship:
            s = deflap.s_star(lam).halved()
            run = deflap.generate(lam, s, item.k, ctx=ctx)
            est = deflap.approximate_radius(
                run.caterpillar(), s, ctx.scalar(1), lam, target_digits=220
            )
            return CaterpillarOut(lam, run, est)
        s = deflap.s_star(lam).halved()
        deflap.tau0(s)
        run = deflap.generate(lam, s, item.k, ctx=ctx)
        eps = deflap.epsilon_k(run)
        betas = deflap.beta_sequence(run)
        est = deflap.approximate_radius(run.caterpillar(), s, ctx.scalar(1), lam)
        return CaterpillarOut(lam, run, est, eps, betas)

    def check(self, item, out):
        problems = []
        run, est = out.run, out.est
        if len(run.counts) != item.k:
            problems.append("backbone has %d nodes, asked for %d" % (len(run.counts), item.k))
        if not (est.low < out.lam):
            problems.append("radius bracket does not stay below lam")
        if item.flagship:
            if run.counts[:6] != FLAGSHIP_HEAD:
                problems.append("flagship first six counts %s" % (run.counts[:6],))
            return problems
        # lam - rho < eps_k <= 1/beta_k, with rho >= est.low
        gap = out.lam - est.low
        if not (gap < out.eps.value):
            problems.append("lam - rho >= eps_k")
        if not (out.eps.value <= 1 / out.betas[-1]):
            problems.append("eps_k > 1/beta_k")
        if not out.eps.certified:
            problems.append("eps_k not certified")
        return problems

    def key(self, item):
        return "lam=%s;k=%d;d=%d" % (item.lam, item.k, item.digits)

    def value(self, out):
        return " ".join(str(c) for c in out.run.counts)

    def describe(self, items, values):
        cats = [[int(c) for c in v.split()] for v in values if v is not None]
        return {
            "digits": sorted({item.digits for item in items}),
            "backbone_lengths": _distribution([item.k for item in items]),
            "lam": _distribution([float(item.lam) for item in items]),
            "vertex_count": _distribution([len(c) + sum(c) for c in cats]) if cats else None,
            # leaves at a backbone node that carries two or more of them
            "sibling_leaf_share": _share([(sum(c), sum(r for r in c if r >= 2)) for c in cats]),
        }


# -- big_tree ----------------------------------------------------------------


class BigTreeItem:
    __slots__ = ("n", "edges", "points", "reroot")

    def __init__(self, n, edges, points, reroot):
        self.n = n
        self.edges = edges
        self.points = points
        self.reroot = reroot


class BigTreeOut:
    __slots__ = ("tree", "inertias")

    def __init__(self, tree, inertias):
        self.tree = tree
        self.inertias = inertias


class BigTree:
    """Uniform random labelled trees with 10^4..10^5 vertices.

    Sizes are log-spaced over the range (the same for every seed); the
    seed draws the Pruefer sequences and the probe points. One op builds
    the Tree from its edge list and counts eigenvalues at three (s, c)
    points at 50 digits.
    """

    name = "big_tree"
    digits = 50

    def __init__(self, size="full"):
        self.tiny = size == "tiny"

    def sizes(self):
        if self.tiny:
            return [300, 1000]
        m = 6
        return [int(round(10 ** (4 + i / (m - 1)))) for i in range(m)]

    def setup(self, seed):
        rng = _rng(self.name, seed)
        items = []
        for n in self.sizes():
            edges = random_tree_edges(rng, n)
            points = []
            for _ in range(3):
                s = "%.12f" % (rng.choice((-1, 1)) * rng.uniform(0.2, 1.4))
                c = "%.20f" % rng.uniform(0.3, 2.5)
                points.append((s, c))
            # any vertex but the default root n - 1
            items.append(BigTreeItem(n, edges, points, rng.randrange(n - 1)))
        return items

    def run(self, item):
        ctx = deflap.PrecisionContext(self.digits)
        tree = deflap.Tree.from_edges(item.edges)
        inertias = [
            deflap.count_eigenvalues(tree, ctx.scalar(s), ctx.scalar(c))
            for s, c in item.points
        ]
        return BigTreeOut(tree, inertias)

    def check(self, item, out):
        problems = []
        for inertia in out.inertias:
            if sum(inertia) != item.n:
                problems.append("inertia %s does not sum to n = %d" % (inertia, item.n))
        ctx = deflap.PrecisionContext(self.digits)
        s, c = item.points[0]
        other = deflap.count_eigenvalues(
            out.tree.rerooted(item.reroot), ctx.scalar(s), ctx.scalar(c)
        )
        if other != out.inertias[0]:
            problems.append(
                "rerooted sweep gives %s, not %s" % (other, out.inertias[0])
            )
        return problems

    def key(self, item):
        flat = array.array("l", itertools.chain.from_iterable(item.edges))
        return "n=%d;edges=%08x;pts=%s" % (
            item.n, zlib.crc32(flat.tobytes()), ",".join("%s@%s" % p for p in item.points)
        )

    def value(self, out):
        return ";".join("%d,%d,%d" % t for t in out.inertias)

    def describe(self, items, values):
        stats = [leaf_stats(item.n, item.edges) for item in items]
        return {
            "digits": [self.digits],
            "vertex_count": _distribution([item.n for item in items]),
            "sibling_leaf_share": _share(stats),
            "backbone_lengths": None,
            "probes_per_tree": len(items[0].points),
        }


# -- property_sweep ------------------------------------------------------------


def _ahu(adj, root):
    order, parent, stack = [], {root: None}, [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    code = {}
    for v in reversed(order):
        code[v] = "1" + "".join(sorted(code[w] for w in adj[v] if w != parent[v])) + "0"
    return code[root]


def tree_key(n, edges):
    """Isomorphism-invariant name of a small free tree (hex AHU code)."""
    if n == 1:
        return "1"
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # the tree's centres, found by peeling leaves
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return "%x" % int(min(_ahu(adj, c) for c in layer), 2)


class SweepItem:
    __slots__ = ("tree", "s")

    def __init__(self, tree, s):
        self.tree = tree
        self.s = s


class PropertySweep:
    """All 12 properties on every free tree with n <= 8 plus one seeded
    random tree of each size 9..14, over the CLI's 8-point s grid at 50
    digits. One op is one (tree, s) cell."""

    name = "property_sweep"
    digits = 50

    def __init__(self, size="full"):
        self.tiny = size == "tiny"

    def setup(self, seed):
        rng = _rng(self.name, seed)
        max_n, extra, grid = (5, (9,), S_GRID[::3]) if self.tiny else (8, range(9, 15), S_GRID)
        trees = [t for n in range(1, max_n + 1) for t in deflap.free_trees(n)]
        trees.extend(deflap.Tree.from_edges(random_tree_edges(rng, n)) for n in extra)
        return [SweepItem(tree, s) for tree in trees for s in grid]

    def run(self, item):
        ctx = deflap.PrecisionContext(self.digits)
        return deflap.sweep(deflap.PROPERTY_IDS, [item.tree], [ctx.scalar(item.s)], ctx=ctx)

    def check(self, item, out):
        problems = []
        ids = [r.property_id for r in out.reports]
        if ids != list(deflap.PROPERTY_IDS):
            problems.append("reports come back as %s" % (ids,))
        for r in out.violations():
            problems.append("violation of %s: %s" % (r.property_id, r.witness))
        return problems

    def key(self, item):
        return "%s@%s" % (tree_key(item.tree.n, item.tree.edges()), item.s)

    def value(self, out):
        return "".join({True: "T", False: "F", None: "-"}[r.holds] for r in out.reports)

    def describe(self, items, values):
        trees = {id(item.tree): item.tree for item in items}.values()
        return {
            "digits": [self.digits],
            "vertex_count": _distribution([t.n for t in trees]),
            "sibling_leaf_share": _share([leaf_stats(t.n, t.edges()) for t in trees]),
            "backbone_lengths": None,
            "s_grid": sorted({item.s for item in items}, key=float),
        }


WORKLOADS = {w.name: w for w in (Caterpillar, BigTree, PropertySweep)}
