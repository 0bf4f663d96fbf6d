"""Rooted trees, caterpillars, and small dense matrices.

Trees are stored with contiguous indices 0..n-1, an explicit root, and
parent and degree arrays; children lists and a bottom-up (children before
parent) traversal order are derived when first read. The text format is
one ``edge u v`` line per edge with an optional ``root=R`` header;
without the header the highest-numbered vertex is the root. Vertex labels in files may be arbitrary non-negative integers;
they are compacted internally and remembered for display.
"""

from .scalar import DomainError, Scalar, scalar_from_raw

DENSE_CAP = 64
EIG_GUARD_DIGITS = 15  # DenseMatrix.eigenvalues' QR runs this far past ctx


class Tree:
    """A finite tree with a distinguished root.

    parent[root] is None; degree counts all neighbors, not just children.
    ``n``, ``root``, ``parent``, ``degree``, ``labels`` and the largest
    degree (:meth:`max_degree`) are set when the tree is built.
    ``children`` and ``postorder`` are derived on first use and then
    kept; ``postorder`` visits every child before its parent, which is
    the order the surgery sweep consumes. :meth:`_peeled` gives the
    count ladder's first rung its arrays: eager from :meth:`from_edges`,
    which builds by peeling leaves and keeps its edge pairs to derive
    ``children`` from, and derived on first use for a tree built from
    its children lists.
    """

    __slots__ = ("n", "root", "parent", "degree", "labels", "_top",
                 "_children", "_postorder", "_pairs", "_peel")

    def __init__(self, n, root, parent, children, labels=None):
        degree = [len(kids) + 1 for kids in children]
        degree[root] -= 1
        self._set(n, root, parent, degree, labels)
        self._children = children

    def _set(self, n, root, parent, degree, labels):
        self.n = n
        self.root = root
        self.parent = parent
        self.degree = degree
        self.labels = list(labels) if labels is not None else list(range(n))
        self._top = max(degree)
        self._children = self._postorder = self._pairs = self._peel = None

    @classmethod
    def from_edges(cls, edges, root=None):
        """Build a tree from an iterable of (u, v) pairs.

        Vertices may be any non-negative ints; they are relabeled to
        0..n-1 in sorted order, and ``labels`` keeps the originals.
        ``root`` refers to an original label and defaults to the highest
        one. A single vertex with no edges is not expressible here; use
        :meth:`single_vertex`.

        One pass over the edges gives each vertex's degree and the XOR of
        its neighbours; peeling leaves toward the root, which is never
        peeled, then reads a peeled vertex's one remaining neighbour off
        that XOR as its parent. No per-vertex list is made.
        """
        edges = list(edges)
        if not edges:
            raise DomainError("no edges; a one-vertex tree needs single_vertex()")
        seen = set()
        for u, v in edges:
            if u == v:
                raise DomainError("self-loop at vertex %r" % (u,))
            if u < 0 or v < 0:
                raise DomainError("vertex labels must be non-negative")
            seen.add(u)
            seen.add(v)
        order = sorted(seen)
        n = len(order)
        if len(edges) != n - 1:
            raise DomainError(
                "%d vertices need %d edges to form a tree, got %d"
                % (n, n - 1, len(edges))
            )
        if order[-1] == n - 1 and all(type(lab) is int for lab in order):
            # n distinct ints up to n - 1 are 0..n-1 already
            index = None
            pairs = edges
        else:
            index = {lab: i for i, lab in enumerate(order)}
            pairs = [(index[u], index[v]) for u, v in edges]
        # n - 1 edges with a repeat cannot connect n vertices, so repeats
        # are looked for only where the build is failing anyway
        if root is None:
            r = n - 1
        else:
            if root not in seen:
                _reject_duplicate(edges, pairs)
                raise DomainError("root %r is not a vertex of the tree" % (root,))
            r = int(root) if index is None else index[root]
        degree = [0] * n
        link = [0] * n
        for a, b in pairs:
            degree[a] += 1
            degree[b] += 1
            link[a] ^= b
            link[b] ^= a
        # rem counts a vertex's unpeeled neighbours and link XORs them, so
        # at rem 1 link is the one left. The leaves go first, each a
        # pendant leaf of its neighbour; a vertex whose rem falls to 1 has
        # lost all its children and goes on the stack, so ``inner`` lists
        # the vertices with children, children first. A vertex found with no
        # neighbour left ends a part without the root, and a cycle is
        # never peeled: either way fewer than n - 1 vertices are peeled
        parent = [None] * n
        pendant = [0] * n
        rem = degree[:]
        inner = []
        stack = []
        peeled = 0
        for v in [v for v in range(n) if degree[v] == 1]:
            if v == r:
                continue
            if not rem[v]:
                break
            p = parent[v] = link[v]
            pendant[p] += 1
            link[p] ^= v
            rem[p] -= 1
            peeled += 1
            if rem[p] == 1 and p != r:
                stack.append(p)
        else:
            while stack:
                v = stack.pop()
                if not rem[v]:
                    break
                p = parent[v] = link[v]
                inner.append(v)
                link[p] ^= v
                rem[p] -= 1
                if rem[p] == 1 and p != r:
                    stack.append(p)
        if peeled + len(inner) != n - 1:
            _reject_duplicate(edges, pairs)
            raise DomainError("edge list is not connected")
        inner.append(r)
        tree = cls.__new__(cls)
        tree._set(n, r, parent, degree, order)
        tree._pairs = pairs
        tree._peel = inner, pendant
        return tree

    @classmethod
    def single_vertex(cls):
        return cls(1, 0, [None], [[]])

    @property
    def children(self):
        """Each vertex's children. A :meth:`from_edges` tree derives them
        from its edge pairs: each pair in order adds the child to its
        parent's list, as dropping the parent from each vertex's
        neighbours in edge order would."""
        if self._children is None:
            parent = self.parent
            children = [[] for _ in range(self.n)]
            for a, b in self._pairs:
                if parent[b] == a:
                    children[a].append(b)
                else:
                    children[b].append(a)
            self._children = children
            self._pairs = None
        return self._children

    @property
    def postorder(self):
        if self._postorder is None:
            self._postorder = self._compute_postorder()
        return self._postorder

    def _compute_postorder(self):
        # the reverse of a preorder that takes each vertex's children first
        # to last: every child before its parent, last child's subtree first
        out = []
        stack = [self.root]
        children = self.children
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(children[v]))
        out.reverse()
        return out

    def _peeled(self):
        """(inner, pendant): the vertices with children, each after its
        children and the root last, and each vertex's count of childless
        children, its pendant leaves."""
        if self._peel is None:
            children = self.children
            inner = [v for v in self.postorder if children[v] or v == self.root]
            pendant = [sum(not children[w] for w in kids) for kids in children]
            self._peel = inner, pendant
        return self._peel

    # -- structure queries --------------------------------------------------

    def neighbors(self, v):
        if self.parent[v] is None:
            return list(self.children[v])
        return self.children[v] + [self.parent[v]]

    def is_leaf(self, v):
        return self.degree[v] == 1

    def leaves(self):
        return [v for v in range(self.n) if self.degree[v] == 1]

    def max_degree(self):
        return self._top

    def edges(self):
        """Edges as (child, parent) index pairs, postorder of the child."""
        return [(v, self.parent[v]) for v in self.postorder if v != self.root]

    def is_path(self):
        return self.n <= 2 or self.max_degree() <= 2

    def rerooted(self, new_root):
        """The same tree rooted at index ``new_root``; indices and labels
        are kept."""
        parent = self.parent
        # the pairs of edges(), with no list of edges() beside them
        tree = Tree.from_edges(
            [(min(v, parent[v]), max(v, parent[v])) for v in self.postorder if v != self.root],
            root=new_root,
        )
        tree.labels = list(self.labels)
        return tree

    def delete_leaf(self, v):
        """The tree with leaf ``v`` removed, reindexed; root defaults anew."""
        if not self.is_leaf(v):
            raise DomainError("vertex %d has degree %d, not a leaf" % (v, self.degree[v]))
        if self.n == 1:
            raise DomainError("cannot delete the last vertex")
        if self.n == 2:
            return Tree.single_vertex()
        kept = [(a, b) for a, b in self.edges() if v not in (a, b)]
        return Tree.from_edges([(min(a, b), max(a, b)) for a, b in kept])

    # -- text round-trip ------------------------------------------------------

    @classmethod
    def from_text(cls, text):
        """Parse the ``edge u v`` line format, with optional ``root=R``."""
        edges = []
        root = None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("root"):
                _, _, rest = line.partition("=")
                try:
                    root = int(rest.strip())
                except ValueError:
                    raise DomainError("line %d: bad root header %r" % (lineno, line))
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] != "edge":
                raise DomainError("line %d: expected 'edge u v', got %r" % (lineno, line))
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DomainError("line %d: vertex labels must be integers" % lineno)
            edges.append((u, v))
        if not edges:
            raise DomainError("no edges found in tree text")
        return cls.from_edges(edges, root=root)

    def to_text(self):
        lines = ["root=%d" % self.labels[self.root]]
        for a, b in sorted(
            (min(self.labels[u], self.labels[v]), max(self.labels[u], self.labels[v]))
            for u, v in self.edges()
        ):
            lines.append("edge %d %d" % (a, b))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "Tree(n=%d, root=%d)" % (self.n, self.root)


def _reject_duplicate(edges, pairs):
    """Raise for the first edge that repeats an earlier one, if any."""
    seen_edges = set()
    for (u, v), (a, b) in zip(edges, pairs):
        key = (a, b) if a < b else (b, a)
        if key in seen_edges:
            raise DomainError("duplicate edge %r %r" % (u, v))
        seen_edges.add(key)


class Caterpillar:
    """A backbone path v_1..v_k with counts[j] pendant leaves at v_{j+1}.

    The backbone needs at least two vertices; counts are non-negative.
    ``Caterpillar([0, 0])`` is the two-vertex path.
    """

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = [int(c) for c in counts]
        if len(counts) < 2:
            raise DomainError("backbone must have at least 2 vertices")
        if any(c < 0 for c in counts):
            raise DomainError("leaf counts must be non-negative")
        self.counts = tuple(counts)

    @property
    def k(self):
        return len(self.counts)

    @property
    def vertex_count(self):
        return self.k + sum(self.counts)

    @classmethod
    def parse(cls, text):
        """Accepts "[3,1,0,2]", "3 1 0 2", and mixtures of both styles."""
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        parts = body.replace(",", " ").split()
        if not parts:
            raise DomainError("empty caterpillar literal %r" % (text,))
        try:
            return cls(int(p) for p in parts)
        except ValueError:
            raise DomainError("bad caterpillar literal %r" % (text,))

    def __repr__(self):
        return "Caterpillar(%s)" % (list(self.counts),)

    def __str__(self):
        return "[%s]" % ",".join(str(c) for c in self.counts)


def caterpillar_to_tree(cat):
    """Expand a caterpillar into a Tree rooted at the far backbone end.

    Indices: all leaves first (grouped by backbone position, left to
    right), then the backbone v_1..v_k. The root is v_k, so the postorder
    runs through every leaf, then along the backbone toward v_k.
    """
    counts = cat.counts
    k = cat.k
    total_leaves = sum(counts)
    backbone = [total_leaves + j for j in range(k)]
    edges = []
    leaf = 0
    for j, c in enumerate(counts):
        for _ in range(c):
            edges.append((leaf, backbone[j]))
            leaf += 1
    for j in range(k - 1):
        edges.append((backbone[j], backbone[j + 1]))
    return Tree.from_edges(edges, root=backbone[-1])


def starlike_t1nn(n):
    """The spider with three arms of lengths 1, n, n, rooted at the hub.

    2n+2 vertices. For n=2 the degree multiset is {3,2,2,1,1,1}.
    """
    n = int(n)
    if n < 1:
        raise DomainError("arm length must be at least 1")
    hub = 2 * n + 1
    edges = [(0, hub)]
    for start in (1, n + 1):
        edges.append((start, hub))
        for i in range(start, start + n - 1):
            edges.append((i, i + 1))
    return Tree.from_edges(edges, root=hub)


class DenseMatrix:
    """A small square matrix of Scalars, rows stored as lists."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DomainError("matrix rows must all have length %d" % n)
        self.n = n
        self.rows = rows

    def is_symmetric(self):
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def eigenvalues(self, ctx):
        """All eigenvalues of a symmetric matrix, ascending, as Scalars.

        Runs mpmath's symmetric QR at ctx.digits + EIG_GUARD_DIGITS; raw
        values convert exactly in and round once on the way out, so no
        decimal round-trip noise enters.
        """
        import mpmath

        if not self.is_symmetric():
            raise DomainError("eigenvalues() requires a symmetric matrix")
        with mpmath.workdps(ctx.digits + EIG_GUARD_DIGITS):
            m = mpmath.matrix(self.n, self.n)
            for i in range(self.n):
                for j in range(self.n):
                    m[i, j] = mpmath.mp.make_mpf(self.rows[i][j].raw())
            eig = mpmath.mp.eigsy(m, eigvals_only=True)
            vals = [scalar_from_raw(eig[i]._mpf_, ctx) for i in range(self.n)]
        vals.sort()
        return vals

    def __repr__(self):
        return "DenseMatrix(n=%d)" % self.n


def dense_deformed_laplacian(tree, s):
    """The n-by-n matrix I - s*A + s^2*(D - I) of a tree, as Scalars.

    Dense storage is only for cross-checking small cases; trees above
    DENSE_CAP vertices are refused.
    """
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    if tree.n > DENSE_CAP:
        raise DomainError(
            "dense matrix capped at %d vertices, tree has %d" % (DENSE_CAP, tree.n)
        )
    ctx = s.ctx
    zero = ctx.zero()
    s2 = s * s
    rows = [[zero for _ in range(tree.n)] for _ in range(tree.n)]
    for v in range(tree.n):
        rows[v][v] = 1 + s2 * (tree.degree[v] - 1)
    for u, v in tree.edges():
        rows[u][v] = -s
        rows[v][u] = -s
    return DenseMatrix(rows)


def dense_adjacency(tree, ctx):
    """The 0/1 adjacency matrix of a tree, same size cap as above."""
    if tree.n > DENSE_CAP:
        raise DomainError(
            "dense matrix capped at %d vertices, tree has %d" % (DENSE_CAP, tree.n)
        )
    zero = ctx.zero()
    one = ctx.scalar(1)
    rows = [[zero for _ in range(tree.n)] for _ in range(tree.n)]
    for u, v in tree.edges():
        rows[u][v] = one
        rows[v][u] = one
    return DenseMatrix(rows)


# -- enumeration of small free trees -----------------------------------------


def _rooted_level_sequences(n):
    # Beyer-Hedetniemi successor walk, path first, star last
    if n < 1:
        return
    seq = list(range(1, n + 1))
    while True:
        yield seq[:]
        p = None
        for i in range(n - 1, -1, -1):
            if seq[i] > 2:
                p = i
                break
        if p is None:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def _level_sequence_edges(seq):
    edges = []
    last_at_level = {seq[0]: 0}
    for i in range(1, len(seq)):
        edges.append((last_at_level[seq[i] - 1], i))
        last_at_level[seq[i]] = i
    return edges


def _centroids(n, adj):
    if n == 1:
        return [0]
    size = [1] * n
    order = []
    parent = [None] * n
    stack = [0]
    visited = [False] * n
    visited[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    best, out = n + 1, []
    for v in range(n):
        heaviest = n - size[v]
        for w in adj[v]:
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        if heaviest < best:
            best, out = heaviest, [v]
        elif heaviest == best:
            out.append(v)
    return out


def _ahu_code(n, adj, root):
    code = [None] * n
    parent = [None] * n
    order = []
    stack = [root]
    visited = [False] * n
    visited[root] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        kids = sorted(code[w] for w in adj[v] if w != parent[v])
        code[v] = "(" + "".join(kids) + ")"
    return code[root]


def _free_key(n, edges):
    # the least AHU code over the tree's centroids: one key per free tree
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return min(_ahu_code(n, adj, c) for c in _centroids(n, adj))


def canonical_form(tree):
    """An isomorphism-invariant string for the underlying free tree."""
    return _free_key(tree.n, tree.edges())


def free_trees(n):
    """All unlabeled trees on n vertices, one Tree per isomorphism class.

    Enumerates canonical rooted level sequences and keeps the first
    representative of each free isomorphism class; deterministic order.
    Counts for n = 1..10: 1 1 1 2 3 6 11 23 47 106.
    """
    n = int(n)
    if n < 1:
        raise DomainError("need at least one vertex")
    if n == 1:
        yield Tree.single_vertex()
        return
    seen = set()
    for seq in _rooted_level_sequences(n):
        edges = _level_sequence_edges(seq)
        key = _free_key(n, edges)
        if key in seen:
            continue
        seen.add(key)
        yield Tree.from_edges(edges)
