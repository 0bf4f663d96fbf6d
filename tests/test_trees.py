import random

import pytest

from deflap.scalar import DomainError, PrecisionContext
from deflap.trees import (
    Caterpillar,
    Tree,
    canonical_form,
    caterpillar_to_tree,
    dense_adjacency,
    dense_deformed_laplacian,
    free_trees,
    starlike_t1nn,
)


def test_from_edges_rejects_non_trees():
    with pytest.raises(DomainError):
        Tree.from_edges([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(DomainError):
        Tree.from_edges([(0, 1), (2, 3)])
    with pytest.raises(DomainError):
        Tree.from_edges([(0, 1), (0, 1)])


# -- the build before the single-DFS rewrite, kept as a reference ------------


def _reference_postorder(tree):
    out = []
    stack = [(tree.root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            out.append(v)
        else:
            stack.append((v, True))
            for c in tree.children[v]:
                stack.append((c, False))
    return out


def _reference_from_edges(edges, root=None):
    """(n, root, parent, children, labels) as the old build made them."""
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
    index = {lab: i for i, lab in enumerate(order)}
    n = len(order)
    if len(edges) != n - 1:
        raise DomainError(
            "%d vertices need %d edges to form a tree, got %d" % (n, n - 1, len(edges))
        )
    adj = [[] for _ in range(n)]
    seen_edges = set()
    for u, v in edges:
        a, b = index[u], index[v]
        key = (min(a, b), max(a, b))
        if key in seen_edges:
            raise DomainError("duplicate edge %r %r" % (u, v))
        seen_edges.add(key)
        adj[a].append(b)
        adj[b].append(a)
    if root is None:
        r = n - 1
    else:
        if root not in index:
            raise DomainError("root %r is not a vertex of the tree" % (root,))
        r = index[root]
    parent = [None] * n
    children = [[] for _ in range(n)]
    visited = [False] * n
    stack = [r]
    visited[r] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                parent[w] = v
                children[v].append(w)
                stack.append(w)
                count += 1
    if count != n:
        raise DomainError("edge list is not connected")
    return n, r, parent, children, order


def _edge_lists():
    """(edges, root) in several label styles and edge orders."""
    rng = random.Random(7)
    out = []
    for n in range(2, 10):
        for tree in free_trees(n):
            edges = [(min(u, v), max(u, v)) for u, v in tree.edges()]
            out.append((edges, None))
            rng.shuffle(edges)
            out.append(([(v, u) for u, v in edges], rng.randrange(n)))
            # sparse labels take the relabeling path
            out.append(([(3 * u + 7, 3 * v + 7) for u, v in edges], 3 * rng.randrange(n) + 7))
    for n in (50, 300, 2000):
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)]
        rng.shuffle(edges)
        out.append((edges, None))
        out.append((edges, rng.randrange(n)))
    out.append(([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], 2.0))
    return out


def test_from_edges_matches_reference_build():
    for edges, root in _edge_lists():
        t = Tree.from_edges(edges, root=root)
        n, r, parent, children, labels = _reference_from_edges(edges, root)
        assert (t.n, t.root, t.parent, t.children, t.labels) == (n, r, parent, children, labels)
        assert t.degree == [len(children[v]) + (0 if v == r else 1) for v in range(n)]
        assert t.postorder == _reference_postorder(t)


def test_postorder_matches_reference_routine():
    # trees built directly, not through from_edges
    for edges, root in _edge_lists():
        t = Tree.from_edges(edges, root=root)
        direct = Tree(t.n, t.root, t.parent, t.children)
        assert direct.postorder == t.postorder == _reference_postorder(t)
    single = Tree.single_vertex()
    assert single.postorder == [0] and single.degree == [0]


def test_from_edges_errors_match_reference_build():
    bad = [
        ([], None),
        ([(0, 1), (1, 1)], None),
        ([(0, -1)], None),
        ([(0, 1), (1, 2), (2, 0)], None),
        ([(0, 1), (2, 3)], None),
        ([(0, 1), (0, 1), (2, 3)], None),
        ([(0, 1), (0, 1), (2, 3)], 9),
        ([(0, 1), (1, 2), (2, 0), (3, 4)], 4),
        ([(0, 1), (1, 2), (2, 0), (3, 4)], 2),
        ([(0, 1), (1, 2)], 5),
        ([(10, 11), (11, 10), (12, 13)], 3),
    ]
    for edges, root in bad:
        with pytest.raises(DomainError) as expected:
            _reference_from_edges(edges, root)
        with pytest.raises(DomainError) as got:
            Tree.from_edges(edges, root=root)
        assert str(got.value) == str(expected.value)


def test_peeled_build_rejects_what_the_reference_build_rejects():
    # parts without the root peel down to a vertex with no neighbour left
    # (a path part, a K2 beside a cycle), and a cycle or a repeated edge
    # never peels; the messages and their order are the reference build's
    bad = [
        ([(0, 1), (2, 3), (3, 4), (4, 2)], None),
        ([(0, 1), (2, 3), (3, 4), (4, 2)], 0),
        ([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], 4),
        ([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], 1),
        ([(0, 1), (1, 2), (2, 3), (3, 1), (4, 5), (5, 6)], 0),
        ([(0, 1), (1, 2), (1, 2), (3, 4)], 0),
        ([(7, 9), (9, 11), (11, 7), (20, 21), (21, 22)], 20),
    ]
    for edges, root in bad:
        with pytest.raises(DomainError) as expected:
            _reference_from_edges(edges, root)
        with pytest.raises(DomainError) as got:
            Tree.from_edges(edges, root=root)
        assert str(got.value) == str(expected.value)


def test_postorder_children_before_parents():
    t = Tree.from_edges([(0, 1), (0, 2), (2, 3), (2, 4)])
    seen = set()
    for v in t.postorder:
        for c in t.children[v]:
            assert c in seen
        seen.add(v)
    assert t.postorder[-1] == t.root


def test_shape_queries():
    path = Tree.from_edges([(0, 1), (1, 2), (2, 3)])
    assert path.is_path()
    assert path.max_degree() == 2
    assert sorted(path.leaves()) == [0, 3]
    star = Tree.from_edges([(0, 1), (0, 2), (0, 3)])
    assert not star.is_path()
    assert star.max_degree() == 3
    assert star.is_leaf(1) and not star.is_leaf(0)


def test_delete_leaf():
    star = Tree.from_edges([(0, 1), (0, 2), (0, 3)])
    smaller = star.delete_leaf(3)
    assert smaller.n == 3
    assert smaller.max_degree() == 2
    p2 = Tree.from_edges([(0, 1)])
    assert p2.delete_leaf(1).n == 1
    with pytest.raises(DomainError):
        star.delete_leaf(0)


def test_text_round_trip():
    t = Tree.from_edges([(0, 1), (1, 2), (1, 3)], root=2)
    back = Tree.from_text(t.to_text())
    assert sorted(map(sorted, back.edges())) == sorted(map(sorted, t.edges()))
    assert back.labels[back.root] == 2
    with pytest.raises(DomainError):
        Tree.from_text("edge 0\n")
    with pytest.raises(DomainError):
        Tree.from_text("# only a comment\n")


def test_rerooted_keeps_structure():
    t = Tree.from_edges([(0, 1), (1, 2), (2, 3)])
    r = t.rerooted(3)
    assert r.n == t.n
    assert sorted(map(sorted, r.edges())) == sorted(map(sorted, t.edges()))
    assert r.postorder[-1] == r.root


def test_rerooted_keeps_labels():
    t = Tree.from_edges([(5, 7), (7, 9), (7, 11)])
    r = t.rerooted(0)
    assert r.to_text() == "root=5\nedge 5 7\nedge 7 9\nedge 7 11\n"
    assert (r.labels, r.degree) == (t.labels, t.degree)
    assert Tree.from_text(r.to_text()).parent == r.parent


def test_caterpillar_parse_styles():
    for text in ("[3,1,0,2]", "3 1 0 2", "[3, 1 0 2]"):
        assert Caterpillar.parse(text).counts == (3, 1, 0, 2)
    with pytest.raises(DomainError):
        Caterpillar.parse("[3,x]")
    with pytest.raises(DomainError):
        Caterpillar.parse("")
    with pytest.raises(DomainError):
        Caterpillar([5])
    with pytest.raises(DomainError):
        Caterpillar([1, -1])


def test_caterpillar_to_tree_shape():
    cat = Caterpillar([2, 0, 3])
    t = caterpillar_to_tree(cat)
    assert t.n == cat.vertex_count == 8
    degrees = sorted(t.degree)
    # backbone degrees 3, 2, 4; five leaves
    assert degrees == [1, 1, 1, 1, 1, 2, 3, 4]


def test_starlike_t1nn():
    t = starlike_t1nn(4)
    assert t.n == 10
    assert t.max_degree() == 3
    centers = [v for v in range(t.n) if t.degree[v] >= 3]
    assert len(centers) == 1


def test_free_trees_counts():
    # unlabeled tree counts for n = 1..9
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47]
    assert [len(list(free_trees(n))) for n in range(1, 10)] == expected


def test_canonical_form_is_label_invariant():
    a = Tree.from_edges([(0, 1), (1, 2), (2, 3)])
    b = Tree.from_edges([(3, 2), (2, 1), (1, 0)], root=3)
    c = Tree.from_edges([(5, 1), (1, 9), (9, 4)])
    assert canonical_form(a) == canonical_form(b) == canonical_form(c)
    star = Tree.from_edges([(0, 1), (0, 2), (0, 3)])
    assert canonical_form(a) != canonical_form(star)


def test_dense_matrices():
    ctx = PrecisionContext(50)
    p2 = Tree.from_edges([(0, 1)])
    m = dense_deformed_laplacian(p2, ctx.scalar(1))
    eigs = m.eigenvalues(ctx)
    assert [v.to_decimal_string(5) for v in eigs] == ["0.0", "2.0"]
    a = dense_adjacency(p2, ctx)
    assert [v.to_decimal_string(5) for v in a.eigenvalues(ctx)] == ["-1.0", "1.0"]


def test_dense_cap():
    ctx = PrecisionContext(50)
    big = Tree.from_edges([(i, i + 1) for i in range(70)])
    with pytest.raises(DomainError):
        dense_deformed_laplacian(big, ctx.scalar(1))
