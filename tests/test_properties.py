"""The executable property suite over small exhaustive tree families."""

import hashlib

import pytest

from deflap import cli, diagonalize, properties
from deflap.properties import PROPERTY_IDS, PropertyReport, check_property, sweep
from deflap.scalar import DomainError, PrecisionContext, PrecisionError
from deflap.trees import Tree, free_trees, starlike_t1nn

CTX = PrecisionContext(50)

P3 = Tree.from_edges([(0, 1), (1, 2)])
STAR5 = Tree.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])


def test_property_ids_are_unique_and_registered():
    assert len(PROPERTY_IDS) == len(set(PROPERTY_IDS)) == 12
    for pid in PROPERTY_IDS:
        assert pid in properties.PROPERTY_CHECKS


def test_unknown_id_rejected():
    with pytest.raises(DomainError):
        check_property("no-such-check", P3, CTX.scalar("0.5"))
    with pytest.raises(DomainError):
        sweep(["no-such-check"], [P3], [CTX.scalar("0.5")])


def test_zero_eigenvalue_iff_unit_coupling():
    assert check_property("zero-eig-iff-unit-s", P3, CTX.scalar(1)).holds is True
    assert check_property("zero-eig-iff-unit-s", P3, CTX.scalar(-1)).holds is True
    assert check_property("zero-eig-iff-unit-s", P3, CTX.scalar("0.9")).holds is True


def test_star_floor_equality_case():
    report = check_property("star-floor", STAR5, CTX.scalar("-0.7"))
    assert report.holds is True


def test_branching_floor():
    t = starlike_t1nn(2)
    assert t.max_degree() == 3
    assert check_property("branching-floor", STAR5, CTX.scalar("0.5")).holds is True
    assert check_property("branching-floor", t, CTX.scalar("0.5")).holds is True


def test_deep_three_star_condition():
    deep = starlike_t1nn(4)
    shallow = starlike_t1nn(3)
    s = CTX.scalar("0.5")
    assert check_property("adapted-sub-deg3-deep", deep, s).holds is True
    assert check_property("adapted-sub-deg3-deep", shallow, s).applicable is False


def test_not_applicable_guards():
    k1 = Tree.single_vertex()
    s = CTX.scalar("0.5")
    assert check_property("leaf-deletion-decreases", k1, s).applicable is False
    assert check_property("radius-above-one", P3, CTX.scalar(0)).applicable is False
    assert check_property("starlike-ceiling", P3, s).applicable is False
    # a star has no leaf with a degree-2 neighbor
    assert check_property("pendant-pair-floor", STAR5, s).applicable is False


def test_applicable_mirrors_holds():
    r = check_property("radius-above-one", P3, CTX.scalar("0.5"))
    assert r.holds is True and r.applicable
    r = check_property("starlike-ceiling", P3, CTX.scalar("0.5"))
    assert r.holds is None and not r.applicable


def test_sweep_small_exhaustive_family_has_no_violations():
    trees = []
    for n in range(1, 7):
        trees.extend(free_trees(n))
    grid = [CTX.scalar(x) for x in ("-1.5", "-1", "-0.9", "-0.3", "0.3", "0.9", "1", "1.5")]
    result = sweep(PROPERTY_IDS, trees, grid, ctx=CTX)
    assert result.violations() == []
    summary = result.summary()
    assert summary["failed"] == 0
    assert summary["checked"] == len(trees) * len(grid) * len(PROPERTY_IDS)
    assert summary["passed"] + summary["not_applicable"] == summary["checked"]
    assert summary["passed"] > summary["checked"] // 3


def test_sweep_surfaces_injected_violations(monkeypatch):
    def tampered(tree, s, tol, shared):
        return PropertyReport("radius-above-one", False, "tampered")

    monkeypatch.setitem(properties.PROPERTY_CHECKS, "radius-above-one", tampered)
    result = sweep(["radius-above-one"], [P3], [CTX.scalar("0.5")], ctx=CTX)
    assert len(result.violations()) == 1
    assert result.summary()["failed"] == 1


def test_witness_only_on_failure():
    report = check_property("zero-eig-iff-unit-s", P3, CTX.scalar(1))
    assert report.holds is True
    assert report.witness is None


def test_leaf_deletion_looks_closer_when_the_bracket_is_coarse(monkeypatch):
    # at a one-digit shared bracket the 8-vertex path's leaf deletions do
    # not clear its low end, so the check re-brackets 15 digits finer,
    # once for all its leaves, leaves the shared bracket alone, and holds
    path8 = next(iter(free_trees(8)))
    assert sorted(path8.degree) == [1, 1, 2, 2, 2, 2, 2, 2]
    widths = []

    def recorded(*args, target_digits):
        widths.append(target_digits)
        return diagonalize.approximate_radius(*args, target_digits=target_digits)

    monkeypatch.setattr(properties, "approximate_radius", recorded)
    s = CTX.scalar("0.5")
    shared = properties._Shared(path8, s, None, 1)
    report = properties._check_leaf_deletion(path8, s, None, shared)
    assert report.holds is True
    assert widths == [1, 16]
    bracket, fine = shared.bracket, shared.fine
    assert list(shared.ends(fine=True))[-2:] == [bracket, fine]
    assert fine[1] - fine[0] < bracket[1] - bracket[0]
    assert widths == [1, 16]


def test_adjacency_ceiling_searches_no_adjacency_radius():
    # the ceiling decides rho(A) >= t by a count of A - tI; the tally is
    # the one a rho(A) bracket gave on this family
    trees = [tree for n in range(1, 7) for tree in free_trees(n)]
    grid = ["-2", "-1", "-0.5", "0", "0.3", "1", "1.5"]
    result = sweep(PROPERTY_IDS, trees, grid, ctx=CTX)
    assert result.summary() == {"checked": 1176, "passed": 681, "failed": 0, "not_applicable": 495}
    ceiling = [r.holds for r in result.reports if r.property_id == "adjacency-ceiling"]
    assert ceiling == [True] * len(trees) * len(grid)


def test_adjacency_ceiling_is_decided_at_the_edge(monkeypatch):
    # on one edge rho(M(s)) = 1 + |s| = 1 + |s| rho(A), so the ceiling is
    # attained: with tol = 2^-60 at s = -0.5, a radius high end of
    # 1.5 + tol puts t on rho(A) = 1 exactly, where the ceiling holds
    p2 = Tree.from_edges([(0, 1)])
    tol = 1 / CTX.scalar(2 ** 60)
    top = CTX.scalar("1.5") + tol
    for high, holds in ((top, True), (top - tol / 2 ** 40, True), (top + CTX.scalar("1e-15"), False)):
        def pinned(*args, high=high, **kwargs):
            est = diagonalize.approximate_radius(*args, **kwargs)
            est.high = high
            return est

        monkeypatch.setattr(properties, "approximate_radius", pinned)
        report = check_property("adjacency-ceiling", p2, CTX.scalar("-0.5"), tol=tol)
        assert report.holds is holds
        assert (report.witness is None) is holds
        if not holds:
            assert report.witness["values"]["radius_high"] == high.to_decimal_string(20)


def _reports(result):
    return [(r.property_id, r.holds, r.witness) for r in result.reports]


@pytest.mark.parametrize("tol", [None, "1e-12"])
def test_placed_points_give_the_bracket_verdicts(monkeypatch, tol):
    # a True from the proved points is one the bracket gives too, and every
    # other outcome reads the bracket. Counts decide the closed-form
    # bounds, the ceilings at s = 0 (rho = 1) and the star floor on stars
    # included, so only the adjacency ceiling on K2, attained at
    # rho = 1 + |s| rho(A), searches a radius.
    trees = [tree for n in range(1, 8) for tree in free_trees(n)]
    grid = [CTX.scalar(x) for x in ("0", "1", "-1", "1.5", "-1.5", "1.001", "-2", "3")]
    cells = set()

    def recorded(tree, s, *args, **kwargs):
        cells.add((id(tree), s.to_float()))
        return diagonalize.approximate_radius(tree, s, *args, **kwargs)

    monkeypatch.setattr(properties, "approximate_radius", recorded)
    fast = sweep(PROPERTY_IDS, trees, grid, tol, ctx=CTX)
    assert cells == {(id(t), s.to_float()) for t in trees for s in grid if t.n == 2 and not s.is_zero}
    monkeypatch.setattr(properties._Shared, "placed", None)
    assert _reports(fast) == _reports(sweep(PROPERTY_IDS, trees, grid, tol, ctx=CTX))
    assert fast.violations() == []
    star = PROPERTY_IDS.index("star-floor")
    for i, (t, s) in enumerate((t, s) for t in trees for s in grid):
        if t.n >= 2 and t.max_degree() == t.n - 1 and (s.sign() <= 0 or s >= 1):
            assert fast.reports[i * len(PROPERTY_IDS) + star].holds is True


@pytest.mark.parametrize("digits", [16, 20, 29, 30, 50])
def test_property_sweep_brackets_only_the_edge(monkeypatch, digits):
    # on the CLI's grid every radius search left is K2's adjacency
    # ceiling, at every precision. One-sided float sweeps answer nearly
    # every other question: where counting every question took 4,772
    # counts, 1,464 T - v rebuilds and 952 interval sweeps, and counted
    # twice at 0 per cell, 460 counts, no rebuild and 186 interval
    # sweeps remain, with zero-eig and posdef sharing one count at 0
    searched = []
    tally = {"delete_leaf": 0, "interval": 0, "counts": 0}
    at_zero = []

    def counted(tree, *args, **kwargs):
        searched.append(tree.n)
        return diagonalize.approximate_radius(tree, *args, **kwargs)

    def tallied(key, fn):
        def call(*args):
            tally[key] += 1
            return fn(*args)
        return call

    prove = diagonalize._Ladder.prove

    def count(ladder, c):
        if ladder.s is None:  # A - tI
            return prove(ladder, c)
        if c.is_zero:
            at_zero.append((id(ladder.arrays[0]), ladder.s.raw()))  # T's inner order
        return tallied("counts", prove)(ladder, c)

    monkeypatch.setattr(properties, "approximate_radius", counted)
    monkeypatch.setattr(diagonalize._Ladder, "prove", count)
    monkeypatch.setattr(diagonalize._Ladder, "interval", tallied("interval", diagonalize._Ladder.interval))
    monkeypatch.setattr(Tree, "delete_leaf", tallied("delete_leaf", Tree.delete_leaf))
    trees = [tree for n in range(1, 9) for tree in free_trees(n)]
    grid = cli.DEFAULT_S_GRID.split(",")
    result = sweep(PROPERTY_IDS, trees, grid, ctx=PrecisionContext(digits))
    assert result.violations() == []
    assert searched == [2] * 8
    assert tally == {"delete_leaf": 0, "interval": 186, "counts": 460}
    assert sorted(at_zero) == sorted(set(at_zero)) and len(at_zero) == sum(t.n > 1 for t in trees) * len(grid)


@pytest.mark.parametrize("digits", ["16", "20"])
def test_verify_at_low_precision(tmp_path, capsys, digits):
    # below 30 digits no bracket is finer than the rounding, so the slack
    # is 10 cap 2^(2 - prec) rather than ten 30-digit widths; this sweep
    # keeps the counts at bound -+ slack answering
    out = tmp_path / "verify.csv"
    code = cli.main(["verify", "--max-n", "6", "--digits", digits, "--csv", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 0, err
    assert stdout == "checked=1344 passed=818 failed=0 not-applicable=526\n"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "e0178130848fece486e798633f9dfdb7c8f2b097695453f689e4ce37ebd310c5"


@pytest.mark.parametrize("digits", ["20", "50"])
def test_verify_off_the_default_grid(tmp_path, capsys, digits):
    # s = 0, where the ceilings are attained at rho = 1, and s near +-1;
    # the digest is the one the radius bracket's verdicts gave
    out = tmp_path / "verify.csv"
    argv = ["verify", "--max-n", "7", "--s-grid", "0,0.05,0.999,1.001,-2,3", "--digits", digits, "--csv", str(out)]
    code = cli.main(argv)
    stdout, err = capsys.readouterr()
    assert code == 0, err
    assert stdout == "checked=1800 passed=1098 failed=0 not-applicable=702\n"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "12106e7f839e6a4cbcbd3b69aea0f1ec2bf110d9a06e2647477bfab8fb2caaa0"


def test_leaf_deletion_reports_only_proved_violations():
    # a leaf of this 24-vertex tree moves rho(M(3)) by less than one ulp at
    # 16 digits, so no count there separates rho(T - v) from rho(T)
    tree = Tree.from_edges([
        (0, 3), (0, 19), (1, 15), (1, 23), (2, 16), (2, 19), (3, 8), (3, 11), (3, 14), (3, 20), (4, 7), (4, 11),
        (5, 14), (6, 12), (6, 22), (8, 13), (9, 12), (10, 17), (10, 20), (12, 18), (15, 21), (19, 21), (22, 23),
    ])
    with pytest.raises(PrecisionError):
        check_property("leaf-deletion-decreases", tree, PrecisionContext(16).scalar(3))
    for digits in (20, 50):
        assert check_property("leaf-deletion-decreases", tree, PrecisionContext(digits).scalar(3)).holds is True
