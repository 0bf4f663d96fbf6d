"""Command-line front end for the deformed-Laplacian toolkit.

Subcommands: rho, locate, recurrence, shearer, tau0, sstar,
limits-table, verify, reproduce. Precision comes from --digits, the
DEFLAP_DIGITS environment variable, or the 50-digit default, in that
order; printed values use --print-digits significant digits (default
15, round-half-even). Exit codes: 0 success, 1 tolerance failure,
2 usage or input error, 3 insufficient precision.
"""

import argparse
import json
import random
import sys

from .diagonalize import approximate_radius, count_eigenvalues, gershgorin_cap
from .limits import ConsistencyError, s_star, tau0
from .properties import PROPERTY_IDS, sweep
from .recurrence import classify_orbit, recurrence_params
from .reproduce import TABLE_IDS, reproduce_table
from .scalar import DIGITS_ENV_VAR, PrecisionError, ScalarError, context_from_env
from .shearer import convergence_report, counts_cell, generate
from .trees import Caterpillar, Tree, caterpillar_to_tree, free_trees

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

# the twelve s values of the published small-s table
DEFAULT_S_LIST = "0.001,0.01,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"

# the grid the property suite is exercised on by default
DEFAULT_S_GRID = "-1.5,-1,-0.9,-0.3,0.3,0.9,1,1.5"


def _emit(text, path):
    """Write text to path, or stdout when no path was given."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _print_result(args, text, payload):
    """Print ``payload`` as one JSON line under --json, else ``text``."""
    if args.json:
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        print(text)
    return EXIT_OK


def _load_subject(args):
    """The tree or caterpillar a command operates on, from its flags."""
    if getattr(args, "caterpillar", None) is not None:
        return Caterpillar.parse(args.caterpillar)
    with open(args.tree) as fh:
        return Tree.from_text(fh.read())


def _degree_cap(subject):
    if isinstance(subject, Caterpillar):
        return max(subject.counts) + 2
    return subject.max_degree()


def _int_list(text):
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ScalarError("bad integer list %r" % (text,))


def _token_list(text):
    toks = [tok.strip() for tok in text.split(",")]
    toks = [tok for tok in toks if tok]
    if not toks:
        raise ScalarError("empty list %r" % (text,))
    return toks


def cmd_rho(args, ctx):
    if args.target_digits > ctx.digits:
        # digits past the working precision are rounding noise
        raise ScalarError(
            "--target-digits %d exceeds the %d working digits; raise --digits to at least %d"
            % (args.target_digits, ctx.digits, args.target_digits)
        )
    subject = _load_subject(args)
    s = ctx.scalar(args.s)
    lo = ctx.scalar(args.lo)
    if args.hi is not None:
        hi = ctx.scalar(args.hi)
    else:
        hi = gershgorin_cap(s, _degree_cap(subject))
    est = approximate_radius(subject, s, lo, hi, target_digits=args.target_digits)
    value = est.value().to_decimal_string(args.target_digits)
    return _print_result(args, value, {
        "rho": value,
        "low": est.low.to_decimal_string(args.print_digits),
        "high": est.high.to_decimal_string(args.print_digits),
        "iterations": est.iterations,
    })


def cmd_locate(args, ctx):
    subject = _load_subject(args)
    if isinstance(subject, Caterpillar):
        subject = caterpillar_to_tree(subject)
    s = ctx.scalar(args.s)
    c = ctx.scalar(args.point)
    pos, neg, zero = count_eigenvalues(subject, s, c)
    return _print_result(
        args, "%d %d %d" % (pos, neg, zero),
        {"point": args.point, "pos": pos, "neg": neg, "zero": zero},
    )


def _field_lines(fields):
    # the text form of JSON fields: "key: value" with dashes for
    # underscores and yes/no for booleans; a None value prints no line
    lines = []
    for key, value in fields.items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        if value is not None:
            lines.append("%s: %s" % (key.replace("_", "-"), value))
    return lines


def cmd_recurrence(args, ctx):
    s = ctx.scalar(args.s)
    lam = ctx.scalar(args.lam)
    p = recurrence_params(s, lam)
    digits = args.print_digits
    names = ["alpha", "gamma", "discriminant", "delta"]
    if p.adapted:
        names += ["theta", "theta_prime", "c1"]
    payload = {"adapted": p.adapted}
    payload.update((name, getattr(p, name).to_decimal_string(digits)) for name in names)
    lines = _field_lines(payload)
    if args.orbit is not None:
        report = classify_orbit(p, ctx.scalar(args.orbit), args.steps)
        steps = [x.to_decimal_string(digits) for x in report.steps]
        orbit = {
            "behavior": report.behavior,
            "converged": report.converged,
            "escape_step": report.escape_step,
        }
        lines += _field_lines(orbit) + ["j,x_j"]
        lines += ["%d,%s" % (j, x) for j, x in enumerate(steps, 1)]
        payload["orbit"] = dict(orbit, steps=steps)
    return _print_result(args, "\n".join(lines), payload)


def _shearer_s(args, ctx, lam):
    if args.s.strip() == "auto":
        return s_star(lam).halved()
    return ctx.scalar(args.s)


def cmd_shearer(args, ctx):
    lam = ctx.scalar(args.lam)
    s = _shearer_s(args, ctx, lam)
    if args.report is not None:
        ks = _int_list(args.report)
        report = convergence_report(lam, s, ks, ctx=ctx)
        lines = ["k,counts,rho,error"]
        lines.extend(",".join(row.cells(args.print_digits)) for row in report.rows)
        _emit("\n".join(lines) + "\n", args.csv)
        return EXIT_OK
    if args.k is None:
        raise ScalarError("--k is required when --report is not given")
    run = generate(lam, s, args.k, ctx=ctx)
    print("counts: %s" % counts_cell(run.counts))
    print("vertices: %d" % (run.k + sum(run.counts)))
    return EXIT_OK


def cmd_tau0(args, ctx):
    text = tau0(ctx.scalar(args.s)).to_decimal_string(args.print_digits)
    return _print_result(args, text, {"s": args.s, "tau0": text})


def cmd_sstar(args, ctx):
    text = s_star(ctx.scalar(args.lam)).to_decimal_string(args.print_digits)
    return _print_result(args, text, {"lambda": args.lam, "sstar": text})


def cmd_limits_table(args, ctx):
    lines = ["s,tau0"]
    for tok in _token_list(args.s_list):
        value = tau0(ctx.scalar(tok))
        lines.append("%s,%s" % (tok, value.to_decimal_string(args.print_digits)))
    _emit("\n".join(lines) + "\n", args.csv)
    return EXIT_OK


def _tree_cell(tree):
    if tree.n == 1:
        return "n1"
    pairs = sorted(
        (min(tree.labels[u], tree.labels[v]), max(tree.labels[u], tree.labels[v]))
        for u, v in tree.edges()
    )
    return " ".join("%d-%d" % (a, b) for a, b in pairs)


def _random_tree(rng, n):
    # uniform labeled tree from a random Pruefer sequence
    if n == 2:
        return Tree.from_edges([(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Tree.from_edges(edges)


def cmd_verify(args, ctx):
    if args.random > 0 and args.random_n < 2:
        raise ScalarError("--random-n must be at least 2 when --random is positive")
    if args.props.strip() == "all":
        ids = list(PROPERTY_IDS)
    else:
        ids = _token_list(args.props)
    s_tokens = _token_list(args.s_grid)
    trees = []
    for n in range(1, args.max_n + 1):
        trees.extend(free_trees(n))
    rng = random.Random(args.seed)
    for _ in range(args.random):
        trees.append(_random_tree(rng, rng.randint(2, args.random_n)))
    result = sweep(ids, trees, [ctx.scalar(tok) for tok in s_tokens], ctx=ctx)
    # reports come tree by tree, then s by s, then in ``ids`` order
    reports = iter(result.reports)
    verdicts = {True: "pass", False: "fail", None: "na"}
    rows = [
        "%s,%s,%s,%s" % (pid, cell, tok, verdicts[next(reports).holds])
        for cell in map(_tree_cell, trees) for tok in s_tokens for pid in ids
    ]
    tallies = result.summary()
    violations = result.violations()
    if args.csv is not None:
        _emit("property,tree,s,result\n" + "\n".join(rows) + "\n", args.csv)
    print(
        "checked=%d passed=%d failed=%d not-applicable=%d"
        % (tallies["checked"], tallies["passed"], tallies["failed"], tallies["not_applicable"])
    )
    for report in violations:
        sys.stderr.write("violation: %s\n" % (report.witness,))
    return EXIT_TOLERANCE if violations else EXIT_OK


def cmd_reproduce(args, ctx):
    table = reproduce_table(
        args.table_id,
        ctx=ctx,
        print_digits=args.print_digits,
        full_counts_path=args.full_counts,
    )
    _emit(table.to_csv(), args.csv)
    for row in table.failures():
        computed = row.computed
        if hasattr(computed, "to_decimal_string"):
            computed = computed.to_decimal_string(args.print_digits)
        sys.stderr.write(
            "row %s: FAIL (%s; computed %s, expected %s)\n"
            % (row.key, row.detail, computed, row.expected)
        )
    if not table.ok:
        sys.stderr.write(
            "%s: %d row(s) outside tolerance\n" % (table.table_id, len(table.failures()))
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--digits",
        type=int,
        default=None,
        help="working precision in decimal digits (default: $%s or 50)" % DIGITS_ENV_VAR,
    )
    common.add_argument(
        "--print-digits",
        type=int,
        default=15,
        help="significant digits in printed values (default 15)",
    )

    parser = argparse.ArgumentParser(
        prog="deflap",
        description="spectral radii and limit points of deformed Laplacians on trees",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rho", parents=[common], help="spectral radius by bisection")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--caterpillar", help='caterpillar literal, e.g. "[31,23,9,17,23]"')
    grp.add_argument("--tree", help="path to a tree file (edge u v lines)")
    p.add_argument("--s", required=True, help="deformation parameter")
    p.add_argument("--lo", default="0", help="bracket lower end (default 0)")
    p.add_argument("--hi", default=None, help="bracket upper end (default: degree bound)")
    p.add_argument("--target-digits", type=int, default=12, help="certified digits (default 12)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_rho)

    p = sub.add_parser("locate", parents=[common], help="inertia counts at a probe point")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--tree", help="path to a tree file (edge u v lines)")
    grp.add_argument("--caterpillar", help="caterpillar literal")
    p.add_argument("--s", required=True, help="deformation parameter")
    p.add_argument("--point", required=True, help="probe point c")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_locate)

    p = sub.add_parser("recurrence", parents=[common], help="backbone map constants and orbits")
    p.add_argument("--s", required=True, help="deformation parameter")
    p.add_argument("--lambda", dest="lam", required=True, help="target point (> 1)")
    p.add_argument("--orbit", default=None, help="starting value x1 for an orbit table")
    p.add_argument("--steps", type=int, default=50, help="orbit length cap (default 50)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_recurrence)

    p = sub.add_parser("shearer", parents=[common], help="generate caterpillars aiming at lambda")
    p.add_argument("--lambda", dest="lam", required=True, help="target point (> 1)")
    p.add_argument("--s", required=True, help='deformation parameter, or "auto" for s*(lambda)/2')
    p.add_argument("--k", type=int, default=None, help="backbone length")
    p.add_argument("--report", default=None, help="comma-separated k list for a convergence table")
    p.add_argument("--csv", default=None, help="write the table to this file instead of stdout")
    p.set_defaults(handler=cmd_shearer)

    p = sub.add_parser("tau0", parents=[common], help="small-s limit point")
    p.add_argument("--s", required=True, help="deformation parameter")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_tau0)

    p = sub.add_parser("sstar", parents=[common], help="coupling with limit point lambda")
    p.add_argument("--lambda", dest="lam", required=True, help="target point (> 1)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=cmd_sstar)

    p = sub.add_parser("limits-table", parents=[common], help="tau0 over an s list, as CSV")
    p.add_argument("--s-list", default=DEFAULT_S_LIST, help="comma-separated s values")
    p.add_argument("--csv", default=None, help="write the table to this file instead of stdout")
    p.set_defaults(handler=cmd_limits_table)

    p = sub.add_parser("verify", parents=[common], help="run the spectral property checks")
    p.add_argument("--props", default="all", help='"all" or a comma-separated id list')
    p.add_argument("--max-n", type=int, default=8, help="check all trees up to this size")
    p.add_argument("--s-grid", default=DEFAULT_S_GRID, help="comma-separated s values")
    p.add_argument("--seed", type=int, default=0, help="seed for the extra random trees")
    p.add_argument("--random", type=int, default=0, help="number of extra random trees")
    p.add_argument("--random-n", type=int, default=12, help="max size of random trees")
    p.add_argument("--csv", default=None, help="write one row per check to this file")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("reproduce", parents=[common], help="recompute a published table")
    p.add_argument("table_id", choices=TABLE_IDS, help="which table to reproduce")
    p.add_argument("--csv", default=None, help="write the table to this file instead of stdout")
    p.add_argument(
        "--full-counts",
        default=None,
        help="for lam2025: also stream every generated count to this file",
    )
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = context_from_env(args.digits)
        return args.handler(args, ctx)
    except PrecisionError as exc:
        sys.stderr.write("precision error: %s\n" % (exc,))
        return EXIT_PRECISION
    except ConsistencyError as exc:
        sys.stderr.write("consistency check failed: %s\n" % (exc,))
        return EXIT_TOLERANCE
    except ScalarError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
