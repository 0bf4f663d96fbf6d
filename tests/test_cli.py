import hashlib
import json
import os
import subprocess
import sys

from deflap.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env=None):
    # the child imports deflap from this checkout, as the test process does
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "deflap", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for name in ("rho", "locate", "recurrence", "shearer", "tau0", "sstar",
                 "limits-table", "verify", "reproduce"):
        assert name in cp.stdout


def test_rho_caterpillar():
    cp = run_cli("rho", "--caterpillar", "[31,23,9,17,23]",
                 "--s", "0.3359489", "--lo", "1", "--hi", "5.4")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "5.39999873155"


def test_rho_default_bracket_and_json():
    cp = run_cli("rho", "--caterpillar", "2 0 3", "--s", "0.7", "--json")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert set(payload) == {"rho", "low", "high", "iterations"}
    # rho prints at --target-digits, the bracket at --print-digits
    assert abs(float(payload["rho"]) - float(payload["low"])) < 1e-9
    assert float(payload["high"]) - float(payload["low"]) < 1e-9
    assert payload["iterations"] > 0


def test_rho_rejects_target_digits_above_working_digits():
    # at 20 working digits the 21st printed digit on is noise: the command
    # refuses rather than print it
    args = ("rho", "--caterpillar", "[3,1]", "--s", "0.5", "--digits", "20", "--json")
    cp = run_cli(*args, "--target-digits", "40")
    assert cp.returncode == 2
    assert "--target-digits 40" in cp.stderr and "20 working digits" in cp.stderr
    assert cp.stdout == ""
    cp = run_cli(*args, "--target-digits", "20")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["rho"] == "2.4877973677697324444"


def test_rho_rejects_bad_literal():
    cp = run_cli("rho", "--caterpillar", "[31,23,9,17,23", "--s", "0.3")
    assert cp.returncode == 2
    assert "caterpillar" in cp.stderr


def test_rho_bracket_beyond_float_range(tmp_path):
    # hi - lo overflows a double, so no iteration count can be derived
    tree = tmp_path / "p5.txt"
    tree.write_text("edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\n")
    cp = run_cli("rho", "--tree", str(tree), "--s", "0.5", "--hi", "1e400")
    assert cp.returncode == 2
    assert cp.stdout == ""
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_locate_tree_file(tmp_path):
    tree = tmp_path / "star.txt"
    tree.write_text("edge 0 1\nedge 0 2\nedge 0 3\n")
    cp = run_cli("locate", "--tree", str(tree), "--s", "0.9", "--point", "1.0")
    assert cp.returncode == 0, cp.stderr
    pos, neg, zero = map(int, cp.stdout.split())
    assert (pos, neg, zero) == (1, 1, 2)


def test_locate_missing_file():
    cp = run_cli("locate", "--tree", "/nonexistent/tree.txt", "--s", "0.9", "--point", "1")
    assert cp.returncode == 2


def test_recurrence_params_output():
    cp = run_cli("recurrence", "--s", "0.17", "--lambda", "1.5")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "adapted: yes"
    assert any(line.startswith("theta: ") for line in lines)
    cp = run_cli("recurrence", "--s", "0.3", "--lambda", "1.5")
    assert cp.stdout.splitlines()[0] == "adapted: no"
    assert not any(line.startswith("theta:") for line in cp.stdout.splitlines())


def test_recurrence_orbit_table():
    cp = run_cli("recurrence", "--s", "0.17", "--lambda", "1.5",
                 "--orbit", "-0.5", "--steps", "8")
    assert cp.returncode == 0, cp.stderr
    assert "behavior: increases-to-theta" in cp.stdout
    assert "j,x_j" in cp.stdout


def test_shearer_generate():
    cp = run_cli("shearer", "--lambda", "5.4", "--s", "auto", "--k", "5")
    assert cp.returncode == 0, cp.stderr
    assert "counts: [31 23 9 17 23]" in cp.stdout
    assert "vertices: 108" in cp.stdout


def test_shearer_report_csv():
    cp = run_cli("shearer", "--lambda", "1.5", "--s", "auto", "--report", "5,10")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "k,counts,rho,error"
    assert lines[1].startswith("5,[20 4 0 2 9],1.49999982716896,")


def test_tau0_and_print_digits():
    cp = run_cli("tau0", "--s", "0.5")
    assert cp.stdout.strip() == "2.34108180580856"
    cp = run_cli("tau0", "--s", "0.5", "--print-digits", "6")
    assert cp.stdout.strip() == "2.34108"


def test_sstar():
    cp = run_cli("sstar", "--lambda", "2025", "--digits", "60")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip().startswith("0.9990125897")
    cp = run_cli("sstar", "--lambda", "1.5", "--json")
    payload = json.loads(cp.stdout)
    assert payload["sstar"].startswith("0.17869088")


def test_sstar_at_large_lambda():
    cp = run_cli("sstar", "--lambda", "1e30")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "1.0"


def test_digits_env_var_equivalence(tmp_path):
    env = dict(os.environ, DEFLAP_DIGITS="64")
    a = run_cli("tau0", "--s", "0.9", env=env)
    b = run_cli("tau0", "--s", "0.9", "--digits", "64")
    assert a.stdout == b.stdout


def test_limits_table_golden_and_deterministic():
    a = run_cli("limits-table", "--s-list", "0.001,0.5,1.0")
    assert a.returncode == 0, a.stderr
    assert a.stdout == (
        "s,tau0\n"
        "0.001,1.00205934199661\n"
        "0.5,2.34108180580856\n"
        "1.0,4.38297576790624\n"
    )
    b = run_cli("limits-table", "--s-list", "0.001,0.5,1.0")
    assert a.stdout == b.stdout


def test_verify_small_sweep(tmp_path):
    out = tmp_path / "checks.csv"
    cp = run_cli("verify", "--props", "zero-eig-iff-unit-s,radius-above-one",
                 "--max-n", "4", "--s-grid", "0.9,1", "--csv", str(out))
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.startswith("checked=")
    assert "failed=0" in cp.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "property,tree,s,result"
    assert len(lines) == 1 + 5 * 2 * 2  # five trees of n <= 4, two s, two props


def test_verify_beyond_dense_cap(capsys):
    # the random tree has 81 vertices; the adjacency ceiling needs no dense matrix
    code = main(["verify", "--max-n", "1", "--random", "1", "--random-n", "100",
                 "--seed", "5", "--s-grid", "0.3,-1.5"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == "checked=48 passed=19 failed=0 not-applicable=29\n"


def test_verify_csv_golden(tmp_path, capsys):
    # all 12 properties on the default s grid over every tree with n <= 6
    # and three random ones: the CSV bytes are pinned by their digest
    out = tmp_path / "verify.csv"
    code = main(["verify", "--max-n", "6", "--random", "3", "--seed", "1", "--csv", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 0, err
    assert stdout == "checked=1632 passed=990 failed=0 not-applicable=642\n"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "3d58684e1b7aa9c0e0ad717f3d3dfd9a4db1f3cb853f98f879cc3d5c548e0d8a"


# stdout digests of commands whose bytes the caterpillar, recurrence and
# reproduce paths must keep
STDOUT_GOLDENS = (
    (("shearer", "--lambda", "1.5", "--s", "auto", "--report", "5,10,20"),
     "1dd3c9873d55aabc8cd43f04c07ecf1d8c1ba54bc6149fc5576c440ad09749df"),
    (("recurrence", "--s", "0.17", "--lambda", "1.5", "--orbit", "-0.5", "--json"),
     "8a2951a5df05df9f69b328e46c214bd7ff7cfafcdebdd45ef8cba9cbe4229b8a"),
    (("reproduce", "lam1_5_star"),
     "99ade6f0f21d5e9e04c01f90b4acd019d6ec7ebb5fde34676a6bba2f2487ffc8"),
    (("rho", "--caterpillar", "[31,23,9,17,23]", "--s", "0.3359489",
      "--lo", "1", "--hi", "5.4", "--json"),
     "a7482923f47828c42f3b9e4be98474d7213120842137134cda1495be38492d88"),
    (("locate", "--caterpillar", "[3,1,2]", "--s", "0.5", "--point", "2", "--json"),
     "b42709ad5bda188800cc52c2fa604ed4c493af88c840e4b79ace7f89752a37f9"),
    (("tau0", "--s", "0.5", "--json"),
     "3e78941112efd4843af6f8d200bd7db5266d9e806767147bd23f313d9d2051f5"),
    (("sstar", "--lambda", "1.5", "--json"),
     "72e4b6848e2a80c16f15f094ebd188262b2a8c6a9a4a9788f43a5b1b82b07b95"),
    (("recurrence", "--s", "0.17", "--lambda", "1.5", "--orbit", "-0.5", "--steps", "8"),
     "706d4bf1b39ca7c9d86889658aab4777d750d38066aea32e6169e052bcd9da35"),
    (("recurrence", "--s", "0.17", "--lambda", "1.5", "--orbit", "0.5", "--steps", "8"),
     "4e6f39d3786d5c30faeb6940c95f0e29a2fc9160262fc344b7d0db4796f026e7"),
    (("recurrence", "--s", "0.3", "--lambda", "1.5"),
     "36f15c7d1bde0b0a40f4c453b85ebca7ad6596b50dcfac22c074e06b797eb8a4"),
    (("recurrence", "--s", "0.3", "--lambda", "1.5", "--json"),
     "9ea52d34a8eb38159c525347dfc62664dbeec803e4a34b526bcf944c0ebbb25b"),
)


def test_stdout_goldens():
    for args, digest in STDOUT_GOLDENS:
        cp = run_cli(*args)
        assert cp.returncode == 0, cp.stderr
        assert hashlib.sha256(cp.stdout.encode()).hexdigest() == digest, args


def test_non_finite_inputs_are_usage_errors(tmp_path):
    tree = tmp_path / "p3.txt"
    tree.write_text("edge 0 1\nedge 1 2\n")
    for args in (
        ("locate", "--tree", str(tree), "--s", "0.5", "--point", "nan"),
        ("recurrence", "--s", "nan", "--lambda", "3"),
        ("shearer", "--lambda", "inf", "--s", "0.1", "--k", "3"),
        ("sstar", "--lambda", "inf"),
    ):
        cp = run_cli(*args)
        assert cp.returncode == 2, args
        assert cp.stdout == ""
        lines = cp.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: not a finite number"), args


def test_verify_rejects_random_trees_below_two_vertices():
    cp = run_cli("verify", "--max-n", "3", "--random", "2", "--random-n", "1")
    assert cp.returncode == 2
    assert cp.stdout == ""
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and "--random-n" in lines[0]
    # with no random trees the size bound is never read
    cp = run_cli("verify", "--max-n", "2", "--random", "0", "--random-n", "1")
    assert cp.returncode == 0, cp.stderr


def test_verify_rejects_unknown_property():
    cp = run_cli("verify", "--props", "bogus-check", "--max-n", "3")
    assert cp.returncode == 2


def test_reproduce_tau0(tmp_path):
    out = tmp_path / "t.csv"
    cp = run_cli("reproduce", "tau0_table", "--csv", str(out))
    assert cp.returncode == 0, cp.stderr
    assert out.read_text().startswith("s,tau0\n0.001,1.00205934199661\n")


def test_reproduce_failing_table_exits_one():
    cp = run_cli("reproduce", "lam1_5_half")
    assert cp.returncode == 1
    assert cp.stdout.startswith("k,counts,rho,error")
    assert "row 30: FAIL" in cp.stderr
    assert "row 50: FAIL" in cp.stderr


def test_reproduce_flagship_needs_digits():
    cp = run_cli("reproduce", "lam2025")
    assert cp.returncode == 3
    assert "250" in cp.stderr


def test_unknown_table_is_usage_error():
    cp = run_cli("reproduce", "lam9_9")
    assert cp.returncode == 2
