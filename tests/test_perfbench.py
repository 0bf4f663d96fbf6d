"""The benchmark's self-test, run as part of the test suite.

``perfbench/selftest.py`` runs each workload on tiny inputs, traced and
untraced, and plants wrong answers that must be counted as failures. Its
tracer looks names up in the package (the spanned functions, Scalar
methods, ``DenseMatrix.eigenvalues``, ``RadiusEstimate.early_breaks``),
so a change that removes one fails here rather than only in a benchmark
run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest():
    cp = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "selftest: ok" in cp.stdout.splitlines()
