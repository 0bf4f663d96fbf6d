"""Caterpillar generation, the beta diagnostics, and the eps_k certificates."""

import pytest

from deflap.diagonalize import approximate_radius
from deflap.limits import s_star
from deflap.recurrence import recurrence_params
from deflap.scalar import DomainError, PrecisionContext
from deflap.shearer import (
    beta_sequence,
    counts_cell,
    epsilon_k,
    format_counts,
    generate,
)

CTX = PrecisionContext(50)


def _half_run(lam_text, k):
    lam = CTX.scalar(lam_text)
    return generate(lam, s_star(lam).halved(), k)


def test_counts_lambda_1_5_half():
    assert _half_run("1.5", 5).counts == (20, 4, 0, 2, 9)
    assert _half_run("1.5", 10).counts == (20, 4, 0, 2, 9, 4, 1, 7, 11, 8)


def test_counts_lambda_1_5_full():
    lam = CTX.scalar("1.5")
    run = generate(lam, s_star(lam), 5)
    assert run.counts == (4, 1, 0, 1, 2)


def test_counts_lambda_5_4_half():
    assert _half_run("5.4", 5).counts == (31, 23, 9, 17, 23)


def test_deeper_run_extends_the_shallower_one():
    short = _half_run("5.4", 5)
    deep = _half_run("5.4", 12)
    assert deep.counts[:4] == short.counts[:4]


def test_counts_do_not_depend_on_working_precision():
    lam50 = CTX.scalar("5.4")
    lam80 = PrecisionContext(80).scalar("5.4")
    a = generate(lam50, s_star(lam50).halved(), 8)
    b = generate(lam80, s_star(lam80).halved(), 8)
    assert a.counts == b.counts
    assert b.lam.ctx.digits == 80


def test_b_trace_stays_in_window():
    run = _half_run("5.4", 12)
    p = recurrence_params(run.s, run.lam)
    lo = p.theta_prime - p.delta
    for b in run.b_trace:
        assert lo < b < p.theta_prime


def test_counts_are_maximal_in_window():
    # one more leaf anywhere would push b at or below theta' - delta
    run = _half_run("1.5", 5)
    p = recurrence_params(run.s, run.lam)
    for b in run.b_trace:
        assert b - p.delta <= p.theta_prime - p.delta


def test_beta_methods_agree():
    run = _half_run("5.4", 15)
    rec = beta_sequence(run, method="recurrence")
    tot = beta_sequence(run, method="sum")
    for a, b in zip(rec, tot):
        assert abs(a - b) <= abs(a) * CTX.power_of_ten(-30)
    assert all(b.sign() > 0 for b in rec)


def test_beta_matches_stored_trace():
    run = _half_run("5.4", 10)
    rec = beta_sequence(run)
    assert len(rec) == len(run.beta_trace) == 10
    for a, b in zip(rec, run.beta_trace):
        assert abs(a - b) <= abs(a) * CTX.power_of_ten(-30)


def _probe_sweep(counts, s, m):
    # backbone recurrence at probe m, terminal -s^2 on the last vertex
    s2 = s * s
    delta = s2 * m / (m - 1)
    b = 1 - m + counts[0] * delta
    out = [b]
    for j in range(1, len(counts)):
        b = 1 + s2 - m - s2 / b + counts[j] * delta
        if j == len(counts) - 1:
            b = b - s2
        out.append(b)
    return out


def test_beta_matches_central_difference():
    # derivative of b_j in the probe offset eps, step 1e-20 at 50 digits;
    # meaningful while 1/beta_j stays far above the step, so k = 10 here
    run = _half_run("5.4", 10)
    p = recurrence_params(run.s, run.lam)
    lam = p.lam
    s = p.s
    h = CTX.power_of_ten(-20)
    base = _probe_sweep(run.counts, s, lam)
    below = _probe_sweep(run.counts, s, lam - h)
    above = _probe_sweep(run.counts, s, lam + h)
    for b0, b1, b2, beta in zip(base, below, above, beta_sequence(run)):
        fd = (b1 - b2) / ((h + h) * (-b0))
        assert abs(fd - beta) <= abs(beta) * CTX.power_of_ten(-10)


def _chain_holds(lam_text, mode, k):
    lam = CTX.scalar(lam_text)
    s = s_star(lam)
    if mode == "half":
        s = s.halved()
    run = generate(lam, s, k)
    eps = epsilon_k(run)
    beta_k = beta_sequence(run)[-1]
    est = approximate_radius(run.caterpillar(), s, CTX.scalar(1), lam, target_digits=40)
    err = lam - est.value()
    assert eps.certified
    assert err < eps.value
    assert eps.value <= 1 / beta_k
    return eps


def test_epsilon_certificate_half_coupling():
    _chain_holds("5.4", "half", 5)


def test_epsilon_certificate_full_coupling_with_bare_node():
    # the k=5 run at full coupling has a zero leaf count mid-backbone
    eps = _chain_holds("1.5", "full", 5)
    assert eps.k == 5


def test_generate_rejects_unadapted_parameters():
    lam = CTX.scalar("1.5")
    with pytest.raises(DomainError):
        generate(lam, CTX.scalar("0.9"), 5)
    with pytest.raises(DomainError):
        generate(lam, CTX.scalar(0), 5)


def test_generate_takes_a_callable_spec():
    # a callable is re-evaluated at every precision the ladder climbs to,
    # so it gives the same run as the decimal string it spells out
    seen = []

    def spec(ctx):
        seen.append(ctx.digits)
        return ctx.scalar("0.3")

    run = generate("5.4", spec, 30, ctx=CTX)
    ref = generate("5.4", "0.3", 30, ctx=CTX)
    assert run.counts == ref.counts
    assert run.generation_digits == ref.generation_digits == 78
    assert [b.raw() for b in run.beta_trace] == [b.raw() for b in ref.beta_trace]
    assert sorted(set(seen)) == [50, 60, 78]
    with pytest.raises(DomainError):
        generate("5.4", lambda ctx: 0.3, 30, ctx=CTX)


def test_format_counts():
    assert format_counts([3, 1, 2]) == "[3 1 2]"
    assert counts_cell(tuple(range(12))) == "[0 1 2 3 4 5 6 7 8 9 10 11]"
    assert counts_cell(tuple(range(13))) == "[0 1 2 3 4 5 .. 10 11 12]"
    assert counts_cell([1, 2, 3]) == "[1 2 3]"
    assert counts_cell([1] * 12) == "[1 1 1 1 1 1 1 1 1 1 1 1]"
    assert counts_cell([1] * 13) == "[1 1 1 1 1 1 .. 1 1 1]"
