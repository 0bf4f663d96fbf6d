import os

import pytest

from deflap.scalar import (
    BracketingError,
    DomainError,
    NegativeRootError,
    PrecisionContext,
    PrecisionMixingError,
    Scalar,
    bisect_monotone_root,
    context_from_env,
    infer_context,
)


def test_context_validates_digits():
    with pytest.raises(DomainError):
        PrecisionContext(8)
    assert PrecisionContext(16).digits == 16


def test_decimal_strings_parse_exactly():
    ctx = PrecisionContext(50)
    # 0.1 rounds once on entry and stays put afterwards
    x = ctx.scalar("0.1")
    assert (x * 3).to_decimal_string(20) == "0.3"
    assert ctx.scalar("1e-40").to_decimal_string(5) == "1.0e-40"


def test_arithmetic_identities():
    ctx = PrecisionContext(50)
    a = ctx.scalar("1.25")
    b = ctx.scalar(4)
    assert (a + b - b).to_decimal_string(10) == "1.25"
    assert (a * b / b).to_decimal_string(10) == "1.25"
    assert (-a).sign() == -1
    assert abs(-a) == a
    assert (b ** 2) == ctx.scalar(16)
    assert b.sqrt() == ctx.scalar(2)
    assert ctx.scalar(27).cbrt() == ctx.scalar(3)
    assert ctx.scalar(5).halved().to_decimal_string(5) == "2.5"


def test_comparisons_and_zero():
    ctx = PrecisionContext(50)
    assert ctx.scalar(2) > 1
    assert ctx.scalar(-3) < ctx.scalar("-2.5")
    assert ctx.scalar(0).is_zero
    assert ctx.scalar(0).sign() == 0
    assert not ctx.scalar("1e-300").is_zero


def test_floor_returns_plain_int():
    ctx = PrecisionContext(50)
    v = ctx.scalar("2.999").floor()
    assert v == 2
    assert type(v) is int
    assert ctx.scalar("-0.5").floor() == -1


def test_decimal_magnitude():
    ctx = PrecisionContext(50)
    assert ctx.scalar(123).decimal_magnitude() == 3
    assert ctx.scalar("0.00123").decimal_magnitude() == -2


def test_non_finite_values_raise():
    ctx = PrecisionContext(50)
    for value in ("nan", "inf", "-inf", " +inf ", float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="not a finite number"):
            ctx.scalar(value)
    assert ctx.scalar("1e400") > 0
    assert ctx.scalar(-0.0).is_zero


def test_sqrt_of_negative_raises():
    ctx = PrecisionContext(50)
    with pytest.raises(NegativeRootError):
        ctx.scalar(-2).sqrt()


def test_mixing_contexts_raises():
    a = PrecisionContext(50).scalar(1)
    b = PrecisionContext(30).scalar(1)
    with pytest.raises(PrecisionMixingError):
        a + b


def test_env_var_controls_default(monkeypatch):
    monkeypatch.setenv("DEFLAP_DIGITS", "64")
    assert context_from_env().digits == 64
    monkeypatch.delenv("DEFLAP_DIGITS")
    assert context_from_env().digits == 50


def test_infer_context_prefers_scalar_arguments(monkeypatch):
    monkeypatch.delenv("DEFLAP_DIGITS", raising=False)
    ctx = PrecisionContext(80)
    assert infer_context(3, ctx.scalar(1), "x") is ctx
    assert infer_context(3).digits == 50


def test_bisect_monotone_root_sqrt2():
    ctx = PrecisionContext(50)
    f = lambda t: t * t - 2
    root = bisect_monotone_root(f, ctx.scalar(1), ctx.scalar(2), 200)
    assert abs(root - ctx.scalar(2).sqrt()) < ctx.power_of_ten(-45)


def test_bisect_rejects_bad_brackets():
    ctx = PrecisionContext(50)
    f = lambda t: t * t - 2
    with pytest.raises(BracketingError):
        bisect_monotone_root(f, ctx.scalar(2), ctx.scalar(3), 10)
    with pytest.raises(DomainError):
        bisect_monotone_root(f, ctx.scalar(2), ctx.scalar(1), 10)


def test_scalar_reuses_context_values():
    ctx = PrecisionContext(50)
    x = ctx.scalar("0.25")
    assert ctx.scalar(x) is x
    assert isinstance(ctx.scalar(7), Scalar)
