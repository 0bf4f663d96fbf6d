"""Closed-form limit values: tau0(s), s*(lambda), and their cross-checks."""

import pytest

from deflap.limits import (
    convergence_margin,
    laplacian_closed_form,
    s_star,
    tau0,
    tau0_quartic_residual,
)
from deflap.scalar import DomainError, PrecisionContext

CTX = PrecisionContext(50)

# ten printed digits per row
TABLE = (
    ("0.001", "1.002059342"),
    ("0.01", "1.020698941"),
    ("0.1", "1.217675873"),
    ("0.2", "1.459682287"),
    ("0.3", "1.726955383"),
    ("0.4", "2.020441181"),
    ("0.5", "2.341081806"),
    ("0.6", "2.689803637"),
    ("0.7", "3.067507378"),
    ("0.8", "3.475060020"),
    ("0.9", "3.913288615"),
    ("1.0", "4.382975768"),
    ("5", "53.36963067"),
    ("10", "203.4647577"),
)


@pytest.mark.parametrize("s_text,expected", TABLE)
def test_tau0_table(s_text, expected):
    value = tau0(CTX.scalar(s_text))
    assert abs(value - CTX.scalar(expected)) <= abs(CTX.scalar(expected)) * CTX.power_of_ten(-9)


def test_tau0_is_even():
    for s_text in ("0.3", "0.9", "2"):
        assert tau0(CTX.scalar(s_text)) == tau0(CTX.scalar("-" + s_text))


def test_tau0_quartic_residual_vanishes():
    s = CTX.scalar("0.7")
    t = tau0(s)
    assert abs(tau0_quartic_residual(t, s)) < CTX.power_of_ten(-40)
    # a nearby non-root gives a visibly nonzero residual
    assert abs(tau0_quartic_residual(t + CTX.scalar("0.001"), s)) > CTX.power_of_ten(-8)


def test_tau0_grows_with_coupling():
    values = [tau0(CTX.scalar(x)) for x in ("0.1", "0.5", "1.0", "2")]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_closed_form_matches_tau0_at_one():
    assert abs(laplacian_closed_form(CTX) - tau0(CTX.scalar(1))) < CTX.power_of_ten(-9)
    assert laplacian_closed_form(CTX).to_decimal_string(10) == "4.382975768"


def test_tau0_at_one_is_the_root_of_its_cubic():
    # at s = 1 the quartic is x (x^3 - 6x^2 + 8x - 4), the cubic that
    # demos/limit_points.py names
    t = tau0(CTX.scalar(1))
    assert abs(((t - 6) * t + 8) * t - 4) < CTX.power_of_ten(5 - CTX.digits)


def test_s_star_printed_values():
    # the published values are decimal truncations, so compare as prefixes
    assert s_star(CTX.scalar("1.5")).to_decimal_string(20).startswith("0.17869088")
    assert s_star(CTX.scalar("5.4")).to_decimal_string(20).startswith("0.6718978")
    assert s_star(CTX.scalar(2025)).to_decimal_string(20).startswith("0.9990125897")


def test_s_star_zeroes_the_margin():
    for lam_text in ("1.5", "5.4", "2025"):
        lam = CTX.scalar(lam_text)
        s = s_star(lam)
        assert abs(convergence_margin(s, lam)) < CTX.power_of_ten(-30)


def test_s_star_sits_inside_the_adapted_range():
    for lam_text in ("1.2", "1.5", "5.4", "100"):
        lam = CTX.scalar(lam_text)
        s = s_star(lam)
        assert 0 < s
        assert s < lam.sqrt() - 1


def test_margin_is_signed_around_s_star():
    lam = CTX.scalar("5.4")
    s = s_star(lam)
    step = CTX.scalar("0.001")
    assert convergence_margin(s - step, lam).sign() != convergence_margin(s + step, lam).sign()


def test_s_star_at_large_lambda():
    # the cubic formula cancels about 3 log10(lam) digits, which the
    # working precision adds back: s* = 1 - 2/lam + O(lam^-2)
    for lam_text in ("1e25", "1e30"):
        lam = CTX.scalar(lam_text)
        assert abs((1 - s_star(lam)) * lam - 2) < CTX.power_of_ten(-15)
    assert 0 < s_star(CTX.scalar("1e100")) <= 1


def test_s_star_rejects_small_lambda():
    with pytest.raises(DomainError):
        s_star(CTX.scalar(1))
    with pytest.raises(DomainError):
        s_star(CTX.scalar("0.5"))


def test_s_star_follows_argument_precision():
    lam = PrecisionContext(120).scalar("5.4")
    s = s_star(lam)
    assert s.ctx.digits == 120
    assert s.to_decimal_string(30).startswith("0.6718978964648119521")
