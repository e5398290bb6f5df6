"""Expression and file parsing."""

import random
from fractions import Fraction

import pytest

from hyparr.cyclo import CyclotomicNumber, root_of_unity
from hyparr.errors import ParseError
from hyparr.linalg import form_to_str
from hyparr.parse import (parse_arrangement_text, parse_form, parse_scalar)
from tests.conftest import random_form


class TestScalars:
    def test_rational_literals(self):
        assert parse_scalar("3", 1) == CyclotomicNumber.from_rational(3, 1)
        assert parse_scalar("1/2", 1).coeffs == (Fraction(1, 2),)
        assert parse_scalar("-2/4", 1).coeffs == (Fraction(-1, 2),)

    def test_spec_example(self):
        v = parse_scalar("1 - 2*(z+1)", 5)
        z = root_of_unity(5, 1)
        assert v == CyclotomicNumber.one(5) - 2 * (z + CyclotomicNumber.one(5))

    def test_powers_and_precedence(self):
        z = root_of_unity(5, 1)
        assert parse_scalar("z^2 + z^3", 5) == z ** 2 + z ** 3
        assert parse_scalar("-z^2", 5) == -(z ** 2)
        assert parse_scalar("2*z^2", 5) == 2 * z ** 2
        assert parse_scalar("(z+1)^2", 5) == (z + 1) * (z + 1)

    def test_i_sugar(self):
        assert parse_scalar("i", 4) == root_of_unity(4, 1)
        assert parse_scalar("i*i", 12) == CyclotomicNumber.from_rational(-1, 12)
        with pytest.raises(ParseError):
            parse_scalar("i", 5)

    def test_division(self):
        v = parse_scalar("1/(1+i)", 4)
        assert v.coeffs == (Fraction(1, 2), Fraction(-1, 2))
        with pytest.raises(ParseError):
            parse_scalar("1/0", 4)

    def test_z_over_rationals_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("z", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("1 + ", 1)
        with pytest.raises(ParseError):
            parse_scalar("1 2", 1)


class TestForms:
    def test_aliases_and_x_names(self):
        f = parse_form("a - b", 3, 1)
        g = parse_form("x1 - x2", 3, 1)
        assert f == g

    def test_linear_only(self):
        with pytest.raises(ParseError):
            parse_form("a*b", 2, 1)
        with pytest.raises(ParseError):
            parse_form("a^2", 2, 1)
        with pytest.raises(ParseError):
            parse_form("1/a", 2, 1)
        with pytest.raises(ParseError):
            parse_form("a + 1", 2, 1)

    def test_zero_form_rejected(self):
        with pytest.raises(ParseError):
            parse_form("a - a", 2, 1)

    def test_scalar_rejected(self):
        with pytest.raises(ParseError):
            parse_form("3/2", 2, 1)

    def test_no_alias_beyond_dimension_4(self):
        with pytest.raises(ParseError):
            parse_form("a + b", 5, 1)
        assert parse_form("x1 + x5", 5, 1)

    def test_round_trip_random_forms(self):
        rng = random.Random(77)
        for _ in range(300):
            order = rng.choice([1, 3, 4, 5])
            ambient = rng.randint(1, 5)
            f = random_form(rng, ambient, order)
            assert parse_form(form_to_str(f), ambient, order) == f


class TestArrangementFiles:
    def test_basic_file(self):
        text = """# the rank-2 braid
ambient 3 field 1
a - b   # first
a - c
b - c
"""
        arr = parse_arrangement_text(text)
        assert arr.ambient == 3 and arr.order == 1 and len(arr) == 3

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_arrangement_text("a - b\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_arrangement_text("ambient x field 1\na\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match=":3:"):
            parse_arrangement_text("ambient 2 field 1\na\na + 1\n")

    def test_deep_nesting_is_a_parse_error(self):
        deep = "(" * 2000 + "x1" + ")" * 2000
        with pytest.raises(ParseError, match="nested deeper"):
            parse_arrangement_text(f"ambient 2 field 1\n{deep}\n")
        nested = "(" * 50 + "x1" + ")" * 50
        assert len(parse_arrangement_text(f"ambient 2 field 1\n{nested}\n")) == 1

    def test_overlong_integer_is_a_parse_error(self):
        digits = "1" * 5000
        for text in (f"ambient 2 field 1\n{digits}*x1\n",
                     f"ambient 2 field 1\n2^{digits}*x1\n",
                     f"ambient {digits} field 1\nx1\n"):
            with pytest.raises(ParseError, match="5000 digits"):
                parse_arrangement_text(text)
        assert len(parse_arrangement_text(f"ambient 2 field 1\n{'1' * 400}*x1\n")) == 1

    def test_cyclotomic_field_file(self):
        text = "ambient 2 field 3\nx1 - z*x2\nx1 - z^2*x2\nx1 - x2\n"
        arr = parse_arrangement_text(text)
        assert len(arr) == 3 and arr.order == 3
