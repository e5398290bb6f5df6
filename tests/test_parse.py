"""Expression and file parsing."""

import importlib.util
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import hyparr.cyclo
from hyparr.arrangement import arrangement_to_text, make_arrangement
from hyparr.claims import WITNESS_CLAIMS
from hyparr.cyclo import CyclotomicNumber, root_elem, root_of_unity
from hyparr.errors import ParseError
from hyparr.linalg import form_to_str
from hyparr.parse import (MAX_AMBIENT, MAX_DIGITS, MAX_EXPONENT, MAX_FIELD_ORDER, MAX_PACKED,
                          _tokenize, _variables_for, parse_arrangement_text, parse_form,
                          parse_scalar)
from hyparr.reflection import (_EXCEPTIONAL, build_named, catalog, catalog_entry,
                               monomial_arrangement)
from tests.conftest import random_form
from tests.parse_reference import (reference_coefficients, reference_parse_form,
                                   reference_parse_scalar)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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

    def test_variable_is_an_unknown_symbol(self):
        with pytest.raises(ParseError, match=r"^unknown symbol 'a' in 'a'$"):
            parse_scalar("a", 1)

    def test_oversized_product_of_literals(self):
        digits = "9" * MAX_DIGITS
        with pytest.raises(ParseError, match=f"has an integer of more than {MAX_DIGITS} digits"):
            parse_scalar(f"{digits}*{digits}", 1)


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

    def test_constants_are_made_once(self, monkeypatch):
        # the roots named by z and i, and the variable table, once per field
        # order or dimension, not once per token or form
        want = parse_form("a + (-z)*b + i*c", 3, 4)
        divisions = []
        real = hyparr.cyclo.poly_divmod
        monkeypatch.setattr(hyparr.cyclo, "poly_divmod",
                            lambda *args: divisions.append(args) or real(*args))
        for _ in range(50):
            assert parse_form("a + (-z)*b + i*c", 3, 4) == want
        assert divisions == []
        assert _variables_for(3) is _variables_for(3)

    def test_monomial_roots_made_once_per_order(self, monkeypatch):
        # G(4,1,5) has 40 forms x_i - z^m x_j, and z^m is divided out once per m
        want = monomial_arrangement(4, 1, 5)
        root_elem.cache_clear()
        divisions = []
        real = hyparr.cyclo.poly_divmod
        monkeypatch.setattr(hyparr.cyclo, "poly_divmod",
                            lambda *args: divisions.append(args) or real(*args))
        assert monomial_arrangement(4, 1, 5) == want
        assert len(divisions) == 4


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


def outcome(parse, *args):
    """The parsed value, or the ParseError message."""
    try:
        return parse(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


def assert_parses_like_reference(text, ambient, order, valid=False):
    """Both parsers give the same form or the same error; with ``valid``,
    a form.  Returns the outcome."""
    new = outcome(parse_form, text, ambient, order)
    assert new == outcome(reference_parse_form, text, ambient, order), text
    if not isinstance(new, str):
        assert new.row == new.normalized().row
    else:
        assert not valid, new
    return new


def random_scalar(rng, order, depth):
    """Random scalar syntax: literals, z, i, parentheses, ^, / and signs."""
    atoms = [str(rng.randint(0, 12))]
    if order > 1:
        atoms.append("z")
    if order % 4 == 0:
        atoms.append("i")
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(atoms)
    inner = random_scalar(rng, order, depth - 1)
    return rng.choice([
        f"({inner})",
        f"({inner})^{rng.randint(0, 5)}",
        f"{rng.choice(atoms)}^{rng.randint(0, 5)}",
        f"{inner} {rng.choice('+-*/')} {random_scalar(rng, order, depth - 1)}",
        f"-{inner}",
    ])


def random_expression(rng, ambient, order):
    """Random form syntax over x1..xl and, when l <= 4, the aliases a..d.
    Some draws are not linear forms (a constant term, a product of two
    variables, division by a variable or by zero): both parsers must refuse
    them with the same message."""
    names = [f"x{j + 1}" for j in range(ambient)]
    if ambient <= 4:
        names += list("abcd"[:ambient])
    terms = []
    for _ in range(rng.randint(1, 4)):
        var = rng.choice(names)
        s = random_scalar(rng, order, 2)
        kind = rng.randrange(9)
        if kind == 0:
            terms.append(var)
        elif kind == 1:
            terms.append(f"({s})*{var}")
        elif kind == 2:
            terms.append(f"{var}*({s})")
        elif kind == 3:
            terms.append(f"{var}/({s})")
        elif kind == 4:
            terms.append(f"({var} {rng.choice('+-')} {rng.choice(names)})*{s}")
        elif kind == 5:
            terms.append(f"{s}*{var}")
        elif kind == 6:
            terms.append(f"-{var}")
        elif kind == 7:
            terms.append(rng.choice([s, f"{var}*{rng.choice(names)}", f"{s}/{var}"]))
        else:
            terms.append(f"({rng.choice(names)} - {var} + {var})")
    text = terms[0]
    for term in terms[1:]:
        text += f" {rng.choice('+-')} {term}"
    return text


class TestAgainstReference:
    """The parser on packed rows against the ``CyclotomicNumber`` parser it
    replaced (``tests/parse_reference.py``): equal rows, or the same error."""

    def test_catalog_transcriptions(self):
        count = 0
        for name, (ambient, order, factors) in _EXCEPTIONAL.items():
            for text in factors:
                assert_parses_like_reference(text, ambient, order, valid=True)
                count += 1
        assert count == 184

    def test_claim_forms(self):
        count = 0
        for claim in WITNESS_CLAIMS:
            entry = catalog_entry(claim.arrangement)
            for text in claim.x_forms + claim.y_forms + (claim.expected,):
                assert_parses_like_reference(text, entry.ambient, entry.field_order, valid=True)
                count += 1
        assert count > 50

    @pytest.mark.parametrize("workload", ["lattice", "products", "smoke"])
    def test_benchmark_input_files(self, tmp_path, monkeypatch, workload):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        workloads.make_items(workload, 1, str(tmp_path))
        files = sorted(tmp_path.iterdir())
        assert files
        for path in files:
            header, *lines = path.read_text().splitlines()
            _, ambient, _, order = header.split()
            for text in lines:
                assert_parses_like_reference(text, int(ambient), int(order), valid=True)

    def test_every_catalog_entry_round_trips_within_the_header_bounds(self):
        for entry in catalog():
            assert entry.ambient <= MAX_AMBIENT and entry.field_order <= MAX_FIELD_ORDER
            arr = build_named(entry.name)
            assert parse_arrangement_text(arrangement_to_text(arr)) == arr

    def test_random_expressions(self):
        rng = random.Random(2020)
        kinds = {"form": 0, "error": 0, "non-monic": 0, "alias": 0}
        for k in range(1500):
            order = (1, 3, 4, 5, 12)[k % 5]
            ambient = rng.randint(1, 6)
            text = random_expression(rng, ambient, order)
            new = assert_parses_like_reference(text, ambient, order)
            if isinstance(new, str):
                kinds["error"] += 1
                continue
            kinds["form"] += 1
            kinds["alias"] += not {"a", "b", "c", "d"}.isdisjoint(_tokenize(text))
            lead = next(c for c in reference_coefficients(text, ambient, order)
                        if not c.is_zero())
            kinds["non-monic"] += lead != 1
        assert kinds["form"] > 500 and kinds["error"] > 100, kinds
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("text, message", [
        ("(a + 1) - 1", "affine expression (constant 1 plus variables) in '(a + 1) - 1'"),
        ("(a+1)*0", "affine expression (constant 1 plus variables) in '(a+1)*0'"),
        ("z*(a + 1)", "affine expression (constant 1 plus variables) in 'z*(a + 1)'"),
        ("a - 2", "affine expression (constant 2 plus variables) in 'a - 2'"),
        ("a + (1 - 1)", None),
        ("3 - 3 + a", None),
        ("a*0 + b", None),
        ("a - a + b", None),
        ("(a - a)*b", "product of two variable expressions in '(a - a)*b'"),
        ("a^0", "cannot raise a variable expression to a power in 'a^0'"),
        ("a/(b - b)", "division by a variable expression in 'a/(b - b)'"),
        ("a/(1 - 1)", "division by zero in 'a/(1 - 1)'"),
        ("3 - 3", "expected a linear form, found the scalar 0 in '3 - 3'"),
        ("a*0 - b*0", "the expression 'a*0 - b*0' is the zero form"),
    ])
    def test_edge_expressions(self, text, message):
        # a nonzero constant beside variables is refused where it first
        # appears and never cancels later; a zero constant is dropped
        new = assert_parses_like_reference(text, 3, 3, valid=message is None)
        if message is not None:
            assert new == f"ParseError: {message}"

    def test_random_scalars(self):
        rng = random.Random(2021)
        for k in range(800):
            order = (1, 3, 4, 5, 12)[k % 5]
            text = random_scalar(rng, order, 4)
            assert outcome(parse_scalar, text, order) == \
                outcome(reference_parse_scalar, text, order), text


# characters the fuzz draws from: ASCII names, digits and operators; the
# whitespace that ``str.isspace`` knows beyond the space, U+001C-U+001F
# (information separators) included; ``_``; digits that ``str.isdigit``
# accepts and ``int`` refuses (superscripts, circled) or reads (Arabic-Indic,
# fullwidth); non-ASCII letters; a numeric that is no digit (one half); and
# characters that no token starts with
FUZZ_PIECES = (
    ["a", "b", "c", "d", "x1", "x2", "x3", "x12", "z", "i", "e", "ab", "a_1", "x1_"]
    + ["0", "1", "2", "3", "10", "007"]
    + list("+-*/^(),") * 3
    + [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\u00a0", "\u2003"]
    + ["_", "__", "²", "³", "①", "٣", "\uff17", "é", "ß", "Ω", "xé", "aⅡ", "½",
       "!", ".", "$", "'", "~", "\u200b"]
)

# every message the descent and the tokenizer give, in the words that
# start it or a phrase it holds
FUZZ_MESSAGES = (
    "unexpected character", "unexpected end of expression", "expected ')' but found",
    "trailing input", "unknown symbol", "exponent must be a nonnegative integer",
    "cannot raise a variable expression to a power", "product of two variable expressions",
    "division by a variable expression", "division by zero", "affine expression",
    "expected a linear form, found the scalar", "is the zero form",
    "'z' is undefined over the rationals", "'i' requires the field order",
    "parentheses nested deeper than", "is not a readable integer",
)

# inputs that random draws seldom or never make, for the messages above, in
# two variables over field order 1 (the rationals)
FUZZ_EXTRA = ("(" * 101 + "a" + ")" * 101, "(" * 100 + "a" + ")" * 100, "a^0", "1/(2-2)*a",
              "a/(b)", "a*b", "2" * 4301 + "*a", "a + 2^", "a + 2^b", "(a", "(a b", "z*a", "i*a",
              "a - a", "3", "a + 1", "a ²")


def _fuzz_text(rng) -> str:
    return "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(1, 12)))


def _message_kind(message: str) -> str:
    kinds = [kind for kind in FUZZ_MESSAGES if kind in message]
    assert kinds, message
    return kinds[0]


def reference_arrangement_outcome(text: str, ambient: int, order: int):
    """What ``parse_arrangement_text`` of a file with a valid header should
    give, line by line from the reference parser: the rows of the
    arrangement, or the first failing line's message."""
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip())][1:]
    forms = []
    for lineno, line in lines:
        got = outcome(reference_parse_form, line, ambient, order)
        if isinstance(got, str):
            return got.replace("ParseError: ", f"ParseError: <string>:{lineno}: ", 1)
        forms.append(got)
    return [h.row for h in make_arrangement(ambient, order, forms).hyperplanes]


class TestFuzzAgainstReference:
    """Random text, Unicode included, through the library's parser and the
    reference (``tests/parse_reference.py``): the same form or the same
    message, and every message made."""

    def test_forms(self):
        rng = random.Random(4041)
        seen = set()
        forms = 0
        fields = ((1, 1), (2, 3), (3, 4), (4, 5), (5, 12), (12, 4))
        cases = [(_fuzz_text(rng), *fields[k % 6]) for k in range(4000)]
        # random forms with each space made other whitespace, or none
        spaces = [" ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\u00a0", "\u2003", ""]
        for k in range(1000):
            ambient, order = fields[k % 6]
            text = random_expression(rng, ambient, order)
            cases.append(("".join(part + rng.choice(spaces) for part in text.split(" ")),
                          ambient, order))
        for text, ambient, order in cases + [(text, 2, 1) for text in FUZZ_EXTRA]:
            new = assert_parses_like_reference(text, ambient, order)
            if isinstance(new, str):
                seen.add(_message_kind(new))
            else:
                forms += 1
        assert seen == set(FUZZ_MESSAGES)
        assert forms > 400

    def test_arrangement_files(self):
        rng = random.Random(4042)
        lines = ["a + z*b", "a - b", "(1 + z)*c", "b", "x3 + x1", "2*a - 4*z*b"]
        errors = 0
        for _ in range(400):
            body = []
            for _ in range(rng.randint(1, 6)):
                line = rng.choice(lines) if rng.random() < 0.7 else _fuzz_text(rng)
                if rng.random() < 0.2:
                    line += " # " + _fuzz_text(rng)
                body.append(line)
            text = "ambient 3 field 3\n" + "\n".join(body) + "\n"
            new = outcome(parse_arrangement_text, text)
            if not isinstance(new, str):
                new = [h.row for h in new.hyperplanes]
            else:
                errors += 1
            assert new == reference_arrangement_outcome(text, 3, 3), repr(text)
        assert 50 < errors < 350


class TestBounds:
    @pytest.mark.parametrize("form, message", [
        ("x1 + 10^5000*x2", "exponent 5000 is above"),
        ("x1 + 2^20000*x2", "exponent 20000 is above"),
        ("x1 + 2^100000000000*x2", "exponent 100000000000 is above"),
        ("(10^1000)^5*x1 + x2", "a power has an integer of more than"),
        ("(10^900*10^900*10^900*10^900*10^900)^2*x1", "a power's base has an integer"),
        ("10^900*10^900*10^900*10^900*10^900*x1 + x2", "a coefficient of"),
        ("x1 + 10^900*10^900*10^900*10^900*10^900*x2", "a coefficient of"),
    ])
    def test_oversized_values(self, form, message):
        with pytest.raises(ParseError, match=message):
            parse_arrangement_text(f"ambient 2 field 1\n{form}\n")

    def test_values_within_the_bounds(self):
        arr = parse_arrangement_text(f"ambient 2 field 3\nx1 + 2^{MAX_EXPONENT}*x2\n"
                                     f"x1 + (1+z)^{MAX_EXPONENT}*x2\n")
        assert len(arr) == 2
        big = parse_form(f"x1 + 1{'0' * (MAX_DIGITS - 1)}*x2", 2, 1)
        assert str(big.row[0][1]) == "1" + "0" * (MAX_DIGITS - 1)
        assert parse_scalar(f"z^{MAX_EXPONENT}", 5) == root_of_unity(5, MAX_EXPONENT)

    @pytest.mark.parametrize("header, message", [
        ("ambient 2 field 99999999999", "field 99999999999 is above"),
        ("ambient 100000000 field 1", "ambient 100000000 is above"),
        (f"ambient {MAX_AMBIENT + 1} field 1", f"ambient {MAX_AMBIENT + 1} is above"),
        (f"ambient 2 field {MAX_FIELD_ORDER + 1}", f"field {MAX_FIELD_ORDER + 1} is above"),
    ])
    def test_header_bounds(self, header, message):
        with pytest.raises(ParseError, match=f"<string>:1: {message}"):
            parse_arrangement_text(f"{header}\nx1\n")

    # forms x ambient x phi(997) = 996 integers, over MAX_PACKED
    OVERSIZED = {"three-forms": "ambient 1000 field 997\nx1\nx2\nx1+x2\n",
                 "forty-forms": "ambient 1000 field 997\n" + "".join(
                     f"x{k}\n" for k in range(1, 41))}

    @pytest.mark.parametrize("name", sorted(OVERSIZED))
    def test_packed_size_refused_before_any_row(self, name):
        text = self.OVERSIZED[name]
        size = (len(text.splitlines()) - 1) * 1000 * 996
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"<string>:1: .* pack {size} integers, "
                                                 f"above {MAX_PACKED}"):
                parse_arrangement_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_packed_size_just_under_the_bound(self):
        arr = parse_arrangement_text("ambient 1000 field 997\nx1\n")
        assert len(arr.hyperplanes[0].row[0]) == 996_000 <= MAX_PACKED
        # the bound counts form lines, repeated ones too
        at_bound = "ambient 1000 field 1\n" + "x1\n" * (MAX_PACKED // 1000)
        assert len(parse_arrangement_text(at_bound)) == 1
        with pytest.raises(ParseError, match="1001 forms in 1000 variables"):
            parse_arrangement_text(at_bound + "x2\n")

    def test_catalog_packed_size_at_the_bound(self):
        # A(n) = G(1,1,n+1): n(n+1)/2 forms in n+1 variables over the rationals
        assert len(build_named("A(125)")) == 7875  # 992,250 integers
        with pytest.raises(ParseError, match="8001 forms in 127 variables over field order 1 "
                                             f"pack 1016127 integers, above {MAX_PACKED}"):
            build_named("A(126)")

    def test_catalog_field_order_at_the_bound(self):
        assert build_named(f"G({MAX_FIELD_ORDER},1,1)").order == MAX_FIELD_ORDER
        with pytest.raises(ParseError, match=f"field {MAX_FIELD_ORDER + 1} is above"):
            build_named(f"G({MAX_FIELD_ORDER + 1},1,1)")

    def test_header_at_the_bounds(self):
        arr = parse_arrangement_text(f"ambient {MAX_AMBIENT} field 1\nx{MAX_AMBIENT}\n")
        assert arr.ambient == MAX_AMBIENT
        arr = parse_arrangement_text(f"ambient 2 field {MAX_FIELD_ORDER}\nx1 - z*x2\n")
        assert arr.order == MAX_FIELD_ORDER
