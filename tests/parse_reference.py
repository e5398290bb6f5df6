"""The form parser as it was before it ran on packed rows: the reference
``tests/test_parse.py`` compares the library's parser against.

It evaluates with ``CyclotomicNumber`` arithmetic over one dense list of
coefficients per variable, folds the aliases ``a b c d`` into ``x1..x4`` at
the end and normalizes through ``conftest.form_from_coefficients``.  The
tokenizer and the digit check are the library's; only the evaluation is
kept here.
"""

from __future__ import annotations

from hyparr.cyclo import CyclotomicNumber, root_of_unity
from hyparr.errors import ParseError
from hyparr.linalg import LinearForm
from hyparr.parse import MAX_NESTING, _integer, _tokenize
from tests.conftest import form_from_coefficients


class _Value:
    __slots__ = ("scalar", "coeffs")

    def __init__(self, scalar, coeffs=None):
        self.scalar = scalar
        self.coeffs = coeffs


class _Parser:
    def __init__(self, text: str, order: int, variables: list[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.order = order
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r} but found {got!r} in {self.text!r}")

    def _zero(self):
        return CyclotomicNumber.zero(self.order)

    def _combine(self, a, b, op):
        if a.coeffs is None and b.coeffs is None:
            return _Value(op(a.scalar, b.scalar))
        ac, bc = a.coeffs, b.coeffs
        n = len(self.variables)
        if ac is None:
            if not a.scalar.is_zero():
                raise ParseError(f"affine expression (constant {a.scalar} plus "
                                 f"variables) in {self.text!r}")
            ac = [self._zero()] * n
        if bc is None:
            if not b.scalar.is_zero():
                raise ParseError(f"affine expression (constant {b.scalar} plus "
                                 f"variables) in {self.text!r}")
            bc = [self._zero()] * n
        return _Value(None, [op(x, y) for x, y in zip(ac, bc)])

    def parse_expr(self):
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = self._combine(value, rhs,
                                  (lambda x, y: x + y) if op == "+" else (lambda x, y: x - y))
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op == "*":
                if value.coeffs is not None and rhs.coeffs is not None:
                    raise ParseError(f"product of two variable expressions in {self.text!r}")
                if rhs.coeffs is not None:
                    value, rhs = rhs, value
                if value.coeffs is None:
                    value = _Value(value.scalar * rhs.scalar)
                else:
                    value = _Value(None, [c * rhs.scalar for c in value.coeffs])
            else:
                if rhs.coeffs is not None:
                    raise ParseError(f"division by a variable expression in {self.text!r}")
                if rhs.scalar.is_zero():
                    raise ParseError(f"division by zero in {self.text!r}")
                inv = rhs.scalar.inverse()
                if value.coeffs is None:
                    value = _Value(value.scalar * inv)
                else:
                    value = _Value(None, [c * inv for c in value.coeffs])
        return value

    def parse_factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer in {self.text!r}")
            if value.coeffs is not None:
                raise ParseError(f"cannot raise a variable expression to a power "
                                 f"in {self.text!r}")
            value = _Value(value.scalar ** _integer(exp_tok))
        if sign < 0:
            if value.coeffs is None:
                value = _Value(-value.scalar)
            else:
                value = _Value(None, [-c for c in value.coeffs])
        return value

    def parse_atom(self):
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels")
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value
        if tok.isdigit():
            return _Value(CyclotomicNumber.from_rational(_integer(tok), self.order))
        if tok == "z":
            if self.order == 1:
                raise ParseError("'z' is undefined over the rationals (field order 1)")
            return _Value(root_of_unity(self.order, 1))
        if tok == "i":
            if self.order % 4:
                raise ParseError(f"'i' requires the field order to be a multiple of 4 "
                                 f"(got {self.order})")
            return _Value(root_of_unity(self.order, self.order // 4))
        if tok in self.variables:
            coeffs = [CyclotomicNumber.zero(self.order)] * len(self.variables)
            coeffs[self.variables.index(tok)] = CyclotomicNumber.one(self.order)
            return _Value(None, coeffs)
        raise ParseError(f"unknown symbol {tok!r} in {self.text!r}")

    def finish(self, value):
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        return value


def _variables_for(ambient: int) -> list[str]:
    names = [f"x{j + 1}" for j in range(ambient)]
    if ambient <= 4:
        names += ["a", "b", "c", "d"][:ambient]
    return names


def _fold_aliases(coeffs, ambient: int):
    if len(coeffs) == ambient:
        return coeffs
    out = coeffs[:ambient]
    for j, extra in enumerate(coeffs[ambient:]):
        out[j] = out[j] + extra
    return out


def reference_parse_scalar(text: str, order: int) -> CyclotomicNumber:
    p = _Parser(text, order, [])
    value = p.finish(p.parse_expr())
    if value.coeffs is not None:
        raise ParseError(f"expected a scalar, found variables in {text!r}")
    return value.scalar


def reference_coefficients(text: str, ambient: int, order: int) -> list[CyclotomicNumber]:
    """The coefficients of the form, before scaling to leading coefficient 1."""
    p = _Parser(text, order, _variables_for(ambient))
    value = p.finish(p.parse_expr())
    if value.coeffs is None:
        raise ParseError(f"expected a linear form, found the scalar "
                         f"{value.scalar} in {text!r}")
    coeffs = _fold_aliases(value.coeffs, ambient)
    if all(c.is_zero() for c in coeffs):
        raise ParseError(f"the expression {text!r} is the zero form")
    return coeffs


def reference_parse_form(text: str, ambient: int, order: int) -> LinearForm:
    return form_from_coefficients(reference_coefficients(text, ambient, order), order)
