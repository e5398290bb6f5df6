"""Text syntax for field elements, linear forms, and arrangement files.

Scalars: rational literals, ``z`` for the primitive root of the ambient field
order, ``i`` as sugar for the order-4 root (valid only when 4 divides the
field order), ``^`` powers, and ``+ - * /``.  Forms extend scalars with the
variables ``x1..xl`` (aliases ``a b c d`` when l <= 4); products of two
variable-carrying expressions and division by them are rejected, so every
accepted expression is genuinely linear.  Parentheses nest at most
``MAX_NESTING`` levels deep; deeper input is a ``ParseError``.

Arrangement files carry a header line ``ambient <l> field <n>`` followed by
one linear form per line; ``#`` starts a comment.
"""

from __future__ import annotations

from .arrangement import Arrangement, make_arrangement
from .cyclo import CyclotomicNumber, root_of_unity
from .errors import ParseError
from .linalg import LinearForm

_TOKEN_CHARS = set("+-*/^(),")
MAX_NESTING = 100  # parenthesis levels: each costs four frames of the descent


def _integer(tok: str) -> int:
    """The value of a digit token.  ``int`` refuses a string longer than
    Python's digit limit (4,300 by default) and non-ASCII digits such as
    superscripts; both are a ``ParseError``."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"integer literal {tok[:20]!r}"
                         f"{'...' if len(tok) > 20 else ''} ({len(tok)} digits) "
                         "is not a readable integer") from None


def _tokenize(text: str) -> list[str]:
    tokens = []
    k = 0
    while k < len(text):
        c = text[k]
        if c.isspace():
            k += 1
        elif c in _TOKEN_CHARS:
            tokens.append(c)
            k += 1
        elif c.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[k:j])
            k = j
        elif c.isalpha():
            j = k
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[k:j])
            k = j
        else:
            raise ParseError(f"unexpected character {c!r} in {text!r}")
    return tokens


class _Value:
    """Either a scalar or a linear combination of variables (never both mixed
    with a constant part: affine expressions are rejected on the way out)."""

    __slots__ = ("scalar", "coeffs")

    def __init__(self, scalar: CyclotomicNumber | None, coeffs=None):
        self.scalar = scalar
        self.coeffs = coeffs  # list[CyclotomicNumber] | None


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

    def _combine(self, a: _Value, b: _Value, op) -> _Value:
        if a.coeffs is None and b.coeffs is None:
            return _Value(op(a.scalar, b.scalar))
        ac = a.coeffs if a.coeffs is not None else None
        bc = b.coeffs if b.coeffs is not None else None
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

    def parse_expr(self) -> _Value:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = self._combine(value, rhs,
                                  (lambda x, y: x + y) if op == "+" else (lambda x, y: x - y))
        return value

    def parse_term(self) -> _Value:
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

    def parse_factor(self) -> _Value:
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

    def parse_atom(self) -> _Value:
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

    def finish(self, value: _Value) -> _Value:
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        return value


def _variables_for(ambient: int) -> list[str]:
    names = [f"x{j + 1}" for j in range(ambient)]
    if ambient <= 4:
        names += ["a", "b", "c", "d"][:ambient]
    return names


def _fold_aliases(coeffs, ambient: int):
    # x1..xl and a..d address the same slots
    if len(coeffs) == ambient:
        return coeffs
    out = coeffs[:ambient]
    for j, extra in enumerate(coeffs[ambient:]):
        out[j] = out[j] + extra
    return out


def parse_scalar(text: str, order: int) -> CyclotomicNumber:
    """Parse a field element, e.g. ``1 - 2*(z+1)`` over field order 5."""
    p = _Parser(text, order, [])
    value = p.finish(p.parse_expr())
    if value.coeffs is not None:
        raise ParseError(f"expected a scalar, found variables in {text!r}")
    return value.scalar


def parse_form(text: str, ambient: int, order: int) -> LinearForm:
    """Parse a linear form such as ``a - 2*(z^2+z^3+1)*b`` or ``x1 + x2``."""
    p = _Parser(text, order, _variables_for(ambient))
    value = p.finish(p.parse_expr())
    if value.coeffs is None:
        raise ParseError(f"expected a linear form, found the scalar "
                         f"{value.scalar} in {text!r}")
    coeffs = _fold_aliases(value.coeffs, ambient)
    if all(c.is_zero() for c in coeffs):
        raise ParseError(f"the expression {text!r} is the zero form")
    return LinearForm.from_coefficients(coeffs, order)


def parse_arrangement_text(text: str, source: str = "<string>") -> Arrangement:
    """Parse the arrangement file format."""
    header = None
    forms = []
    ambient = order = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if (len(parts) != 4 or parts[0] != "ambient" or parts[2] != "field"
                    or not parts[1].isdigit() or not parts[3].isdigit()):
                raise ParseError(f"{source}:{lineno}: expected header "
                                 f"'ambient <l> field <n>', found {line!r}")
            try:
                ambient, order = _integer(parts[1]), _integer(parts[3])
            except ParseError as exc:
                raise ParseError(f"{source}:{lineno}: {exc}") from None
            if order < 1:
                raise ParseError(f"{source}:{lineno}: field order must be >= 1")
            header = line
            continue
        try:
            forms.append(parse_form(line, ambient, order))
        except ParseError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    if header is None:
        raise ParseError(f"{source}: missing 'ambient <l> field <n>' header")
    return make_arrangement(ambient, order, forms)


def parse_arrangement_file(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read arrangement file {path}: {exc}") from None
    return parse_arrangement_text(text, source=path)
