"""Text syntax for field elements, linear forms, and arrangement files.

Scalars: rational literals, ``z`` for the primitive root of the ambient field
order, ``i`` as sugar for the order-4 root (valid only when 4 divides the
field order), ``^`` powers, and ``+ - * /``.  Forms extend scalars with the
variables ``x1..xl`` (aliases ``a b c d`` when l <= 4); products of two
variable-carrying expressions and division by them are rejected, so every
accepted expression is genuinely linear.  Parentheses nest at most
``MAX_NESTING`` levels deep; deeper input is a ``ParseError``.

Arrangement files carry a header line ``ambient <l> field <n>`` followed by
one linear form per line; ``#`` starts a comment.  The header allows at most
``MAX_AMBIENT`` variables.  ``check_packed_size`` allows field order at most
``MAX_FIELD_ORDER`` and packed rows of at most ``MAX_PACKED`` integers in
all, checked from the header and the count of form lines before the field
or any row is made; the catalog builders and ``product(...)`` specs are
checked by it the same way.

Expressions are evaluated on the kernel's packed elements, ``(nums, den)``
pairs, with ``_kernel.elem_add``, ``elem_mul``, ``elem_inv`` and friends.
Every value is one sparse row, a map from column to element, with the
constant in the reserved column ``_CONST``: a scalar is a row of the
constant alone, a form a row of variables alone, and a nonzero constant
beside variables is refused where the two first meet.  Rows on disjoint
columns merge by one dict union, and a variable's coefficient is the one
shared unit element, which a factor replaces with no multiplication.  The
descent reads its tokens by index.  A form's row is packed once at the
end, and scaled to leading coefficient 1 (``_kernel.monic``) unless its
leading coefficient is already the unit over denominator 1.
Every integer must stay printable: a literal longer than ``MAX_DIGITS``
digits, an exponent above ``MAX_EXPONENT``, and a power or a coefficient of
the result with an integer past ``MAX_DIGITS`` digits are each a
``ParseError``; the size of a power's base is checked before the power is
computed.

>>> parse_form("2*a - 4*z*b", 2, 3).row
((1, 0, 0, -2), 1)
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, log2

from . import _kernel
from .arrangement import Arrangement, make_arrangement
from .cyclo import CyclotomicNumber, elem_str, field_context, root_elem
from .errors import ParseError
from .linalg import LinearForm

_TOKEN_CHARS = set("+-*/^(),")
MAX_NESTING = 100  # parenthesis levels: each costs four frames of the descent
MAX_AMBIENT = 1000  # header bounds: far above any reflection arrangement, and
MAX_FIELD_ORDER = 1000  # small enough that a row and its field stay cheap
MAX_PACKED = 1_000_000  # integers in all packed rows; G31 packs 480
MAX_EXPONENT = 1000  # with a printable base, a power stays within 1000 times its size
MAX_DIGITS = 4300  # Python's default int-string limit: longer integers do not print
_MAX_BITS = int(MAX_DIGITS * log2(10))  # an integer of at most this many bits prints


def _integer(tok: str) -> int:
    """The value of a digit token.  A string longer than ``MAX_DIGITS`` and
    non-ASCII digits such as superscripts, which ``int`` refuses, are a
    ``ParseError``."""
    if len(tok) <= MAX_DIGITS:
        try:
            return int(tok)
        except ValueError:
            pass
    raise ParseError(f"integer literal {tok[:20]!r}"
                     f"{'...' if len(tok) > 20 else ''} ({len(tok)} digits) "
                     "is not a readable integer")


def _fits(nums, den: int) -> bool:
    """Whether every integer of an element or row has at most ``MAX_DIGITS``
    digits, so that it prints."""
    return max(max(nums, default=0), -min(nums, default=0), den).bit_length() <= _MAX_BITS


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``: the characters of ``+-*/^(),``, runs of digits
    (``str.isdigit``), and names, a letter followed by letters, digits and
    ``_``; whitespace (``str.isspace``) separates them.  Any other character
    is a ``ParseError``."""
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


_CONST = -1  # the column of a row's constant


@lru_cache(maxsize=None)
def _one(d: int):
    """The unit element of degree ``d``, one shared tuple: a variable's
    coefficient, which ``_Parser._scale`` recognizes by identity."""
    return (1,) + (0,) * (d - 1), 1


class _Parser:
    """The recursive descent over the tokens of one expression.  The tokens
    end with None, so each method reads the next one by index, and the one
    that takes a token refuses None as the end of the expression."""

    def __init__(self, text: str, order: int, variables: dict[str, int]):
        self.text = text
        self.tokens = _tokenize(text)
        self.tokens.append(None)
        self.pos = 0
        self.depth = 0
        self.order = order
        ctx = field_context(order)
        self.d = ctx.degree
        self.red = ctx.red
        self.one = _one(ctx.degree)
        self.variables = variables

    def take(self):
        tok = self.tokens[self.pos]
        if tok is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r} but found {got!r} in {self.text!r}")

    def _combine(self, a: dict, b: dict, subtract: bool) -> dict:
        if a.keys().isdisjoint(b):
            out = a | ({col: _kernel.elem_neg(e) for col, e in b.items()} if subtract else b)
        else:
            op = _kernel.elem_sub if subtract else _kernel.elem_add
            out = dict(a)
            for col, e in b.items():
                if col in out:
                    out[col] = op(out[col], e)
                else:
                    out[col] = _kernel.elem_neg(e) if subtract else e
        if len(out) > 1 and _CONST in out:  # one of a and b is a scalar
            c = a.get(_CONST) or b[_CONST]
            if any(c[0]):
                raise ParseError(f"affine expression (constant {elem_str(*c)} "
                                 f"plus variables) in {self.text!r}")
            del out[_CONST]
        return out

    def _scale(self, v: dict, s) -> dict:
        """``v`` times the element ``s``; a unit factor on either side is
        not multiplied."""
        one = self.one
        if s is one:
            return v
        d, red = self.d, self.red
        return {col: s if e is one else _kernel.elem_mul(s, e, d, red)
                for col, e in v.items()}

    def _power(self, a, k: int):
        if k > MAX_EXPONENT:
            raise ParseError(f"exponent {k} is above {MAX_EXPONENT} in {self.text!r}")
        if not _fits(*a):
            raise ParseError(f"a power's base has an integer of more than "
                             f"{MAX_DIGITS} digits in {self.text!r}")
        d, red = self.d, self.red
        out = self.one
        while k:
            if k & 1:
                out = _kernel.elem_mul(out, a, d, red)
            k >>= 1
            if k:
                a = _kernel.elem_mul(a, a, d, red)
        if not _fits(*out):
            raise ParseError(f"a power has an integer of more than {MAX_DIGITS} "
                             f"digits in {self.text!r}")
        return out

    def parse_expr(self) -> dict:
        value = self.parse_term()
        tokens = self.tokens
        while (op := tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            value = self._combine(value, self.parse_term(), op == "-")
        return value

    def parse_term(self) -> dict:
        value = self.parse_factor()
        tokens = self.tokens
        while (op := tokens[self.pos]) in ("*", "/"):
            self.pos += 1
            rhs = self.parse_factor()
            if op == "*":
                if _CONST not in rhs:
                    if _CONST not in value:
                        raise ParseError(f"product of two variable expressions in {self.text!r}")
                    value, rhs = rhs, value
                value = self._scale(value, rhs[_CONST])
            else:
                if _CONST not in rhs:
                    raise ParseError(f"division by a variable expression in {self.text!r}")
                if not any(rhs[_CONST][0]):
                    raise ParseError(f"division by zero in {self.text!r}")
                value = self._scale(value, _kernel.elem_inv(rhs[_CONST], self.d, self.red))
        return value

    def parse_factor(self) -> dict:
        tokens = self.tokens
        sign = 1
        while (tok := tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            if tok == "-":
                sign = -sign
        value = self.parse_atom()
        if tokens[self.pos] == "^":
            self.pos += 1
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer in {self.text!r}")
            if _CONST not in value:
                raise ParseError(f"cannot raise a variable expression to a power "
                                 f"in {self.text!r}")
            value = {_CONST: self._power(value[_CONST], _integer(exp_tok))}
        if sign < 0:
            value = {col: _kernel.elem_neg(e) for col, e in value.items()}
        return value

    def parse_atom(self) -> dict:
        tok = self.take()
        col = self.variables.get(tok)
        if col is not None:
            return {col: self.one}
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels")
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value
        if tok.isdigit():
            return {_CONST: ((_integer(tok),) + self.one[0][1:], 1)}
        if tok == "z":
            if self.order == 1:
                raise ParseError("'z' is undefined over the rationals (field order 1)")
            return {_CONST: root_elem(self.order, 1)}
        if tok == "i":
            if self.order % 4:
                raise ParseError(f"'i' requires the field order to be a multiple of 4 "
                                 f"(got {self.order})")
            return {_CONST: root_elem(self.order, self.order // 4)}
        raise ParseError(f"unknown symbol {tok!r} in {self.text!r}")

    def finish(self, value: dict) -> dict:
        tok = self.tokens[self.pos]
        if tok is not None:
            raise ParseError(f"trailing input {tok!r} in {self.text!r}")
        return value


@lru_cache(maxsize=64)
def _variables_for(ambient: int) -> dict[str, int]:
    """Variable name -> column: x1..xl, and a..d for the same columns when
    l <= 4.  Cached, since every form of a transcription reads it: the
    parser only looks names up in the one table per dimension."""
    names = {f"x{j + 1}": j for j in range(ambient)}
    if ambient <= 4:
        names.update(zip("abcd", range(ambient)))
    return names


def parse_scalar(text: str, order: int) -> CyclotomicNumber:
    """Parse a field element, e.g. ``1 - 2*(z+1)`` over field order 5.  With
    no variables every name is an unknown symbol, so the value is a scalar."""
    p = _Parser(text, order, {})
    nums, den = p.finish(p.parse_expr())[_CONST]
    if not _fits(nums, den):
        raise ParseError(f"the value of {text!r} has an integer of more than "
                         f"{MAX_DIGITS} digits")
    return CyclotomicNumber(order, nums, den)


def _parse_row(text: str, ambient: int, order: int, variables: dict[str, int]) -> LinearForm:
    p = _Parser(text, order, variables)
    value = p.finish(p.parse_expr())
    if _CONST in value:
        raise ParseError(f"expected a linear form, found the scalar "
                         f"{elem_str(*value[_CONST])} in {text!r}")
    d = p.d
    den = lcm(*(e[1] for e in value.values()))
    nums = [0] * (ambient * d)
    for col, (en, ed) in value.items():
        s = den // ed
        nums[col * d:(col + 1) * d] = [v * s for v in en] if s > 1 else en
    if den == 1 and value[min(value)] is p.one:
        row = tuple(nums), 1  # its leading coefficient is 1 already
    else:
        row = _kernel.monic(nums, ambient, d, p.red)
        if row is None:
            raise ParseError(f"the expression {text!r} is the zero form")
    if not _fits(*row):
        raise ParseError(f"a coefficient of {text!r} has an integer of more than "
                         f"{MAX_DIGITS} digits")
    return LinearForm(ambient, order, row)


def parse_form(text: str, ambient: int, order: int) -> LinearForm:
    """Parse a linear form such as ``a - 2*(z^2+z^3+1)*b`` or ``x1 + x2``,
    scaled to leading coefficient 1."""
    return _parse_row(text, ambient, order, _variables_for(ambient))


def check_packed_size(forms: int, ambient: int, order: int) -> None:
    """Refuse, as a ``ParseError``, a field order above ``MAX_FIELD_ORDER``,
    before its field is made, and ``forms`` packed rows of ``ambient``
    columns over field order ``order`` that would hold more than
    ``MAX_PACKED`` integers in all: each column of a row is phi(order)
    integers, and every one of them is printed."""
    if order > MAX_FIELD_ORDER:
        raise ParseError(f"field {order} is above {MAX_FIELD_ORDER}")
    size = forms * ambient * field_context(order).degree
    if size > MAX_PACKED:
        raise ParseError(f"{forms} forms in {ambient} variables over field order {order} "
                         f"pack {size} integers, above {MAX_PACKED}")


def parse_arrangement_text(text: str, source: str = "<string>") -> Arrangement:
    """Parse the arrangement file format."""
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ParseError(f"{source}: missing 'ambient <l> field <n>' header")
    lineno, header = lines[0]
    parts = header.split()
    if (len(parts) != 4 or parts[0] != "ambient" or parts[2] != "field"
            or not parts[1].isdigit() or not parts[3].isdigit()):
        raise ParseError(f"{source}:{lineno}: expected header "
                         f"'ambient <l> field <n>', found {header!r}")
    try:
        ambient = _integer(parts[1])
        if ambient > MAX_AMBIENT:
            raise ParseError(f"ambient {parts[1]} is above {MAX_AMBIENT}")
        order = _integer(parts[3])
        if order < 1:
            raise ParseError("field order must be >= 1")
        check_packed_size(len(lines) - 1, ambient, order)
    except ParseError as exc:
        raise ParseError(f"{source}:{lineno}: {exc}") from None
    variables = _variables_for(ambient)
    forms = []
    for lineno, line in lines[1:]:
        try:
            forms.append(_parse_row(line, ambient, order, variables))
        except ParseError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    return make_arrangement(ambient, order, forms)


def parse_arrangement_file(path: str) -> Arrangement:
    """The arrangement in a UTF-8 file; a byte-order mark at its start is
    skipped, as the ``utf-8-sig`` codec would, without loading that codec."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:  # missing, or not UTF-8
        raise ParseError(f"cannot read arrangement file {path}: {exc}") from None
    return parse_arrangement_text(text, source=path)
