"""The report layer renders forms straight from their packed rows.

``form_to_str`` and ``form_payload`` read each row's integer coordinate
slices, and ``Subspace.defining_forms`` hands out the canonical RREF rows as
they are.  The references below decode every coefficient into a
``CyclotomicNumber`` first, as the renderer once did; the row renderer must
give the same text and coefficient strings on every input.
"""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyparr import _kernel
from hyparr.analysis import is_supersolvable, modular_flats_of_rank
from hyparr.arrangement import build_lattice, essentialize, lattice_of, product
from hyparr.cyclo import field_context
from hyparr.linalg import LinearForm, form_to_str, restrict_subspace, variable_names
from hyparr.reflection import build_named, catalog
from hyparr.report import (arrangement_payload, certificate_payload, flat_payload,
                           form_payload, lattice_payload, render_human, report_json,
                           subspace_payload, verdict_payload)
from tests.conftest import leading_index

ORDERS = (1, 3, 4, 5, 12)
RANDOM_ROWS = 600

# the arrangement pairs of the ``products`` benchmark workload
PRODUCT_PAIRS = (
    ("G(3,1,3)", "A(3)"), ("B3", "B3"), ("G(3,3,3)", "A(3)"),
    ("B2", "H3"), ("A2", "G(3,1,3)"), ("B2", "D4"),
)


def reference_elem_str(c) -> str:
    if c.is_zero():
        return "0"
    parts = []
    for k, v in enumerate(c.nums):
        if not v:
            continue
        q = Fraction(v, c.den)
        mag = abs(q)
        if k == 0:
            body = str(mag)
        else:
            unit = "z" if k == 1 else f"z^{k}"
            body = unit if mag == 1 else f"{mag}*{unit}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if q > 0 else f" - {body}")
    return "".join(parts)


def reference_form_to_str(form, names=None) -> str:
    names = names or variable_names(form.ambient)
    parts = []
    for j in range(form.ambient):
        c = form.coefficient(j)
        if c.is_zero():
            continue
        negative = False
        if not any(c.nums[1:]) and c.nums[0] < 0:
            negative = True
            c = -c
        text = reference_elem_str(c)
        if text == "1":
            body = names[j]
        elif " + " in text or " - " in text or text.startswith("-"):
            body = f"({text})*{names[j]}"
        else:
            body = f"{text}*{names[j]}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts) or "0"


def reference_rational_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def reference_form_payload(form) -> dict:
    coeffs = [[reference_rational_str(Fraction(v, c.den)) for v in c.nums]
              for c in form.coefficients()]
    return {"text": reference_form_to_str(form), "coeffs": coeffs}


def assert_renders_like_reference(form):
    assert form_payload(form) == reference_form_payload(form)
    assert str(form) == reference_form_to_str(form)
    names = [f"v{j}" for j in range(form.ambient)]
    assert form_to_str(form, names) == reference_form_to_str(form, names)


def random_row(rng, ambient, order, kinds):
    """A canonical packed row whose entries are zero, rational (often
    negative) or general, over a random common denominator."""
    d = field_context(order).degree
    nums = []
    for _ in range(ambient):
        kind = rng.choice(("zero", "rational", "general"))
        if kind == "zero":
            entry = [0] * d
        elif kind == "rational":
            entry = [rng.randint(-12, 12)] + [0] * (d - 1)
        else:
            entry = [rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(d)]
        if not any(entry):
            kinds["zero"] += 1
        elif not any(entry[1:]) and entry[0] < 0:
            kinds["negative rational"] += 1
        nums += entry
    return _kernel.elem_norm(nums, rng.randint(1, 40))


class TestRowRenderer:
    def test_catalog_hyperplanes(self, store):
        for entry in catalog():
            for h in store.arrangement(entry.name).hyperplanes:
                assert_renders_like_reference(h)

    @pytest.mark.parametrize("name", ["D4", "H3", "G25", "G31"])
    def test_lattice_defining_forms(self, store, name):
        for flat in store.lattice(name).flats():
            for f in flat.subspace.defining_forms():
                assert_renders_like_reference(f)

    def test_random_rows(self):
        rng = random.Random(1717)
        kinds = {"zero": 0, "negative rational": 0, "non-monic lead": 0}
        for k in range(RANDOM_ROWS):
            order = ORDERS[k % len(ORDERS)]
            ambient = rng.randint(1, 7)
            row = random_row(rng, ambient, order, kinds)
            form = LinearForm(ambient, order, row)
            if not form.is_zero() and form.coefficient(leading_index(form)) != 1:
                kinds["non-monic lead"] += 1
            assert_renders_like_reference(form)
        assert all(kinds.values()), kinds


def assert_rows_monic(sub):
    ctx = field_context(sub.order)
    for row in sub.rows:
        assert _kernel.monic(row[0], sub.ambient, ctx.degree, ctx.red) == row


class TestDefiningFormsAreMonic:
    """``defining_forms`` hands out RREF rows as they are, so every row the
    library hands it must already be its own ``_kernel.monic``, and so must
    its restriction to the center's pivot columns, which a certificate of a
    non-essential arrangement prints."""

    @staticmethod
    def assert_flats_monic(lattice):
        columns = lattice.arrangement.center().pivots
        for flat in lattice.flats():
            assert_rows_monic(flat.subspace)
            assert_rows_monic(restrict_subspace(flat.subspace, columns))

    def test_catalog_lattices(self, store):
        for entry in catalog():
            self.assert_flats_monic(store.lattice(entry.name))

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids="x".join)
    def test_product_lattices(self, pair):
        self.assert_flats_monic(build_lattice(product(build_named(pair[0]),
                                                      build_named(pair[1]))))

    def test_printed_witness_sums(self, store):
        verdicts = []
        for entry in catalog():
            ref = store.certificate(entry.name).refutation
            if ref is not None and ref.kind == "empty-rank":
                verdicts += ref.witnesses
        for name in ("D4", "H3", "G25", "G31"):
            verdicts += modular_flats_of_rank(store.lattice(name), 2)
        sums = [v.witness[1] for v in verdicts if v.witness is not None]
        assert len(sums) > 100
        for total in sums:
            assert_rows_monic(total)


def kernel_functions():
    return [name for name, obj in vars(_kernel).items()
            if callable(obj) and getattr(obj, "__module__", None) == _kernel.__name__]


def raiser(name):
    def fail(*args, **kwargs):
        raise RuntimeError(f"_kernel.{name} called while rendering")
    return fail


class TestNoArithmeticInReports:
    """With every kernel function raising, the payloads and both renderings
    are unchanged: the report layer reads rows and does no field arithmetic.
    ``arrangement_payload`` takes the rank from the lattice, so it is built
    under the patch too."""

    NAMES = ("D4", "H3", "G25", "G(3,1,3)")

    def test_kernel_patched_reports_are_unchanged(self, store, monkeypatch):
        cases = {}
        for name in self.NAMES:
            arr, lattice = store.arrangement(name), store.lattice(name)
            verdicts = modular_flats_of_rank(lattice, 2)
            cert = is_supersolvable(lattice)
            assert not cert.essentialized
            witnessed = list(verdicts)
            if cert.refutation is not None and cert.refutation.kind == "empty-rank":
                witnessed += cert.refutation.witnesses
            for v in witnessed:
                v.witness  # certified and summed once, before the patch
            cases[name] = (arr, lattice, verdicts, cert)

        def render():
            out = {}
            for name, (arr, lattice, verdicts, cert) in cases.items():
                report = {
                    "command": "modular",
                    "arrangement": arrangement_payload(arr, lattice.rank(), name),
                    "lattice": lattice_payload(lattice),
                    "modular": {"rank": 2, "flat_count": len(verdicts),
                                "modular_count": sum(v.modular for v in verdicts),
                                "verdicts": [verdict_payload(v) for v in verdicts]},
                    "supersolvable": certificate_payload(cert),
                }
                out[name] = {
                    "forms": [form_payload(h) for h in arr.hyperplanes],
                    "subspaces": [subspace_payload(f.subspace)
                                  for f in lattice.flats()],
                    "flats": [flat_payload(f) for f in lattice.flats()],
                    "json": report_json(report),
                    "human": render_human(report),
                }
            return out

        expected = render()
        names = kernel_functions()
        assert {"elem_norm", "monic", "rref", "rank"} <= set(names)
        for fn in names:
            monkeypatch.setattr(_kernel, fn, raiser(fn))
        with pytest.raises(RuntimeError, match="called while rendering"):
            store.arrangement("D4").rank()  # the patch is live
        assert render() == expected


class TestEssentialArrangement:
    def test_center_is_not_reduced_again(self, monkeypatch):
        # the essential arrangement of a non-essential certificate is read on
        # the pivots of the lattice's top, the center's RREF, so the payload
        # reduces no center of its own: on product(A2,G(3,1,3)) it reduces
        # 31 residues, where a second reduction of the center made 46
        import hyparr.arrangement
        import hyparr.linalg

        lattice = lattice_of(product(build_named("A2"), build_named("G(3,1,3)")))
        cert = is_supersolvable(lattice)
        expected = arrangement_payload(essentialize(lattice.arrangement), lattice.rank())
        calls = []
        real = hyparr.linalg.form_residue
        for module in (hyparr.arrangement, hyparr.linalg):
            monkeypatch.setattr(module, "form_residue",
                                lambda row, sub: calls.append(row) or real(row, sub))
        payload = certificate_payload(cert)
        assert cert.essentialized and payload["essential_arrangement"] == expected
        assert len(calls) == 31


# one call of every CLI command, between them every payload shape: a chain,
# both refutation kinds, an essentialized arrangement, Poincare exponents
# and their absence, irreducible factors, claims
CLI_CALLS = (
    ("build", "G29"), ("lattice", "G31"), ("modular", "H3", "--rank", "2"),
    ("modular", "D4", "--rank", "0"), ("supersolvable", "G(3,1,3)"),
    ("supersolvable", "D4"), ("supersolvable", "product(G(3,3,3),A(3))"),
    ("poincare", "product(B2,A(3))"), ("poincare", "G25"),
    ("decompose", "product(B2,A2)"), ("verify-paper", "D4"),
)


class TestJsonWriter:
    """``report_json`` writes the bytes of ``json.dumps(sort_keys=True,
    indent=2)`` without the pure-Python encoder."""

    @pytest.mark.parametrize("argv", CLI_CALLS, ids=" ".join)
    def test_every_command_payload(self, monkeypatch, capsys, argv):
        import hyparr.cli as cli

        seen = []

        def checked(report):
            text = report_json(report)
            assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
            seen.append(text)
            return text

        monkeypatch.setattr(cli, "report_json", checked)
        assert cli.main(["--json", *argv]) == 0
        assert [capsys.readouterr().out] == seen

    SCALARS = (st.none() | st.booleans() | st.integers(min_value=-10 ** 30, max_value=10 ** 30)
               | st.text())
    PAYLOADS = st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=30)

    @settings(max_examples=150, deadline=None)
    @given(PAYLOADS)
    def test_random_payloads(self, payload):
        assert report_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_edge_values(self):
        payload = {"": [], "b": {}, "a": [None, True, False, 0, -7, 2 ** 70, ""],
                   "\u00e9\x00\n\t\"\\\u2028\U0001f600": ["\x7f", "\x1f", "caf\u00e9"],
                   "nested": [[[]], [{}], {"k": [{"x": -1}]}], "tuple": (1, "two")}
        assert report_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        for value in (1, "text", None, [], {}):
            assert report_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_integers_past_the_string_limit(self):
        payload = {"big": [10 ** 5000, -(3 ** 20_000), 2 ** 13_001 - 1], "small": -7}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the reference needs it, the writer must not
        try:
            expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert report_json(payload) == expected

    def test_unsupported_values_are_refused(self):
        for bad in ({"x": 1.5}, [object()], {1: "int key"}):
            with pytest.raises(TypeError):
                report_json(bad)
