"""Report construction and serialization.

Machine output is JSON with a stable key order; exact field elements appear
as coefficient arrays of rational strings, never floats.  Forms are rendered
straight from their packed rows, with no field arithmetic: the coordinates
of a row over denominator 1 by one ``map(str, ...)`` (``ints_str``), and
of any other row one ``rational_str`` each.  Human output is
rendered from the same dictionary, so both carry identical facts.  Volatile
timings are kept out of the machine payload to keep it byte-deterministic;
the CLI reports them separately.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str

from .analysis import (ModularityVerdict, PoincarePolynomial, Rank2Report,
                       SupersolvabilityCertificate)
from .arrangement import Arrangement, Flat, IntersectionLattice, _on_columns
from .cyclo import field_context, int_str, ints_str, rational_str
from .linalg import LinearForm, Subspace, form_to_str, restrict_subspace


def form_payload(form: LinearForm) -> dict:
    """The form's text and its coordinates, one list of rational strings per
    coefficient, each in lowest terms by one ``gcd`` (``rational_str``); a
    row over denominator 1 is written by one ``map`` (``ints_str``)."""
    nums, den = form.row
    d = field_context(form.order).degree
    texts = ints_str(nums) if den == 1 else [rational_str(v, den) for v in nums]
    # zip of one iterator d times: d consecutive texts per coefficient
    return {"text": form_to_str(form), "coeffs": list(map(list, zip(*[iter(texts)] * d)))}


def subspace_payload(sub: Subspace, columns: tuple[int, ...] | None = None) -> dict:
    """The subspace, restricted to ``columns`` if given (``restrict_subspace``)."""
    sub = sub if columns is None else restrict_subspace(sub, columns)
    return {
        "codim": sub.codim,
        "forms": [form_payload(f) for f in sub.defining_forms()],
    }


def flat_payload(flat: Flat, columns: tuple[int, ...] | None = None) -> dict:
    return {
        "rank": flat.rank,
        "hyperplanes": flat.hyperplane_indices(),
        "subspace": subspace_payload(flat.subspace, columns),
    }


def arrangement_payload(arr: Arrangement, rank: int, name: str | None = None) -> dict:
    """The arrangement, with ``rank``, its rank, as the caller has it (a
    lattice's, or its factors' dimensions), so that no center is reduced."""
    out = {
        "ambient": arr.ambient,
        "field_order": arr.order,
        "hyperplane_count": len(arr.hyperplanes),
        "duplicates_removed": arr.duplicates_removed,
        "rank": rank,
        "essential": rank == arr.ambient,
        "hyperplanes": [form_payload(h) for h in arr.hyperplanes],
    }
    if name is not None:
        out["name"] = name
    return out


def lattice_payload(lattice: IntersectionLattice) -> dict:
    return {
        "flat_count": len(lattice),
        "level_sizes": lattice.level_sizes(),
        "rank": lattice.rank(),
    }


def verdict_payload(v: ModularityVerdict, columns: tuple[int, ...] | None = None) -> dict:
    out = {"flat": flat_payload(v.flat, columns), "modular": v.modular}
    if v.witness is not None:
        y, total = v.witness
        out["witness"] = {
            "partner": flat_payload(y, columns),
            "sum": subspace_payload(total, columns),
        }
    return out


def certificate_payload(cert: SupersolvabilityCertificate) -> dict:
    """The certificate; for a non-essential arrangement, its flats and witness
    sums contain the center (the top), so they print on its pivot columns,
    and so does the essential arrangement, with no second reduction of the
    center (``essentialize`` on the top's pivots)."""
    out: dict = {
        "supersolvable": cert.verdict,
        "essentialized": cert.essentialized,
        "rank": cert.lattice.rank(),
    }
    columns = None
    if cert.essentialized:
        columns = cert.lattice.top().subspace.pivots
        out["essential_arrangement"] = arrangement_payload(
            _on_columns(cert.lattice.arrangement, columns), cert.lattice.rank())
    if cert.chain is not None:
        out["chain"] = [flat_payload(f, columns) for f in cert.chain]
    if cert.refutation is not None:
        ref: dict = {"kind": cert.refutation.kind}
        if cert.refutation.kind == "empty-rank":
            ref["rank"] = cert.refutation.rank
            ref["witnesses"] = [verdict_payload(v, columns) for v in cert.refutation.witnesses]
        else:
            ref["modular_counts"] = {str(k): v for k, v in
                                     sorted(cert.refutation.modular_counts.items())}
        out["refutation"] = ref
    return out


def poincare_payload(poly: PoincarePolynomial, exponents: list[int] | None) -> dict:
    out = {"coefficients": list(poly.coefficients), "text": str(poly)}
    out["exponents"] = exponents
    return out


def rank2_payload(rep: Rank2Report) -> dict:
    return {
        "supersolvable": rep.supersolvable,
        "modular_rank2_count": rep.modular_rank2_count,
        "agree": rep.agree,
        "modular_rank2": [flat_payload(f) for f in rep.modular_rank2],
    }


def report_json(report: dict) -> str:
    """The report as JSON text, byte-identical to
    ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``.

    ``json.dumps`` cannot use its C encoder with ``indent``, so a small
    recursive writer lays the payload out instead: strings go through the
    C string encoder (``encode_basestring_ascii``, as ``ensure_ascii``
    does), and so do dictionary keys, which must be strings.  Payloads hold
    dicts, lists, strings, ints, bools and None only; anything else is a
    ``TypeError``.
    """
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is the line
    break and indentation of the line that holds it."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _encode_str(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int_str(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _human_flat(flat: dict) -> str:
    forms = [f["text"] for f in flat["subspace"]["forms"]]
    inside = " ; ".join(forms) if forms else "full space"
    return f"rank {flat['rank']}: {inside}"


def render_human(report: dict) -> str:
    """Plain-text rendering of a report dictionary."""
    lines: list[str] = []
    arr = report.get("arrangement")
    if arr:
        name = arr.get("name", "(unnamed)")
        lines.append(f"arrangement {name}: {arr['hyperplane_count']} hyperplanes "
                     f"in C^{arr['ambient']}, field order {arr['field_order']}, "
                     f"rank {arr['rank']}")
        if arr["duplicates_removed"]:
            lines.append(f"  {arr['duplicates_removed']} duplicate input forms removed")
    lat = report.get("lattice")
    if lat:
        lines.append(f"lattice: {lat['flat_count']} flats, level sizes "
                     f"{lat['level_sizes']}")
    mod = report.get("modular")
    if mod is not None:
        lines.append(f"modular flats of rank {mod['rank']}: "
                     f"{mod['modular_count']} of {mod['flat_count']}")
        for v in mod["verdicts"]:
            if v["modular"]:
                lines.append(f"  modular    {_human_flat(v['flat'])}")
            else:
                w = v["witness"]
                lines.append(f"  non-modular {_human_flat(v['flat'])}  "
                             f"[+ {_human_flat(w['partner'])} -> "
                             f"{' ; '.join(f['text'] for f in w['sum']['forms'])}, "
                             "not a flat]")
    cert = report.get("supersolvable")
    if cert is not None:
        lines.append(f"supersolvable: {cert['supersolvable']}"
                     + (" (essentialized first)" if cert["essentialized"] else ""))
        if cert.get("chain"):
            lines.append("  modular chain:")
            for f in cert["chain"]:
                lines.append(f"    {_human_flat(f)}")
        ref = cert.get("refutation")
        if ref:
            if ref["kind"] == "empty-rank":
                lines.append(f"  refuted: no modular flat of rank {ref['rank']} "
                             f"({len(ref['witnesses'])} witnesses recorded)")
            else:
                lines.append(f"  refuted: modular flats per rank "
                             f"{ref['modular_counts']} admit no chain")
    poin = report.get("poincare")
    if poin:
        lines.append(f"poincare polynomial: {poin['text']}")
        if poin.get("exponents") is not None:
            lines.append(f"exponents: {poin['exponents']}")
    factors = report.get("factors")
    if factors is not None:
        lines.append(f"irreducible factors: {len(factors)}")
        for k, f in enumerate(factors):
            lines.append(f"  factor {k}: {f['hyperplane_count']} hyperplanes in "
                         f"C^{f['ambient']}")
    claims = report.get("claims")
    if claims is not None:
        width = max((len(c["claim_id"]) for c in claims), default=8)
        for c in claims:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{status}  {c['claim_id']:<{width}}  {c['detail']}")
        total = len(claims)
        good = sum(c["passed"] for c in claims)
        lines.append(f"{good}/{total} claims pass")
    return "\n".join(lines) + "\n"
