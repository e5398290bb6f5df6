"""CLI behavior: subcommands, exit codes, JSON determinism, cache identity."""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest

import hyparr.claims
import hyparr.cli
from hyparr.arrangement import Arrangement, _split, build_lattice
from hyparr.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_PARSE_ERROR, EXIT_REFUSED,
                        EXIT_VERIFICATION_FAILED, main, resolve_spec)
from hyparr.errors import InternalInconsistencyError, ParseError, RefusalError
from hyparr.linalg import LinearForm
from hyparr.reflection import build_named, catalog
from tests.conftest import D4_MOVED
from tests.test_factors import CRITERION_5


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResolveSpec:
    def test_catalog_names(self):
        for name in ("D4", "G31", "G(3,1,3)", "A(3)", "B3"):
            _, arr = resolve_spec(name)
            assert len(arr) > 0
        for entry in catalog():
            assert len(resolve_spec(entry.name)[1]) == entry.expected_count, entry.name

    def test_product_expression(self):
        name, arr = resolve_spec("product(B2, G(1,1,3))")
        assert len(arr) == 7 and arr.ambient == 5
        assert name == "product(B2, G(1,1,3))"
        for a in CRITERION_5:  # the pairs of acceptance criterion 5
            for b in CRITERION_5:
                _, arr = resolve_spec(f"product({a},{b})")
                assert len(arr) == len(resolve_spec(a)[1]) + len(resolve_spec(b)[1])

    def test_nested_product(self):
        _, arr = resolve_spec("product(product(B2, B2), A(2))")
        assert arr.ambient == 7

    def test_file_spec(self, tmp_path):
        path = tmp_path / "tri.arr"
        path.write_text("ambient 2 field 1\na\nb\na - b\n")
        _, arr = resolve_spec(str(path))
        assert len(arr) == 3

    def test_unknown_rejected_before_compute(self):
        with pytest.raises(ParseError):
            resolve_spec("E8")


class TestCommands:
    def test_build(self, capsys):
        code, out, _ = run_cli(capsys, "build", "D4")
        assert code == EXIT_OK and "12 hyperplanes" in out

    def test_lattice(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "D4")
        assert code == EXIT_OK and "[1, 12, 34, 24, 1]" in out

    def test_modular_rank2_d4(self, capsys):
        code, out, _ = run_cli(capsys, "modular", "D4", "--rank", "2")
        assert code == EXIT_OK and "0 of 34" in out

    def test_supersolvable_true(self, capsys):
        code, out, _ = run_cli(capsys, "supersolvable", "G(3,1,3)")
        assert code == EXIT_OK and "supersolvable: True" in out

    def test_supersolvable_false(self, capsys):
        code, out, _ = run_cli(capsys, "supersolvable", "D4")
        assert code == EXIT_OK and "refuted" in out

    def test_poincare_braid(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "poincare", "A(3)")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["poincare"]["coefficients"] == [1, 6, 11, 6]
        assert report["poincare"]["exponents"] == [1, 2, 3]

    def test_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "product(B2, G(1,1,3))")
        assert code == EXIT_OK and "irreducible factors: 2" in out

    def test_verify_paper_scope(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "D4")
        assert code == EXIT_OK
        assert "D4.sum1" in out and "D4.sum2" in out and "rank2-empty" in out
        assert "FAIL" not in out

    def test_verify_paper_any_catalog_name(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify-paper", "G(3,1,3)")
        assert code == EXIT_OK
        report = json.loads(out)
        assert [c["claim_id"] for c in report["claims"]] == ["G(3,1,3).rank2-criterion"]
        assert report["passed"] is True

    def test_verify_paper_witness_name_claim_ids(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify-paper", "D4")
        assert code == EXIT_OK
        assert [c["claim_id"] for c in json.loads(out)["claims"]] == \
            ["D4.sum1", "D4.sum2", "D4.rank2-empty", "D4.rank2-criterion"]

    def test_verify_paper_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify-paper", "witnesses")
        assert code == EXIT_OK
        report = json.loads(out)
        assert len(report["claims"]) == 15
        assert report["passed"] is True


class TestExitCodes:
    def test_unknown_spec_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "build", "E8")
        assert code == EXIT_PARSE_ERROR and "parse error" in err

    def test_bad_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.arr"
        path.write_text("ambient 2 field 1\na + 1\n")
        code, _, err = run_cli(capsys, "build", str(path))
        assert code == EXIT_PARSE_ERROR

    # a UTF-8 header and form, then the byte 0xff, which no UTF-8 text holds
    @pytest.mark.parametrize("argv", [("build", "{}"), ("build", "file:{}"),
                                      ("lattice", "product({},A2)")])
    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.arr"
        path.write_bytes(b"ambient 2 field 1\na\n\xff\n")
        code, _, err = run_cli(capsys, argv[0], argv[1].format(path))
        assert code == EXIT_PARSE_ERROR
        assert f"cannot read arrangement file {path}" in err

    # a UTF-8 byte-order mark before the header is skipped
    @pytest.mark.parametrize("spec", ["{}", "file:{}", "product({},A2)"])
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, spec):
        text = "ambient 2 field 1\na\nb\n"
        (tmp_path / "plain.arr").write_bytes(text.encode())
        (tmp_path / "bom.arr").write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = run_cli(capsys, "--json", "lattice", spec.format(tmp_path / "plain.arr"))
        got = run_cli(capsys, "--json", "lattice", spec.format(tmp_path / "bom.arr"))
        assert got[0] == want[0] == EXIT_OK
        assert got[1].replace("bom.arr", "plain.arr") == want[1]

    def test_deep_nesting_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.arr"
        path.write_text("ambient 2 field 1\n" + "(" * 2000 + "x1" + ")" * 2000 + "\n")
        code, _, err = run_cli(capsys, "build", str(path))
        assert code == EXIT_PARSE_ERROR and "nested deeper" in err

    @pytest.mark.parametrize("text", [
        "ambient 2 field 1\n" + "1" * 5000 + "*x1\nx2\n",
        "ambient 2 field 1\n2^" + "1" * 5000 + "*x1\nx2\n",
        "ambient " + "1" * 5000 + " field 1\nx1\n",
        "ambient 2 field 1\n\u00b2*x1\nx2\n",
    ])
    def test_unreadable_integer_is_parse_error(self, capsys, tmp_path, text):
        # past Python's int-string digit limit, or a digit int() refuses
        path = tmp_path / "big.arr"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "build", str(path))
        assert code == EXIT_PARSE_ERROR and "not a readable integer" in err

    @pytest.mark.parametrize("text", [
        "ambient 2 field 1\nx1 + 10^5000*x2\n",
        "ambient 2 field 1\nx1 + 2^20000*x2\n",
        "ambient 2 field 1\nx1 + 10^900*10^900*10^900*10^900*10^900*x2\n",
        "ambient 2 field 99999999999\nx1\n",
        "ambient 100000000 field 1\nx1\n",
    ])
    def test_oversized_value_is_parse_error(self, capsys, tmp_path, text):
        # a coefficient past the digit limit would not print, and an unbounded
        # header or power would allocate without bound
        path = tmp_path / "big.arr"
        path.write_text(text)
        code, out, err = run_cli(capsys, "build", str(path))
        assert code == EXIT_PARSE_ERROR and not out
        assert err.startswith("hyparr: parse error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("forms", [["x1", "x2", "x1+x2"], [f"x{k}" for k in range(1, 41)]])
    def test_oversized_input_is_parse_error(self, capsys, tmp_path, forms):
        # each form would pack 1000 x phi(997) = 996,000 integers
        path = tmp_path / "big.arr"
        path.write_text("ambient 1000 field 997\n" + "\n".join(forms) + "\n")
        code, out, err = run_cli(capsys, "--json", "lattice", str(path))
        assert code == EXIT_PARSE_ERROR and not out
        assert err == (f"hyparr: parse error: {path}:1: {len(forms)} forms in 1000 variables "
                       f"over field order 997 pack {len(forms) * 996_000} integers, "
                       "above 1000000\n")

    def test_oversized_product_is_parse_error(self, capsys, tmp_path, monkeypatch):
        import hyparr.cli as cli

        def refuse(*args):
            raise AssertionError("the product's rows were made")
        monkeypatch.setattr(cli, "product", refuse)
        path = tmp_path / "line.arr"
        path.write_text("ambient 1000 field 997\nx1\n")  # 996,000 integers
        code, out, err = run_cli(capsys, "build", f"product({path}, A2)")
        assert code == EXIT_PARSE_ERROR and not out
        assert err.endswith("4 forms in 1003 variables over field order 997 pack "
                            "3995952 integers, above 1000000\n")
        assert err.count("arrangement spec") == 1
        assert f"arrangement spec 'product({path}, A2)' over field order 997, the lcm " \
            "of its factors' orders 997 and 1: " in err

    @pytest.mark.parametrize("argv", [("--json", "modular", "{path}", "--rank", "2"),
                                      ("--json", "supersolvable", "{path}"),
                                      ("modular", "{path}", "--rank", "2")])
    def test_derived_integer_past_the_string_limit_prints(self, capsys, tmp_path, argv):
        # every parsed coefficient has at most 3,000 digits, but the RREF rows
        # of the flats and the witness sums hold integers of 6,000 digits
        path = tmp_path / "big.arr"
        path.write_text(f"ambient 3 field 1\nx1 + {'7' * 3000}*x2 + x3\n"
                        f"x1 + x2 + {'3' * 2999}1*x3\nx2 - x3\nx1\n")
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
        assert code == EXIT_OK, err
        longest = max(len(t) for t in re.findall(r"[0-9]+", out))
        assert longest > 4300
        if argv[0] == "--json":
            json.loads(out)

    # A(150) packs 1,710,075 integers; G(30030,1,1) and the product, over
    # the lcm 30030 of its factors' field orders, are above MAX_FIELD_ORDER
    @pytest.mark.parametrize("spec, message", [
        ("A(150)", "11325 forms in 151 variables over field order 1 pack 1710075 integers"),
        ("G(30030,1,1)", "field 30030 is above 1000"),
        ("product(G(910,1,1),G(33,1,1))", "field 30030 is above 1000"),
    ])
    def test_oversized_catalog_spec_refused_before_any_row(self, capsys, spec, message):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, "--json", "build", spec)
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PARSE_ERROR and not out
        assert err.startswith("hyparr: parse error: ") and err.count("\n") == 1
        assert message in err
        assert err.startswith(f"hyparr: parse error: arrangement spec {spec!r}")
        assert err.count("arrangement spec") == 1
        if spec.startswith("product("):
            assert "field order 30030, the lcm of its factors' orders 910 and 33" in err
        assert seconds < 1 and peak < 2_000_000

    @pytest.mark.parametrize("spec, refused", [
        ("product(A2,A(150))", "A(150)"),
        ("product(A2, product(B2, product(G(910,1,1),G(33,1,1))))",
         "product(G(910,1,1),G(33,1,1))"),
    ])
    def test_refused_part_named_once(self, capsys, spec, refused):
        # the innermost refused spec is named, and no level above names itself
        code, out, err = run_cli(capsys, "build", spec)
        assert code == EXIT_PARSE_ERROR and not out
        assert err.startswith(f"hyparr: parse error: arrangement spec {refused!r}")
        assert err.count("arrangement spec") == 1

    @pytest.mark.parametrize("spec", ["G(3,1,0)", "G(3,2,3)"])
    def test_bad_monomial_parameters_are_parse_errors(self, capsys, spec):
        code, _, err = run_cli(capsys, "build", spec)
        assert code == EXIT_PARSE_ERROR and "parse error" in err

    @pytest.mark.parametrize("text, message", [
        ("", "{path}: missing 'ambient <l> field <n>' header"),
        ("ambient 2 field 0\na\n", "{path}:1: field order must be >= 1"),
        ("ambient 2 field 1\na^b\n",
         "{path}:2: exponent must be a nonnegative integer in 'a^b'"),
        ("ambient 2 field 1\n(a b\n", "{path}:2: expected ')' but found 'b' in '(a b'"),
        ("ambient 2 field 1\na $ b\n", "{path}:2: unexpected character '$' in 'a $ b'"),
    ], ids=["empty", "field-0", "symbolic-exponent", "open-paren", "stray-character"])
    def test_malformed_file_message(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.arr"
        path.write_text(text)
        code, out, err = run_cli(capsys, "build", str(path))
        assert code == EXIT_PARSE_ERROR and not out
        assert err == f"hyparr: parse error: {message.format(path=path)}\n"

    def test_product_of_three_is_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "lattice", "product(A2,A2,A2)")
        assert code == EXIT_PARSE_ERROR and not out
        assert err == ("hyparr: parse error: product(...) takes exactly two specs: "
                       "'product(A2,A2,A2)'\n")

    def test_deep_product_is_parse_error(self, capsys):
        spec = "product(" * 1200 + "A2" + ", A2)" * 1200
        code, _, err = run_cli(capsys, "build", spec)
        assert code == EXIT_PARSE_ERROR and "nested deeper" in err

    def test_product_nesting_bound(self, monkeypatch):
        import hyparr.cli as cli
        from hyparr.parse import MAX_NESTING

        monkeypatch.setattr(cli, "product", lambda a, b: a)  # keep the spec cheap
        at_bound = "product(" * MAX_NESTING + "A2" + ", A2)" * MAX_NESTING
        name, _ = resolve_spec(at_bound)
        assert name.count("product(") == MAX_NESTING
        with pytest.raises(ParseError, match="nested deeper"):
            resolve_spec("product(" + at_bound + ", A2)")

    def test_nested_product_builds(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "build", "product(product(B2, B2), A(2))")
        assert code == EXIT_OK
        assert json.loads(out)["arrangement"]["ambient"] == 7

    def test_max_flats_guard_is_refusal(self, capsys):
        code, _, err = run_cli(capsys, "--max-flats", "5", "lattice", "D4")
        assert code == EXIT_REFUSED and "refused" in err

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch, json_flag):
        # a broken guarantee is neither a failed claim (exit 1) nor a
        # traceback: one line on stderr, nothing on stdout, exit 4
        def broken(lattice):
            raise InternalInconsistencyError("forged")

        monkeypatch.setattr(hyparr.cli, "is_supersolvable", broken)
        code, out, err = run_cli(capsys, *json_flag, "poincare", "B3")
        assert code == EXIT_INTERNAL == 4
        assert out == ""
        assert err == "hyparr: internal error: forged\n"

    @pytest.mark.parametrize("spec, flats", [("B3", 24), ("product(B3,A2)", 120)])
    def test_max_flats_holds_on_a_cache_hit(self, capsys, tmp_path, spec, flats):
        # cold: the build refuses; warm: the loaded lattice is refused alike
        for budget in (20, flats - 1, flats):
            argv = ("--max-flats", str(budget), "lattice", spec)
            cold = run_cli(capsys, "--cache-dir", str(tmp_path / f"cold-{budget}"), *argv)
            warm_dir = str(tmp_path / f"warm-{budget}")
            assert run_cli(capsys, "--cache-dir", warm_dir, "lattice", spec)[0] == EXIT_OK
            warm = run_cli(capsys, "--cache-dir", warm_dir, *argv)
            expected = EXIT_OK if budget == flats else EXIT_REFUSED
            assert cold[0] == warm[0] == expected, budget
            assert cold[1] == warm[1], budget
            untimed = [re.sub(r"(?m)^time .*\n", "", r[2]) for r in (cold, warm)]
            assert untimed[0] == untimed[1], budget
            assert bool(untimed[0]) == (budget < flats)

    def test_bad_rank_is_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "modular", "D4", "--rank", "9")
        assert code == EXIT_PARSE_ERROR

    def test_unknown_scope_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-paper", "nosuch")
        assert code == EXIT_PARSE_ERROR
        assert err.startswith("hyparr: parse error: unknown claim scope 'nosuch'; choose one of ")

    def test_key_error_in_a_claim_propagates(self, capsys, monkeypatch):
        # a KeyError raised inside a claim is a fault, not a parse error
        def broken(name, store):
            raise KeyError("inside the claim")
        monkeypatch.setattr(hyparr.claims, "run_rank2_empty_claim", broken)
        with pytest.raises(KeyError, match="inside the claim"):
            main(["verify-paper", "rank2"])

    @pytest.mark.parametrize("argv", [
        ("--cache-dir", "{file}", "lattice", "D4"),
        ("--cache-dir", "{file}/sub", "lattice", "D4"),
        ("--cache-dir", "{file}", "verify-paper", "D4"),
    ])
    def test_unusable_cache_dir_is_parse_error(self, capsys, tmp_path, argv):
        file = tmp_path / "FILE"
        file.write_text("not a directory\n")
        argv = [a.format(file=file) for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE_ERROR
        lines = err.splitlines()
        assert len(lines) == 1 and f"cache directory {argv[1]}" in lines[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["FILE"]

    def test_unusable_cache_dir_refused_before_building(self, capsys, tmp_path, monkeypatch):
        import hyparr.cache

        def refuse(*args, **kwargs):
            raise AssertionError("the lattice was built before the cache directory was made")

        monkeypatch.setattr(hyparr.cache, "lattice_of", refuse)
        file = tmp_path / "FILE"
        file.write_text("")
        code, _, err = run_cli(capsys, "--cache-dir", str(file), "lattice", "D4")
        assert code == EXIT_PARSE_ERROR and f"cache directory {file}" in err

    def test_unusable_cache_dir_from_environment(self, capsys, tmp_path, monkeypatch):
        file = tmp_path / "FILE"
        file.write_text("")
        monkeypatch.setenv("HYPARR_CACHE_DIR", str(file))
        code, _, err = run_cli(capsys, "lattice", "G(2,1,2)")
        assert code == EXIT_PARSE_ERROR and f"cache directory {file}" in err

    def test_unwritable_cache_entry_leaves_no_temp_file(self, capsys, tmp_path):
        from hyparr.cache import cache_path

        _, arr = resolve_spec("D4")
        os.mkdir(cache_path(arr, str(tmp_path)))  # a directory where the entry goes
        code, _, err = run_cli(capsys, "--cache-dir", str(tmp_path), "lattice", "D4")
        assert code == EXIT_PARSE_ERROR and len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.tmp"))


class TestOneRowReduction:
    """Outside the tests, every RREF grows by residues (``extend_by_rows``):
    the kernel's full eliminations are references that no command calls."""

    @pytest.mark.parametrize("argv", [
        ("verify-paper", "D4"),
        ("modular", "H3", "--rank", "2"),
        ("supersolvable", "product(B2,A2)"),
        ("poincare", "A(3)"),
        ("decompose", "D4"),
    ])
    def test_commands_call_no_full_elimination(self, capsys, monkeypatch, argv):
        # ``rank`` is refused outright; ``rref`` only outside ``elem_inv``,
        # which solves by it on a cache miss.  The cache is cleared first, so
        # the outcome does not hang on what earlier tests have inverted.
        import sys

        from hyparr import _kernel

        def refuse(*args):
            raise AssertionError("a full elimination ran outside the tests")

        real_rref, inverse = _kernel.rref, _kernel.elem_inv.__wrapped__.__code__

        def rref(*args):
            if sys._getframe(1).f_code is not inverse:
                refuse()
            return real_rref(*args)

        _kernel.elem_inv.cache_clear()
        monkeypatch.delenv("HYPARR_CACHE_DIR", raising=False)
        monkeypatch.setattr(_kernel, "rref", rref)
        monkeypatch.setattr(_kernel, "rank", refuse)
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == EXIT_OK and out

    def test_printed_rank_reduces_no_center(self, capsys, monkeypatch, tmp_path):
        # the report takes the arrangement's rank off the lattice, or off the
        # factors' dimensions, so no center is grown for it: a warm lattice
        # of G31 reduces no residue, and the decomposition of
        # product(D4,A(3)) only the 25 that pick its basis of normals
        import hyparr.arrangement
        import hyparr.linalg

        cache = ("--cache-dir", str(tmp_path))
        assert run_cli(capsys, "--json", *cache, "lattice", "G31")[0] == EXIT_OK
        calls = []
        real = hyparr.linalg.form_residue
        for module in (hyparr.arrangement, hyparr.linalg):
            monkeypatch.setattr(module, "form_residue",
                                lambda row, sub: calls.append(row) or real(row, sub))
        assert run_cli(capsys, "--json", *cache, "lattice", "G31")[0] == EXIT_OK
        assert len(calls) == 0
        assert run_cli(capsys, "--json", "decompose", "product(D4,A(3))")[0] == EXIT_OK
        assert len(calls) == 25

    def test_decompose_essentializes_nothing(self, capsys, monkeypatch):
        # coordinates over a basis of normals are already essential
        import hyparr.arrangement
        import hyparr.cli

        def refuse(*args):
            raise AssertionError("decompose essentialized its input")

        monkeypatch.setattr(hyparr.arrangement, "essentialize", refuse)
        monkeypatch.setattr(hyparr.cli, "essentialize", refuse, raising=False)
        code, out, _ = run_cli(capsys, "--json", "decompose", "product(D4,A(3))")
        assert code == EXIT_OK and '"essentialized": true' in out


class TestMoreSurface:
    def test_star_import_binds_the_public_names(self):
        # the package's public names, and no submodule; a name leaves this
        # set only on purpose
        import hyparr
        names = {}
        exec("from hyparr import *", names)
        names.pop("__builtins__")
        assert sorted(names) == sorted(hyparr.__all__) == [
            "Arrangement", "CatalogEntry", "CyclotomicNumber", "Flat", "HyparrError",
            "InternalInconsistencyError", "IntersectionLattice", "InvalidHyperplaneError",
            "LinearForm", "ModularityVerdict", "ParseError", "PoincarePolynomial",
            "Rank2Report", "RefusalError", "Subspace", "SupersolvabilityCertificate",
            "build_lattice", "build_named", "catalog", "check_rank2_criterion",
            "checked_exponents", "closure", "cyclotomic_polynomial", "embed", "essentialize",
            "exceptional_arrangement", "exponents_from_poincare", "irreducible_decomposition",
            "irreducible_factor_count", "is_modular", "is_supersolvable", "kernel_backend",
            "lattice_of", "make_arrangement", "mobius", "modular_flats_of_rank",
            "monomial_arrangement", "parse_arrangement_file", "parse_arrangement_text",
            "parse_form", "parse_scalar", "poincare", "product", "replay_witness",
            "restriction", "root_of_unity", "subspace_from_forms", "subspace_sum",
            "validate_certificate"]

    def test_failing_claim_gives_exit_1(self, capsys, monkeypatch):
        import hyparr.cli as cli
        from hyparr.claims import ClaimResult

        monkeypatch.setattr(cli, "run_claims", lambda scope, store: [
            ClaimResult("fake.claim", "witness", "D4", False, "forced", 0.0)])
        code, out, _ = run_cli(capsys, "verify-paper", "all")
        assert code == EXIT_VERIFICATION_FAILED and "FAIL" in out

    def test_cache_dir_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPARR_CACHE_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "lattice", "G(2,1,2)")
        assert code == EXIT_OK
        assert list(tmp_path.glob("*.json"))

    def test_parser_is_built_once(self, capsys, tmp_path, monkeypatch):
        from hyparr.cli import _make_parser

        run_cli(capsys, "build", "A2")
        built = _make_parser.cache_info().misses
        # the environment is read per run, not when the parser was built
        monkeypatch.setenv("HYPARR_CACHE_DIR", str(tmp_path))
        assert run_cli(capsys, "lattice", "A2")[0] == EXIT_OK
        assert run_cli(capsys, "--cache-dir", "", "lattice", "B2")[0] == EXIT_OK
        assert _make_parser.cache_info().misses == built == 1
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_threads_flag_matches_single_worker(self, capsys):
        _, one, _ = run_cli(capsys, "--json", "modular", "G25", "--rank", "2")
        _, four, _ = run_cli(capsys, "--json", "--threads", "4",
                             "modular", "G25", "--rank", "2")
        assert one == four

    # "²" is a digit to str.isdigit but not to int()
    @pytest.mark.parametrize("count", ["0", "-4", "two", "²"])
    def test_threads_below_one_rejected(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", count, "lattice", "G(2,1,2)"])
        assert exc.value.code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "--threads" in err and "at least 1" in err

    # a budget below 1 is a usage error, as for --threads, not a refusal
    @pytest.mark.parametrize("budget, command", [("-1", "lattice"), ("0", "poincare")])
    def test_max_flats_below_one_rejected(self, capsys, budget, command):
        with pytest.raises(SystemExit) as exc:
            main(["--max-flats", budget, command, "B2"])
        assert exc.value.code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "--max-flats" in err and "at least 1" in err
        # a library call with such a budget is still refused
        with pytest.raises(RefusalError):
            build_lattice(build_named("B2"), max_flats=int(budget))

    def test_arrangement_file_round_trip(self, tmp_path):
        from hyparr.arrangement import arrangement_to_text
        from hyparr.parse import parse_arrangement_text
        from hyparr.reflection import exceptional_arrangement

        for name in ("H3", "G25", "F4"):
            arr = exceptional_arrangement(name)
            again = parse_arrangement_text(arrangement_to_text(arr))
            assert again == arr


class TestDeterminism:
    def test_json_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "--json", "supersolvable", "G25")
        _, out2, _ = run_cli(capsys, "--json", "supersolvable", "G25")
        assert out1 == out2

    def test_cache_warm_equals_cold(self, capsys, tmp_path):
        # a warm run reads flats that derive their subspaces from supports:
        # witness sums (H3), a transported non-essential product, a no-chain
        # refutation, and the claims of one arrangement
        for args in (["supersolvable", "G25"], ["modular", "H3", "--rank", "2"],
                     ["poincare", "product(B2,A(3))"],
                     ["supersolvable", "product(G(3,3,3),A(3))"],
                     ["verify-paper", "D4"]):
            cold = run_cli(capsys, "--json", "--cache-dir", str(tmp_path), *args)
            warm = run_cli(capsys, "--json", "--cache-dir", str(tmp_path), *args)
            assert cold[0] == warm[0] == EXIT_OK, args
            assert cold[1] == warm[1], args
        # G25, H3, D4 and the two factors of each product, none of which
        # splits; the second product's A(3) is over Q(z_3), not the first's
        entries = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
        assert len(entries) == 7, "one cache file per factor"
        for entry in entries:
            a = entry["arrangement"]
            arr = Arrangement(a["ambient"], a["field_order"], tuple(
                LinearForm(a["ambient"], a["field_order"], (tuple(nums), den))
                for nums, den in a["hyperplanes"]))
            assert _split(arr) is None

    # files read by a relative path, so the printed name is the same in
    # every run: B2 times a point that splits only after a change of basis,
    # and product(B3,G(3,3,3)) with its factors' hyperplanes interleaved
    DECOMPOSE_FILES = {
        "mixed.arr": "ambient 3 field 1\na + c\nb\na + b + c\na - b + c\nc\n",
        "shuffled.arr": (
            "ambient 6 field 3\nx4 + (1 + z)*x6\nx3\nx4 - x5\nx5 + (-z)*x6\n"
            "x2 - x3\nx1 + x3\nx4 + (1 + z)*x5\nx1 - x2\nx4 + (-z)*x6\nx1 - x3\n"
            "x5 - x6\nx2 + x3\nx2\nx1\nx5 + (1 + z)*x6\nx4 - x6\nx1 + x2\n"
            "x4 + (-z)*x5\n"),
    }

    # SHA-256 of the --json decompose stdout, pinned from the decomposition
    # that inverted the basis matrix and summed each normal's coordinates
    DECOMPOSE_SHA256 = {
        "product(B3,H3)":
            "c69b81a156eb595ae3e8b066dd6838715155a4658f1cf002728fb8799ee7d46f",
        "product(A(3),G(3,3,3))":
            "f584de497aca3f1ec871e2f1da8db687fb9f1dc43c9a3e6cd95fb86d00c40787",
        "product(product(G31,G29),product(F4,H3))":
            "77c2890ea461d39fb9543ea33886bcbad2c8caef33c0836878101ebdcc3b6b78",
        "mixed.arr":
            "97959b6b0d6ddd116f5adcba3ea42968f3677d6c2ce23aa3f97fc24e69dd61aa",
        "shuffled.arr":
            "368dd0d5802d1186a98d8917fb628cb23302802945fd723b302370f36ba3c8d2",
        # recorded while non-essential input was essentialized first
        "product(D4,A(3))":
            "2b18a79e9caf9b957a014cf86b53c46ab7b362381dfb59b41433979b94043306",
        "A(5)":
            "4e671536ed0c47dae24b09162a343d265d448e1afa12d67cb83e776cb8f1a792",
    }

    @pytest.mark.parametrize("spec", sorted(DECOMPOSE_SHA256))
    def test_decompose_bytes_pinned(self, capsys, tmp_path, monkeypatch, spec):
        if spec in self.DECOMPOSE_FILES:
            (tmp_path / spec).write_text(self.DECOMPOSE_FILES[spec])
            monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "--json", "decompose", spec)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.DECOMPOSE_SHA256[spec]

    def test_human_and_json_share_facts(self, capsys):
        _, human, _ = run_cli(capsys, "supersolvable", "G(3,1,3)")
        _, machine, _ = run_cli(capsys, "--json", "supersolvable", "G(3,1,3)")
        report = json.loads(machine)
        cert = report["supersolvable"]
        assert cert["supersolvable"] is True
        assert "supersolvable: True" in human
        chain_texts = [" ; ".join(f["text"] for f in flat["subspace"]["forms"])
                       for flat in cert["chain"]]
        for text in chain_texts:
            if text:
                assert text in human

    def test_exact_coefficients_are_rational_strings(self, capsys):
        _, machine, _ = run_cli(capsys, "--json", "build", "H3")
        report = json.loads(machine)
        coeffs = report["arrangement"]["hyperplanes"][3]["coeffs"]
        flat = [c for var in coeffs for c in var]
        assert all(isinstance(c, str) for c in flat)
        assert any("/" in c or c.lstrip("-").isdigit() for c in flat)


class TestTimings:
    # SHA-256 of the --json stdout, as printed before the report phase was
    # timed; the timings never enter the payload
    STDOUT_SHA256 = {
        ("modular", "D4", "--rank", "2"):
            "d0629f177ed59685bcfe85737baf38ce226ad2dac42ad7114b3f78634cd78f17",
        ("supersolvable", "D4"):
            "dd9550f2c6f4d3ab09ac864ceaaf1c320daf1d3513ad122824dafbf89fd8c4db",
        ("poincare", "A(3)"):
            "cec8820910d1e4ec64506a2b3f914f68f5a2968d8656a60b60966cd2ada1ebe5",
    }

    @pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
    def test_report_phase_is_timed_on_stderr(self, capsys, argv):
        code, out, err = run_cli(capsys, "--json", *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[argv]
        keys = re.findall(r"^time (\w+): \d+\.\d{3}s$", err, re.M)
        assert keys == ["lattice", argv[0], "report"]

    def test_human_output_ends_with_the_report_time(self, capsys):
        # human stdout holds the report alone; its timings go to stderr, as
        # those of --json do
        code, out, err = run_cli(capsys, "modular", "D4", "--rank", "2")
        assert code == EXIT_OK and out and "time " not in out
        assert re.findall(r"^time (\w+): \d+\.\d{3}s$", err, re.M) == [
            "lattice", "modular", "report"]
        assert re.search(r"\ntime report: \d+\.\d{3}s\n$", err)


class TestStartUp:
    def test_cli_import_loads_no_heavy_module(self):
        # every command starts by importing hyparr.cli: the records are plain
        # classes, so ``dataclasses`` (and ``inspect`` under it) is never
        # loaded, and ``fractions`` (with ``decimal``) only by the first
        # CyclotomicNumber method that takes or returns a Fraction, which
        # still works then; ``-S`` keeps site packages from loading any
        code = textwrap.dedent("""
            import sys
            import hyparr.cli
            heavy = {"dataclasses", "inspect", "fractions", "decimal"}
            print(sorted(heavy & set(sys.modules)))
            from fractions import Fraction
            from hyparr import CyclotomicNumber
            half = CyclotomicNumber.from_rational(Fraction(1, 2), 3)
            assert half.coeffs == (Fraction(1, 2), Fraction(0))
            assert half == Fraction(1, 2) and half != Fraction(1, 3)
            assert half + Fraction(1, 2) == 1
            print("ok")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout == "[]\nok\n"


class TestSearchOutputs:
    # SHA-256 of the --json stdout, recorded while the chain search still
    # scanned every interior rank before reading any flat; a search that
    # tests fewer flats must print the same chains, witnesses and counts
    STDOUT_SHA256 = {
        ("verify-paper", "all"):
            "8a47f967bf4c002f045498e3b8c65aeea014966590a3876ef91e8438f0049986",
        ("supersolvable", "G(4,1,5)"):
            "4cdd7d27eca044dccb9e4f6f1fee5fdf11f489a3c501886e951c2f2848a40744",
        ("poincare", "product(B3,B3)"):
            "5f3332fa2f815e6ff2c8287fd37e36ba436940edff4c738889e1e37e7cf95daf",
    }

    # every pin at --threads 1 and 2; the --threads 1 cases keep the ids
    # argv0, argv1, ... they had before the parameter
    @pytest.mark.parametrize("argv, threads", [
        pytest.param(argv, threads, id=f"argv{i}" + ("" if threads == "1" else "-threads2"))
        for i, argv in enumerate(sorted(STDOUT_SHA256)) for threads in ("1", "2")])
    def test_json_stdout_is_unchanged(self, capsys, argv, threads):
        code, out, _ = run_cli(capsys, "--json", "--threads", threads, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[argv]


class TestEssentializedOutputs:
    # SHA-256 of the --json stdout, recorded while certificates of
    # non-essential input were searched on a second lattice built in the
    # essential coordinates; the restricted rows must print the same
    # chains, refutations and witness sums
    STDOUT_SHA256 = {
        ("supersolvable", "product(G(3,3,3),A(3))"):
            "2e3bbd776ca321b5cdf8fcc5af4228c2cb057ef03242b4059311cdc213a63c82",
        ("supersolvable", "product(D4,A(3))"):
            "bbbeb93d82e9c5d331ed79aba6928acb017147ab8c87eb06494b77287eb53c5e",
        ("poincare", "product(A2,G(3,1,3))"):
            "3e31f9a6be750bd9f28d7817ee1b4a370ad9b57dca6d1a6c109b3b59e53c1fa8",
        ("supersolvable", "d4-moved.arr"):
            "4b1817762cc1e6ff9788f90cc84f2fad7d93a72006ed6c06296ec1616bba6ef0",
    }
    # the products above refute with no-chain, and D4_MOVED at rank 2,
    # printing 34 witness sums whose rows are nonzero in the column the
    # restriction drops

    @pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
    def test_json_stdout_is_unchanged(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "d4-moved.arr").write_text(D4_MOVED)
        monkeypatch.chdir(tmp_path)  # the file's name is printed as given
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == EXIT_OK and '"essentialized": true' in out
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[argv]


class TestPoincareOutputs:
    # SHA-256 of the --json stdout, recorded while polynomials were divided
    # by four loops of their own: exponents printed (G(4,1,5)), an
    # empty-rank refutation over field order 5 (H3), and a no-chain product
    # whose polynomial is multiplied from its factors' (B2 x D4)
    STDOUT_SHA256 = {
        "G(4,1,5)": "7d5e227cda2f7afc1616a1e0cca1785be67a803d262c4a188461daaf700d4e66",
        "H3": "ac77160596b1cefefed5346913117545a42a5950509b1ac72d71da70bff5ed4b",
        "product(B2,D4)": "634fe101b27e576920c8b892afc2f2d40d3af14c6117d1a7d35fee2424a66d63",
    }

    @pytest.mark.parametrize("spec", sorted(STDOUT_SHA256))
    def test_json_stdout_is_unchanged(self, capsys, spec):
        code, out, _ = run_cli(capsys, "--json", "poincare", spec)
        assert code == EXIT_OK
        assert sha256(out) == self.STDOUT_SHA256[spec]


class TestCoverOutputs:
    # SHA-256 of the --json stdout, recorded while a per-flat cover table,
    # built apart from the incidence masks, served the Moebius walk and the
    # chain search: the polynomial of a rank-6 lattice, and a chain climbed
    # through ranks 2 to 4 by its upper covers
    STDOUT_SHA256 = {
        ("poincare", "G(2,2,6)"):
            "efb322fea39437ae0b496c60e58bc51cef1f79564ec855f8f3defabb78edfe27",
        ("supersolvable", "G(2,1,5)"):
            "eb50819e61c7c61aac1b4e23624e648ce4d66014d22484dba6d2dbe92037532f",
    }

    @pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
    def test_json_stdout_is_unchanged(self, capsys, argv):
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == EXIT_OK
        assert sha256(out) == self.STDOUT_SHA256[argv]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


NESTED_A2 = "product(" * 100 + "A2" + ", A2)" * 100


class TestRenderedOutputs:
    """Pins recorded while every printed coefficient was still decoded into a
    field element; the renderer that reads packed rows prints the same bytes.
    Human stdout holds the report alone (the ``time`` lines go to stderr),
    so its pins cover all of it."""

    JSON_SHA256 = {
        ("modular", "G31", "--rank", "2"):
            "82b26d10ce680d4826d35e7f7a8c4105885cc96b1b778b2569f6a30eafcc4c66",
        ("modular", "H3", "--rank", "2"):
            "85e216a2a77231932f1b17596cb2d62170319de8219ce6aea20c2a0fe49ed99c",
        ("supersolvable", "product(D4,D4)"):
            "62cacf733d4eb3a147cf7db44967037507e2ddb336fb1ea9f0728226a8f082db",
        ("build", "G26"):
            "2ffac37d6c15f86272d34308412e986764bfbd05653c38200dfd46531c14f2eb",
        # lines the pass over level 3 finds no partner for, scanned from
        # rank 3 on, which finds their partners there or finds them modular
        ("modular", "G(2,2,6)", "--rank", "2"):
            "9905b446c05cfba0781b70e15701b7f3441b5ca9769f0c21b0c0bb48a5787fd6",
        ("modular", "F4", "--rank", "2"):
            "12a6ff718305c0e85fdc00ea01f1b8e6f8fa4c1b0c88d1285027645de15e0bf1",
        ("modular", "D4", "--rank", "2"):
            "d0629f177ed59685bcfe85737baf38ce226ad2dac42ad7114b3f78634cd78f17",
        ("modular", "G(4,1,5)", "--rank", "2"):
            "47ea27771cc1846fe93e13d88a2bcd44f2671453b0823f0611f3ab5cee43f1e5",
    }
    HUMAN_SHA256 = {
        ("modular", "H3", "--rank", "2"):
            "9be80643e2e78e88efcbf36723866806940c191c31c806e8b17aafa601d96635",
        ("build", "G29"):
            "b289bb225c991c422b130bc8f5bc1c2b8ddbd839d24580123d5023fab8f9e1a6",
        # the Poincare polynomial and exponents lines, and a no-chain
        # refutation, recorded from the renderer that reads packed rows
        ("poincare", "A(3)"):
            "ddb28d39dd349ccb24bcf4bc98094bbc0cdd1f6c004de8b008febf3957418c90",
        ("supersolvable", "product(B2,D4)"):
            "96103cd75389df38b92f2bd1f5fc79748c35f0e34fffa7833f8be645d889f1ad",
    }
    # arrangement_to_text writes the benchmark's input files, so these bytes
    # also fix what the ``lattice`` workload reads (before it shuffles)
    TEXT_SHA256 = {
        "G31": "967a63f030853dd2a64c0f3841c3a2c5d26a3ce83869b81be208a1cb19a93a85",
        "G29": "1120833439da569482c21b4d7480d572db9010794a7cf88fc20ef51a9a02609f",
        "G(4,1,5)": "4db78a2ddb275528e86d8a05071e5a6c02c07129b81a0e7870b974793bb11789",
        "G(3,3,5)": "b557a725742d7f556ea082c74de739487c72b542fd3c9754cd6f5d3a54088c62",
        "F4": "9a46817a58b1364c56fc3d7a320c6d42400a671c4886bbf5cde2f2d88885c68e",
        "G(2,2,6)": "e2a750216f3b63bb86804bd839c77cb040a82ede74ce672cbfce9c91f681e34d",
        NESTED_A2: "6a73b32b6a216a1f78ba6766e7f19460c4badfc9e11ed89e8521a1675ea47db6",
    }

    @pytest.mark.parametrize("argv", sorted(JSON_SHA256))
    def test_json_stdout_is_unchanged(self, capsys, argv):
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == EXIT_OK
        assert sha256(out) == self.JSON_SHA256[argv]

    @pytest.mark.parametrize("argv", sorted(HUMAN_SHA256))
    def test_human_stdout_is_unchanged(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert sha256(out) == self.HUMAN_SHA256[argv]

    def test_human_stdout_of_a_repeated_form(self, capsys, tmp_path):
        path = tmp_path / "repeated.arr"
        path.write_text("ambient 2 field 1\na\na\nb\n")
        code, out, _ = run_cli(capsys, "poincare", str(path))
        assert code == EXIT_OK
        assert out == f"""\
arrangement {path}: 2 hyperplanes in C^2, field order 1, rank 2
  1 duplicate input forms removed
lattice: 4 flats, level sizes [1, 2, 1]
supersolvable: True
  modular chain:
    rank 0: full space
    rank 1: a
    rank 2: a ; b
poincare polynomial: 1 + 2*t + t^2
exponents: [1, 1]
"""

    @pytest.mark.parametrize("spec", sorted(TEXT_SHA256), ids=lambda s: s[:12])
    def test_arrangement_text_is_unchanged(self, spec):
        from hyparr.arrangement import arrangement_to_text

        _, arr = resolve_spec(spec)
        assert sha256(arrangement_to_text(arr)) == self.TEXT_SHA256[spec]
