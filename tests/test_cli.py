"""Command-line interface: output formats and exit codes."""
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import cgquantum
from cgquantum.cli import main
from cgquantum.schubert import (MultiplicationTable, default_data_dir,
                                load_default_table)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_output(capsys):
    code, out, _ = run_cli(capsys, "product", "s2", "s2")
    assert code == 0
    assert out.strip() == "s4 + 2*s4p + 2*s4pp"


def test_product_identity(capsys):
    code, out, _ = run_cli(capsys, "product", "s0", "s7")
    assert code == 0
    assert out.strip() == "s7"


def test_product_quantum_terms_ascending(capsys):
    code, out, _ = run_cli(capsys, "product", "s7", "s7")
    assert code == 0
    assert out.strip() == "q^2*s6 + q^2*s6p + q^3*s2 + q^3*s2p"


def test_product_unknown_label(capsys):
    code, _, err = run_cli(capsys, "product", "s2", "sigma9")
    assert code == 2
    assert "unknown label" in err


def test_gw_value(capsys):
    code, out, _ = run_cli(capsys, "gw", "1", "s3", "s1", "s8")
    assert code == 0
    assert out.strip() == "2"


def test_gw_degree_out_of_range(capsys):
    code, _, err = run_cli(capsys, "gw", "5", "s1", "s1", "s1")
    assert code == 2


def test_product_json_lists_terms_in_plain_order(capsys):
    code, out, err = run_cli(capsys, "--json", "product", "s7", "s7")
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"label": "s6", "q": 2, "coeff": "1"},
                               {"label": "s6p", "q": 2, "coeff": "1"},
                               {"label": "s2", "q": 3, "coeff": "1"},
                               {"label": "s2p", "q": 3, "coeff": "1"}]


@pytest.mark.parametrize("a, b", [("s2", "s2"), ("s8", "s8"), ("s5p", "s2")])
def test_product_json_terms_load_back_as_the_table_record(capsys, a, b):
    code, out, _ = run_cli(capsys, "--json", "product", a, b)
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        raw = json.load(fh)
    record = next(r for r in raw["products"] if {r["a"], r["b"]} == {a, b})
    record["terms"] = json.loads(out)
    assert MultiplicationTable.from_dict(raw).constants == \
        load_default_table().constants


def test_gw_json_is_a_string(capsys):
    code, out, err = run_cli(capsys, "--json", "gw", "1", "s3", "s1", "s8")
    assert (code, json.loads(out), err) == (0, "2", "")


def test_product_and_gw_json_keep_a_fraction_exact(capsys, tmp_path):
    def halve_s4_in_s2_s2(raw):
        record = next(r for r in raw["products"] if r["a"] == r["b"] == "s2")
        next(t for t in record["terms"] if t["label"] == "s4")["coeff"] = "1/2"

    path = _write_shipped_table(tmp_path, halve_s4_in_s2_s2)
    for argv, plain, as_json in [
            (["product", "s2", "s2"], "1/2*s4 + 2*s4p + 2*s4pp",
             [{"label": "s4", "q": 0, "coeff": "1/2"},
              {"label": "s4p", "q": 0, "coeff": "2"},
              {"label": "s4pp", "q": 0, "coeff": "2"}]),
            (["gw", "0", "s2", "s2", "s4"], "1/2", "1/2")]:
        code, out, _ = run_cli(capsys, "--table-file", path, *argv)
        assert (code, out) == (0, plain + "\n")
        code, out, _ = run_cli(capsys, "--table-file", path, "--json", *argv)
        assert (code, json.loads(out)) == (0, as_json)


def test_scenario_single(capsys):
    code, out, _ = run_cli(capsys, "scenario", "4.1.8")
    assert code == 0
    assert out.strip() == "main=7 correction=1 value=6"


def test_scenario_all_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "scenario", "--all")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 12
    assert data["4.2.3"] == {"main": "3", "correction": "1", "value": "2"}


def test_scenario_unknown(capsys):
    code, _, err = run_cli(capsys, "scenario", "1.2.3")
    assert code == 2


def test_charpoly_format(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--q", "1")
    assert code == 0
    assert out.strip() == "t^15 - 102 t^11 + 317 t^7 - 2048 t^3"


def test_charpoly_classical_limit(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--q", "0")
    assert code == 0
    assert out.strip() == "t^15"


def test_verify_table_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "table")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("[pass]") for l in lines)
    assert any("associativity" in l for l in lines)


def test_verify_all_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "--suite", "scenarios")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["suite"] == "scenarios"
    assert len(data["checks"]) == 12


def test_verify_missing_table_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "--table-file",
                           str(tmp_path / "missing.json"),
                           "verify", "--suite", "table")
    assert code == 2
    assert "data error" in err


def test_malformed_table_file(capsys, tmp_path):
    bad = tmp_path / "table.json"
    bad.write_text("{\"labels\": \"nope\"}")
    code, _, err = run_cli(capsys, "--table-file", str(bad),
                           "product", "s1", "s1")
    assert code == 2


def test_derive_reports_closure(capsys):
    code, out, _ = run_cli(capsys, "derive")
    assert code == 0
    assert "a3=2" in out
    assert "a7=0" in out
    assert "0 entries" in out


def test_conjecture_o_output(capsys):
    code, out, _ = run_cli(capsys, "conjecture-o")
    assert code == 0
    assert "12.617596033" in out
    assert "True" in out


def test_conjecture_o_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "conjecture-o")
    assert code == 0
    data = json.loads(out)
    assert data["bound_T_gt_9"] is True
    assert data["shape_t3_f_t4"] is True
    assert data["char_poly"]["3"] == "-2048"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("argv, golden", [
    (["conjecture-o"], "conjecture_o.txt"),
    (["--json", "conjecture-o"], "conjecture_o.json"),
    (["--json", "verify", "--suite", "spectral"], "verify_spectral.json"),
])
def test_spectral_output_is_pinned(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    with open(os.path.join(GOLDEN, golden)) as fh:
        assert out == fh.read()
    assert (code, err) == (0, "")


def test_charpoly_output_is_pinned(capsys):
    with open(os.path.join(GOLDEN, "charpoly.json")) as fh:
        golden = json.load(fh)
    for q, want in golden.items():
        for style, argv in (("plain", ["charpoly", f"--q={q}"]),
                            ("json", ["--json", "charpoly", f"--q={q}"])):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (0, want[style], ""), (q, style)


def _write_shipped_table(tmp_path, mutate):
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        raw = json.load(fh)
    mutate(raw)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("mutate", [
    lambda raw: raw["products"][4]["terms"][0].pop("coeff"),
    lambda raw: raw.update(products=5),
], ids=["term-without-coeff", "products-not-a-list"])
def test_table_schema_error_is_a_data_error(capsys, tmp_path, mutate):
    path = _write_shipped_table(tmp_path, mutate)
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "table")
    assert code == 2
    assert out == ""
    assert err.startswith("data error: ")
    assert len(err.splitlines()) == 1


def _write_shipped_giambelli(tmp_path, mutate):
    with open(os.path.join(default_data_dir(), "cg_giambelli.json")) as fh:
        raw = json.load(fh)
    mutate(raw)
    path = tmp_path / "giambelli.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("mutate", [
    lambda raw: raw.update(s2=5),
    lambda raw: raw["s3"][0].pop("exponents"),
    lambda raw: raw["s3"][0].pop("coeff"),
    lambda raw: raw["s3"][0].update(exponents=[3, 0]),
    lambda raw: raw["s3"][0].update(exponents=[4, -1, 0]),
    lambda raw: raw["s3"][0].update(exponents=["3", 0, 0]),
], ids=["terms-not-a-list", "term-without-exponents", "term-without-coeff",
        "two-exponents", "negative-exponent", "string-exponent"])
def test_giambelli_schema_error_is_a_data_error(capsys, tmp_path, mutate):
    path = _write_shipped_giambelli(tmp_path, mutate)
    code, out, err = run_cli(capsys, "--giambelli-file", path,
                             "verify", "--suite", "presentation")
    assert code == 2
    assert out == ""
    assert err.startswith("data error: ")
    assert len(err.splitlines()) == 1


def test_unreadable_giambelli_file_is_a_data_error(capsys, tmp_path):
    # a directory cannot be opened as a file; an unreadable file (no read
    # permission) takes the same path but cannot be set up as root
    code, out, err = run_cli(capsys, "--giambelli-file", str(tmp_path),
                             "verify", "--suite", "presentation")
    assert (code, out) == (2, "")
    assert err.startswith("data error: ")
    assert len(err.splitlines()) == 1


def _s1_s1_coefficient_of_s2(value):
    def mutate(raw):
        rec = next(r for r in raw["products"] if (r["a"], r["b"]) == ("s1", "s1"))
        next(t for t in rec["terms"] if t["label"] == "s2")["coeff"] = value
    return mutate


@pytest.mark.parametrize("argv, failing", [
    (["conjecture-o"], "dominant eigenvalue real and simple: False"),
    (["verify", "--suite", "spectral"], "[fail] spectral:dominant_real_simple"),
], ids=["conjecture-o", "verify-spectral"])
def test_cubic_without_positive_root_is_a_verification_failure(
        capsys, tmp_path, argv, failing):
    # f = y^3 - 48 y^2 + 455 y + 4864 has a single real root, and it is
    # negative, so there is no dominant root to isolate in (0, bound]
    path = _write_shipped_table(tmp_path, _s1_s1_coefficient_of_s2(-5))
    code, out, err = run_cli(capsys, "--table-file", path, *argv)
    assert code == 1
    assert err == ""
    assert failing in out


@pytest.mark.parametrize("argv, golden", [
    (["--json", "verify", "--suite", "presentation"],
     "verify_presentation.json"),
    (["--json", "verify", "--suite", "pipeline"], "verify_pipeline.json"),
    (["--json", "derive"], "derive.json"),
])
def test_presentation_output_is_pinned(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    with open(os.path.join(GOLDEN, golden)) as fh:
        assert out == fh.read()
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv, golden", [
    (["scenario", "--all"], "scenario_all.txt"),
    (["--json", "scenario", "--all"], "scenario_all.json"),
    (["verify", "--suite", "all"], "verify_all.txt"),
    (["--json", "verify", "--suite", "all"], "verify_all.json"),
])
def test_full_output_is_pinned(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    with open(os.path.join(GOLDEN, golden)) as fh:
        assert out == fh.read()
    assert (code, err) == (0, "")


@pytest.mark.parametrize("mutate, message", [
    (lambda raw: raw.update(s9=[]), "unknown label 's9' in dictionary"),
    (lambda raw: raw.update(s3=[{"exponents": [2, 0, 0], "coeff": 1}]),
     "dictionary entry for s3 is not homogeneous of degree 3"),
    (lambda raw: raw.pop("s8"), "dictionary must cover all 15 labels"),
], ids=["unknown-label", "wrong-degree-entry", "missing-label"])
def test_giambelli_content_error_is_a_data_error(capsys, tmp_path, mutate,
                                                 message):
    path = _write_shipped_giambelli(tmp_path, mutate)
    code, out, err = run_cli(capsys, "--giambelli-file", path,
                             "verify", "--suite", "presentation")
    assert (code, out, err) == (2, "", f"data error: {message}\n")


@pytest.mark.parametrize("suite, loads, scenarios", [
    ("all", 1, 12), ("table", 1, 0), ("scenarios", 0, 12),
    ("pipeline", 1, 12), ("spectral", 1, 0),
])
def test_verify_computes_shared_inputs_once(capsys, monkeypatch, suite,
                                            loads, scenarios):
    from cgquantum import intersection
    from cgquantum.schubert import MultiplicationTable
    calls = {"load": 0, "scenario": 0}
    load, run_scenario = MultiplicationTable.load.__func__, \
        intersection.run_scenario

    def counted_load(cls, path):
        calls["load"] += 1
        return load(cls, path)

    def counted_scenario(sid):
        calls["scenario"] += 1
        return run_scenario(sid)

    monkeypatch.setattr(MultiplicationTable, "load",
                        classmethod(counted_load))
    monkeypatch.setattr(intersection, "run_scenario", counted_scenario)
    code, _, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert calls == {"load": loads, "scenario": scenarios}


def _count_change_of_basis(monkeypatch):
    from cgquantum import presentation
    degrees = []
    change_of_basis = presentation._change_of_basis

    def counted(quotient, giambelli, degree):
        degrees.append(degree)
        return change_of_basis(quotient, giambelli, degree)

    monkeypatch.setattr(presentation, "_change_of_basis", counted)
    return degrees


def test_verify_all_computes_the_products_once(capsys, monkeypatch):
    # the derived presentation is the shipped one, so the pipeline reuses
    # the presentation suite's products: one map for each degree 0-16
    degrees = _count_change_of_basis(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert sorted(degrees) == list(range(17))


def _report_lines(suite, report):
    return [f"[{c['status']}] {suite}:{c['id']}"
            + (f" -- {c['detail']}" if c["detail"] and c["status"] == "fail"
               else "") for c in report["checks"]]


def _golden_verify_all_with(suite, lines):
    with open(os.path.join(GOLDEN, "verify_all.txt")) as fh:
        want = fh.read().splitlines()
    at = [i for i, line in enumerate(want) if f" {suite}:" in line]
    return want[:at[0]] + lines + want[at[-1] + 1:]


def _presentation_fault(section, name):
    with open(os.path.join(GOLDEN, "presentation_faults.json")) as fh:
        return json.load(fh)[section][name]


def test_verify_all_recomputes_the_products_of_another_dictionary(
        capsys, monkeypatch, tmp_path):
    # with +1 on a Giambelli coefficient the presentation suite's products
    # are not those of the derived presentation, which closes the loop on
    # products of its own
    def mutate(raw):
        term = raw["s4p"][1]
        term["coeff"] = str(Fraction(term["coeff"]) + 1)

    path = _write_shipped_giambelli(tmp_path, mutate)
    degrees = _count_change_of_basis(monkeypatch)
    code, out, err = run_cli(capsys, "--giambelli-file", path,
                             "verify", "--suite", "all")
    report = _presentation_fault("giambelli", "s4p term 1 +1")
    assert (code, err) == (1, "")
    assert out.splitlines() == _golden_verify_all_with(
        "presentation", _report_lines("presentation", report))
    assert sorted(degrees) == sorted(list(range(17)) * 2)


def test_verify_all_reuses_the_products_on_a_table_fault(
        capsys, monkeypatch, tmp_path):
    # +1 on the q-term of s4*s1 leaves the derived presentation the
    # shipped one; the reused products report what the pipeline reports
    def mutate(raw):
        rec = next(r for r in raw["products"]
                   if {r["a"], r["b"]} == {"s1", "s4"})
        next(t for t in rec["terms"] if t["label"] == "s1")["coeff"] += 1

    path = _write_shipped_table(tmp_path, mutate)
    degrees = _count_change_of_basis(monkeypatch)
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "all")
    result = _presentation_fault("table", "s4*s1 term s1 +1")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if " pipeline:" in line] == [
        "[pass] pipeline:chevalley_solved",
        "[pass] pipeline:top_q2_coefficient_zero",
        f"[fail] pipeline:loop_closed -- {result['diff_count']} differing "
        f"products, first: {result['diffs'][:3]}"]
    assert sorted(degrees) == list(range(17))


def test_a_huge_coefficient_fails_without_slices_past_the_top_row(
        capsys, monkeypatch, tmp_path):
    from cgquantum.presentation import GradedQuotient

    def mutate(raw):
        rec = next(r for r in raw["products"]
                   if {r["a"], r["b"]} == {"s1", "s2"})
        next(t for t in rec["terms"] if t["label"] == "s3")["coeff"] = \
            10 ** 100 + 1

    path = _write_shipped_table(tmp_path, mutate)
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "table")
    assert (code, err) == (1, "")
    assert [line.split(" -- ")[0] for line in out.splitlines()
            if line.startswith("[fail]")] == \
        ["[fail] table:gw_symmetry", "[fail] table:associativity"]

    built = []
    build_slice = GradedQuotient._build_slice

    def counted(self, degree, integral, below):
        built.append(degree)
        return build_slice(self, degree, integral, below)

    monkeypatch.setattr(GradedQuotient, "_build_slice", counted)
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "pipeline")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[fail] pipeline:loop_closed -- InconsistentSystem: top-row "
        "consistency equation has no rational solution"]
    # the top-row check reads degrees up to 9
    assert max(built) == 9


def test_spectral_suite_computes_each_charpoly_once(capsys, monkeypatch):
    from cgquantum import spectral
    q_values = []
    charpoly = spectral.sigma1_charpoly

    def counted(table, q_value):
        q_values.append(q_value)
        return charpoly(table, q_value)

    monkeypatch.setattr(spectral, "sigma1_charpoly", counted)
    code, _, _ = run_cli(capsys, "verify", "--suite", "spectral")
    assert code == 0
    assert sorted(q_values) == [1, 16]


def test_trace_form_is_reported_when_the_cubic_fails(capsys, tmp_path):
    path = _write_shipped_table(tmp_path, _s1_s1_coefficient_of_s2(-5))
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "spectral")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert any(line.startswith("[fail] spectral:dominant_real_simple")
               for line in lines)
    assert "[pass] spectral:trace_form_nondegenerate" in lines


def test_library_value_error_is_not_a_data_error(capsys, monkeypatch):
    from cgquantum import cli

    def broken(table):
        raise ValueError("a library fault, not a data fault")

    monkeypatch.setattr(cli, "verify_table", broken)
    with pytest.raises(ValueError, match="a library fault"):
        main(["verify", "--suite", "table"])
    captured = capsys.readouterr()
    assert "data error" not in captured.err


@pytest.mark.parametrize("option, content", [
    ("--table-file", b"\xff\xfe not UTF-8"),
    ("--table-file", b'{"labels": [' + b"9" * 5000 + b"]}"),
    ("--giambelli-file", b"\xff\xfe not UTF-8"),
    ("--giambelli-file", b'{"s0": [' + b"9" * 5000 + b"]}"),
    ("--giambelli-file", b"{"),
], ids=["table-not-utf8", "table-5000-digit-int", "giambelli-not-utf8",
        "giambelli-5000-digit-int", "giambelli-bad-json"])
def test_unparsable_data_file_is_a_data_error(capsys, tmp_path, option,
                                              content):
    path = tmp_path / "data.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, option, str(path),
                             "verify", "--suite", "presentation")
    assert (code, out) == (2, "")
    assert err.startswith("data error: ")
    assert len(err.splitlines()) == 1


def test_format_errors_share_one_data_error_base():
    from cgquantum.presentation import GiambelliFormatError
    from cgquantum.schubert import DataFormatError, TableFormatError
    for cls in (TableFormatError, GiambelliFormatError):
        assert issubclass(cls, DataFormatError)
    assert issubclass(DataFormatError, ValueError)


def _s1_s2_first_term_plus_one(raw):
    rec = next(r for r in raw["products"] if {r["a"], r["b"]} == {"s1", "s2"})
    rec["terms"][0]["coeff"] += 1


def test_derive_reports_an_inconsistent_system_as_a_failure(capsys, tmp_path):
    path = _write_shipped_table(tmp_path, _s1_s2_first_term_plus_one)
    code, out, err = run_cli(capsys, "--table-file", path, "derive")
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err == ("derivation failed: InconsistentSystem: top-row "
                   "consistency equation has no rational solution\n")


def test_pipeline_suite_reports_an_inconsistent_system_as_loop_closed(
        capsys, tmp_path):
    path = _write_shipped_table(tmp_path, _s1_s2_first_term_plus_one)
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "pipeline")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[fail] pipeline:loop_closed -- InconsistentSystem: top-row "
        "consistency equation has no rational solution"]


def test_verify_all_goes_on_past_an_inconsistent_system(capsys, tmp_path):
    path = _write_shipped_table(tmp_path, _s1_s2_first_term_plus_one)
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "all")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "[fail] pipeline:loop_closed -- InconsistentSystem: top-row " \
           "consistency equation has no rational solution" in lines
    spectral = [line for line in lines if " spectral:" in line]
    assert len(spectral) == 8
    assert lines[-8:] == spectral


def _s4_s2_gains(label):
    def mutate(raw):
        rec = next(r for r in raw["products"] if {r["a"], r["b"]} == {"s2", "s4"})
        rec["terms"].append({"label": label, "q": 0, "coeff": 1})
    return mutate


# s5 made the degree-six residual non-homogeneous (a ValueError), and s7
# a class the derivation has not reached (a KeyError)
@pytest.mark.parametrize("label", ["s5", "s7"])
def test_derive_reports_an_off_grade_s4_s2_term_as_a_failure(
        capsys, tmp_path, label):
    path = _write_shipped_table(tmp_path, _s4_s2_gains(label))
    code, out, err = run_cli(capsys, "--table-file", path, "derive")
    assert (code, out) == (1, "")
    assert err == ("derivation failed: InconsistentSystem: degree "
                   "bookkeeping failure\n")


@pytest.mark.parametrize("label", ["s5", "s7"])
def test_verify_reports_an_off_grade_s4_s2_term_as_loop_closed(
        capsys, tmp_path, label):
    path = _write_shipped_table(tmp_path, _s4_s2_gains(label))
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "pipeline")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[fail] pipeline:loop_closed -- InconsistentSystem: degree "
        "bookkeeping failure"]
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "all")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "[fail] pipeline:loop_closed -- InconsistentSystem: degree " \
           "bookkeeping failure" in lines
    assert len([line for line in lines if " spectral:" in line]) == 8


@pytest.mark.parametrize("argv, unbuffered", [
    # buffered, the closed pipe first shows when stdout is flushed
    (["product", "s2", "s2"], False),
    (["verify", "--suite", "table"], True),
    (["derive"], False),
    (["--json", "scenario", "--all"], True),
])
def test_closed_stdout_exits_141_without_a_message(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cgquantum.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cgquantum.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _readme_command_lines():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("cgq ")]
    assert lines
    return lines


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_examples_run(capsys, line):
    command, _, comment = line.partition("#")
    try:
        code = main(shlex.split(command)[1:])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    out = capsys.readouterr().out
    assert code == 0
    if comment.strip().startswith("->"):
        assert out.splitlines()[0] == comment.strip()[2:].strip()


def _first_giambelli_coeff(value):
    def mutate(raw):
        raw["s3"][0]["coeff"] = value
    return mutate


def _first_table_coeff(value):
    def mutate(raw):
        raw["products"][4]["terms"][0]["coeff"] = value
    return mutate


@pytest.mark.parametrize("option, write, suite", [
    ("--table-file", lambda tmp, v: _write_shipped_table(
        tmp, _first_table_coeff(v)), "table"),
    ("--giambelli-file", lambda tmp, v: _write_shipped_giambelli(
        tmp, _first_giambelli_coeff(v)), "presentation"),
], ids=["table", "giambelli"])
@pytest.mark.parametrize("value", ["1e5000", "1e100000", "2E0"])
def test_coefficient_with_an_exponent_is_a_data_error(capsys, tmp_path,
                                                      option, write, suite,
                                                      value):
    # Fraction would build the value in full: "1e100000" is 100001 digits
    path = write(tmp_path, value)
    code, out, err = run_cli(capsys, option, path, "verify", "--suite", suite)
    assert (code, out) == (2, "")
    assert err.startswith("data error: bad coefficient in ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["1e5000", "1E2", "1.5e-3"])
def test_charpoly_q_with_an_exponent_is_a_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "charpoly", f"--q={value}")
    assert (code, out, err) == (2, "", f"bad q value: {value}\n")


@pytest.mark.parametrize("value, want", [
    ("7", "t^15 - 714 t^11 + 15533 t^7 - 702464 t^3"),
    ("1/2", "t^15 - 51 t^11 + 317/4 t^7 - 256 t^3"),
    ("0.5", "t^15 - 51 t^11 + 317/4 t^7 - 256 t^3"),
])
def test_charpoly_q_parses_integers_fractions_and_decimals(capsys, value,
                                                           want):
    code, out, err = run_cli(capsys, "charpoly", f"--q={value}")
    assert (code, out, err) == (0, want + "\n", "")
