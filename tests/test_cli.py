"""Command-line interface: output formats and exit codes."""
import json
import os

import pytest

from cgquantum.cli import main
from cgquantum.schubert import default_data_dir


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


def test_trace_form_is_reported_when_the_cubic_fails(capsys, tmp_path):
    path = _write_shipped_table(tmp_path, _s1_s1_coefficient_of_s2(-5))
    code, out, err = run_cli(capsys, "--table-file", path,
                             "verify", "--suite", "spectral")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert any(line.startswith("[fail] spectral:dominant_real_simple")
               for line in lines)
    assert "[pass] spectral:trace_form_nondegenerate" in lines
