import json
import os

import pytest

from chiralring.cli import run, CHECK_NAMES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _run_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = run(args + ["--json", str(out)])
    return code, json.loads(out.read_text())


def test_unknown_check_rejected_before_compute(tmp_path, capsys):
    code = run(["--algebra", "A", "2", "--checks", "nosuch"])
    assert code == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_rejected_before_compute(tmp_path, capsys, cap):
    out = tmp_path / "report.json"
    code = run(["--algebra", "A", "1", "--checks", "all",
                "--max-monomials", cap, "--json", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "--max-monomials" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unsupported_algebra(tmp_path):
    assert run(["--algebra", "Q", "9"]) == 2
    assert run(["--algebra", "A", "99"]) == 2


def test_sl2_all_checks_pass(tmp_path):
    code, doc = _run_json(tmp_path, ["--algebra", "A", "1", "--checks", "all"])
    assert code == 0
    assert doc["report"]["all_passed"]
    verdicts = {r["name"]: r["verdict"]
                for r in doc["report"]["runs"][0]["results"]}
    assert set(verdicts) == set(CHECK_NAMES)
    assert all(v == "pass" for v in verdicts.values())


def test_g2_combinatorics(tmp_path):
    code, doc = _run_json(tmp_path, ["--algebra", "G", "2",
                                     "--checks", "abideals,poincare"])
    assert code == 0
    results = doc["report"]["runs"][0]["results"]
    assert [r["verdict"] for r in results] == ["pass", "pass"]
    assert results[0]["count"] == 4


def test_g2_heavy_gate(tmp_path):
    code, doc = _run_json(tmp_path, ["--algebra", "G", "2",
                                     "--checks", "cdsw-ii"])
    assert code == 0
    assert doc["report"]["runs"][0]["results"][0]["verdict"] == "skipped"


def test_cap_hit_explicit_check_exit_code(tmp_path):
    # B4 has g = 7: the (7,7) component blows past a tiny cap
    code, doc = _run_json(tmp_path, ["--algebra", "B", "4", "--checks",
                                     "cdsw-ii", "--max-monomials", "1000"])
    assert code == 3
    res = doc["report"]["runs"][0]["results"][0]
    assert res["verdict"] == "skipped"
    assert res.get("cap_hit")


def test_cap_skip_under_all_is_exit_zero(tmp_path):
    code, doc = _run_json(tmp_path, ["--algebra", "B", "3", "--checks", "all",
                                     "--max-monomials", "2000"])
    assert code == 0
    verdicts = {r["name"]: r["verdict"]
                for r in doc["report"]["runs"][0]["results"]}
    assert verdicts["roots"] == "pass"
    assert verdicts["abideals"] == "pass"
    assert verdicts["cdsw-ii"] == "skipped"


def test_report_deterministic(tmp_path):
    _, doc1 = _run_json(tmp_path, ["--algebra", "A", "1", "--checks", "all"])
    _, doc2 = _run_json(tmp_path, ["--algebra", "A", "1", "--checks", "all"])
    assert doc1["report"] == doc2["report"]
    assert "timings" in doc1 and doc1["report"].get("timings") is None


@pytest.mark.parametrize("label,args", [
    ("A1", ["--algebra", "A", "1"]),
    ("A2", ["--algebra", "A", "2"]),
])
def test_golden_reports(tmp_path, label, args):
    code, doc = _run_json(tmp_path, args + ["--checks", "all"])
    assert code == 0
    golden = json.load(open(os.path.join(GOLDEN_DIR, "report_%s.json" % label)))
    assert doc["report"] == golden


def test_mode_and_seed_options_removed():
    """There is one certified field: --mode and --seed are unknown options."""
    assert run(["--algebra", "A", "1", "--mode", "exact"]) == 2
    assert run(["--algebra", "A", "1", "--seed", "11"]) == 2


def test_export_lie(tmp_path):
    out = tmp_path / "lie.json"
    code = run(["--algebra", "A", "2", "--checks", "roots",
                "--export-lie", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 8
    assert "vector" in doc["representations"]
    assert run(["--checks", "roots", "--export-lie", str(out)]) == 2
