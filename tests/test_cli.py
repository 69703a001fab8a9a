import json
import os
from collections import Counter

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


def test_g2_heavy_option_removed():
    """The monomial cap is the one resource guard: --g2-heavy is unknown."""
    assert run(["--algebra", "G", "2", "--g2-heavy"]) == 2


def test_g2_cap_skips_c23(tmp_path):
    """G2 runs every check the cap allows: c1 passes, and c2/c3, which
    needs the (5,5) component, hits the default cap."""
    code, doc = _run_json(tmp_path, ["--algebra", "G", "2",
                                     "--checks", "conj-c1,conj-c23"])
    assert code == 3
    c1, c23 = doc["report"]["runs"][0]["results"]
    assert c1["verdict"] == "pass"
    assert c23["verdict"] == "skipped"
    assert c23["cap_hit"]


@pytest.mark.parametrize("checks", ["", ",", " , ", "cdsw-ii,cdsw-ii"])
def test_empty_check_list_rejected(tmp_path, capsys, checks):
    """An empty check list, or one that names a check twice, is a
    configuration error that names the check."""
    out = tmp_path / "report.json"
    code = run(["--algebra", "A", "1", "--checks", checks,
                "--json", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "--checks" in captured.err
    assert all(c in captured.err for c in checks.split(",") if c.strip())
    assert captured.out == ""
    assert not out.exists()


def test_failed_check_reports_witness(tmp_path, capsys, monkeypatch):
    """A wrong S-power membership fails cdsw-ii and cdsw-iii with S^k as
    the witness, and the run exits 1."""
    from chiralring import cli
    inner = cli.check_S_power

    def flipped(ws, k, mode=None):
        res = inner(ws, k, mode)
        return dict(res, contained=not res["contained"])

    monkeypatch.setattr(cli, "check_S_power", flipped)
    code, doc = _run_json(tmp_path, ["--algebra", "A", "1",
                                     "--checks", "cdsw-ii,cdsw-iii"])
    assert code == 1
    assert doc["report"]["all_passed"] is False
    ii, iii = doc["report"]["runs"][0]["results"]
    assert (ii["k"], ii["s_power_in_ideal"]) == (2, False)
    assert (iii["k"], iii["s_power_in_ideal"]) == (1, True)
    out = capsys.readouterr().out
    for res in (ii, iii):
        assert res["verdict"] == "fail"
        assert res["witness"]
        assert "  witness: %s" % res["witness"] in out
    assert "trace_S_constant" in ii and "trace_S_constant" not in iii


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


def test_each_span_eliminated_once(tmp_path, monkeypatch):
    """A2 --checks all asks about 18 distinct weight-zero ideal spans (the
    CLI's workspace and the one sl(n) remark builds); each is eliminated
    once, and the report is the golden one."""
    from chiralring.cdsw import core

    builds, workspaces = Counter(), []
    rows = core.ideal_rows

    def counted(ws, families, p, q, weight, symmetries=()):
        if ws not in workspaces:
            workspaces.append(ws)
        builds[workspaces.index(ws), frozenset(families), p, q] += 1
        return rows(ws, families, p, q, weight, symmetries)

    monkeypatch.setattr(core, "ideal_rows", counted)
    code, doc = _run_json(tmp_path, ["--algebra", "A", "2", "--checks", "all"])
    assert code == 0
    assert len(workspaces) == 2
    assert sum(builds.values()) == len(builds) == 18
    golden = json.load(open(os.path.join(GOLDEN_DIR, "report_A2.json")))
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


def test_export_lie_g2(tmp_path):
    """G2 exports its 7-dimensional module: 14 matrices of size 7x7 with
    exact p/q entries."""
    out = tmp_path / "lie.json"
    code = run(["--algebra", "G", "2", "--checks", "roots",
                "--export-lie", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    rep = doc["representations"]["fundamental-7"]
    assert rep["dim"] == 7
    assert len(rep["matrices"]) == doc["dim"] == 14
    for m in rep["matrices"]:
        assert len(m) == 7 and all(len(row) == 7 for row in m)
        for row in m:
            for v in row:
                num, den = v.split("/")
                assert int(den) > 0
                int(num)


def test_one_invariant_kernel_per_bidegree(tmp_path, monkeypatch):
    """Part (i), c1 and c2/c3 share each invariant basis of B2: one kernel
    per (action table, p, q) in an `--checks all` run.  Part (i)'s (3,3)
    span leaves 4 of its 756 columns free, so it takes the Casimir route
    and no (3,3) kernel is computed."""
    from chiralring import liemodule
    kernels = Counter()
    inner = liemodule.invariants

    def counting(action, p, q):
        kernels[(id(action), p, q)] += 1
        return inner(action, p, q)

    monkeypatch.setattr(liemodule, "invariants", counting)
    code, doc = _run_json(tmp_path, ["--algebra", "B", "2", "--checks", "all"])
    assert code == 0
    assert sorted((p, q) for _, p, q in kernels) == [
        (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)]
    assert set(kernels.values()) == {1}
