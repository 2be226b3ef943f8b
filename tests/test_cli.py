"""Exit codes, deterministic reports, and the single-object evaluators."""

import json
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from padiczeta import cli, testfn
from padiczeta.cli import (
    RunConfig,
    main,
    render_json,
    render_markdown,
    run_suite,
)


def test_runconfig_validation():
    RunConfig(suite="zeta", p=2, m=1, rank=2)
    with pytest.raises(ValueError):
        RunConfig(suite="nope", p=2, m=1, rank=2)
    with pytest.raises(ValueError):
        RunConfig(suite="zeta", p=4, m=1, rank=2)
    with pytest.raises(ValueError):
        RunConfig(suite="zeta", p=2, m=0, rank=2)
    with pytest.raises(ValueError):
        RunConfig(suite="zeta", p=2, m=1, rank=1)
    with pytest.raises(ValueError):
        RunConfig(suite="zeta", p=2, m=1, rank=2, pair_rank=2)


def test_negative_slope_max_is_a_config_error(capsys):
    # a negative slope bound scans no cell, so every check would pass on
    # nothing; it is refused before any suite runs
    RunConfig(suite="nicedomain-vanishing", p=2, m=1, rank=2, slope_max=0)
    with pytest.raises(ValueError, match="slope max"):
        RunConfig(suite="nicedomain-vanishing", p=2, m=1, rank=2,
                  slope_max=-1)
    assert main(["verify", "--suite", "nicedomain-vanishing", "--p", "2",
                 "--slope-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: slope max must be >= 0\n"


def test_exit_code_config_error(capsys):
    assert main(["verify", "--suite", "zeta", "--p", "4"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "unknown", "--p", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["--p", "4"], "p = 4 is not prime"),
    (["--p", "1"], "p = 1 is not prime"),
    (["--p", "2", "--m", "0"], "depth m must be >= 1"),
])
@pytest.mark.parametrize("command", [
    ["verify", "--suite", "zeta"],
    ["eval", "f", "--g", "1,0;0,1"],
])
def test_config_error_text(command, args, message, capsys):
    assert main(command + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def test_certificate_cap_is_a_failed_check(monkeypatch, capsys):
    """A cap that runs out inside a suite is a named failed check in a
    written report, not a traceback."""
    monkeypatch.setattr(testfn, "LEVEL_CAP", 1)
    assert main(["verify", "--suite", "testfn-agreement",
                 *VERIFY_ARGS]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["checks"] == [{"name": "certificate cap exceeded",
                                 "ok": False,
                                 "detail": "convolution level cap exceeded"}]


@pytest.mark.parametrize("error", [RecursionError, BrokenProcessPool,
                                   RuntimeError])
def test_other_errors_propagate_from_a_suite(monkeypatch, error):
    """Only a certificate cap becomes a failed check; any other error,
    RuntimeError subclasses included, propagates."""
    def broken(cfg):
        raise error("not a cap")

    monkeypatch.setitem(cli._SUITE_FNS, "volumes", broken)
    with pytest.raises(error, match="not a cap"):
        run_suite(RunConfig(suite="volumes", p=2, m=1, rank=2))


def test_exit_code_check_failure(monkeypatch, capsys):
    monkeypatch.setitem(cli._SUITE_FNS, "volumes",
                        lambda cfg: [{"name": "injected", "ok": False,
                                      "detail": {"witness": "1,0;0,1"}}])
    assert main(["verify", "--suite", "volumes", "--p", "2"]) == 1
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["ok"] is False
    assert report["checks"][0]["detail"]["witness"] == "1,0;0,1"


def test_verify_passing_suites(capsys):
    for suite in ("volumes", "zeta", "params-exhaustive", "concentration"):
        code = main(["verify", "--suite", suite, "--p", "2", "--m", "1",
                     "--rank", "2"])
        assert code == 0, suite
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "padiczeta-report/1"
        assert report["ok"] and all(c["ok"] for c in report["checks"])


def test_report_determinism():
    cfg = RunConfig(suite="zeta", p=2, m=1, rank=2)
    a = render_json(run_suite(cfg))
    b = render_json(run_suite(cfg))
    assert a == b
    assert json.loads(a)["schema"] == "padiczeta-report/1"


def test_jobs_invariance():
    base = dict(suite="nicedomain-vanishing", p=2, m=1, rank=2, slope_max=4)
    a = render_json(run_suite(RunConfig(**base, jobs=1)))
    b = render_json(run_suite(RunConfig(**base, jobs=2)))
    assert a == b


def test_nicedomain_suite_report():
    rep = run_suite(RunConfig(suite="nicedomain-vanishing", p=2, m=1,
                              rank=2))
    assert rep["ok"]
    thresh = next(c for c in rep["checks"]
                  if c["name"] == "vanishing threshold within linear bound")
    assert thresh["detail"]["rho0"] == 3
    assert thresh["detail"]["vT"] == 2


def test_markdown_render():
    rep = run_suite(RunConfig(suite="volumes", p=2, m=1, rank=2))
    text = render_markdown(rep)
    assert text.startswith("# suite `volumes`")
    assert "| support-volume | pass |" in text
    assert text.strip().endswith("overall: pass")


def test_out_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", "volumes", "--p", "3", "--m", "1",
                 "--rank", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["ok"]
    assert capsys.readouterr().out == ""


def test_eval_f(capsys):
    assert main(["eval", "f", "--g", "1,0;0,1", "--p", "2", "--m", "1"]) == 0
    val = json.loads(capsys.readouterr().out)
    assert val["value"]["coeffs"] == {"0": "1/1"}


def test_eval_iwasawa(capsys):
    assert main(["eval", "iwasawa", "--g", "1/2,0;1,1", "--p", "2"]) == 0
    val = json.loads(capsys.readouterr().out)
    assert val["a"].startswith("1/2")
    assert val["u"] == "1/1,0/1;2/1,1/1"


def test_eval_classify(capsys):
    assert main(["eval", "classify", "--u", "1,1/4;0,1", "--p", "2"]) == 0
    val = json.loads(capsys.readouterr().out)
    assert val["slope"] == 2 and val["pivot"] == [0, 1]


def test_eval_bruhat(capsys):
    assert main(["eval", "bruhat", "--g", "0,1;1,0", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["open_cell"] is False


@pytest.mark.parametrize("obj", ["f", "iwasawa", "W", "bruhat"])
def test_eval_singular_matrix_is_a_config_error(obj, capsys):
    # a singular matrix, and an entry with a zero denominator
    for g, message in [("1,1;1,1", "matrix is singular"),
                       ("1/0,0;0,1", "zero denominator in entry '1/0'")]:
        assert main(["eval", obj, "--p", "2", "--m", "1", "--g", g]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"


def test_eval_missing_matrix(capsys):
    assert main(["eval", "f", "--p", "2"]) == 2


def test_eval_W_peak(capsys):
    # the support peak sits at the antidominant diagonal (T^-2, T^-1)
    assert main(["eval", "W", "--g", "1/16,0;0,1/4", "--p", "2",
                 "--m", "1"]) == 0
    val = json.loads(capsys.readouterr().out)
    assert val["coefficient"]["sign"] == 1
    assert val["phase"]["coeffs"] == {"0": "1/1"}


def test_eval_Wfcg(capsys):
    assert main(["eval", "Wfcg", "--c", "1,0;0,1", "--p", "2",
                 "--m", "1"]) == 0
    val = json.loads(capsys.readouterr().out)
    assert "zero" in val


def test_eval_Wfcg_k_outside_K_is_a_config_error(capsys):
    for args, message in [
        # det k = 8 is not a unit at p = 2, so k is not in K
        (["--c", "1,0;0,1", "--a", "1/8,0;0,1", "--k", "6,7;4,6"],
         "k must lie in K"),
        # a k or an a of another size than c
        (["--c", "1/2,0;0,1/2", "--a", "1/4,0;0,1",
          "--k", "1,0,5;0,1,7;0,0,1"], "c, a and k must have the size of f"),
        (["--c", "1/2,0;0,1/2", "--a", "1/4,0,0;0,1,0;0,0,1"],
         "c, a and k must have the size of f"),
    ]:
        assert main(["eval", "Wfcg", "--p", "2", *args]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"


GOLDEN = Path(__file__).parent / "golden"
VERIFY_ARGS = ["--p", "2", "--m", "1", "--rank", "2"]
GOLDEN_RUNS = {
    **{f"verify-{suite}.json": ["verify", "--suite", suite, *VERIFY_ARGS]
       for suite in cli.SUITES},
    "verify-zeta.md": ["verify", "--suite", "zeta", *VERIFY_ARGS,
                       "--format", "markdown"],
    # a zero phase kept at order 3
    "eval-Wfcg-p3-zero.json": ["eval", "Wfcg", "--c", "1/3,0;0,1/3",
                               "--a", "1/9,0;0,1", "--k", "1,0;0,1",
                               "--p", "3", "--m", "1"],
    "eval-Wfcg-p2-order4.json": ["eval", "Wfcg", "--c", "1/2,0;0,1/2",
                                 "--a", "1/4,0;0,1", "--k", "0,1;1,1",
                                 "--p", "2", "--m", "1"],
    "eval-Wfcg-p2m2-zero.json": ["eval", "Wfcg", "--c", "1/4,0;0,1/4",
                                 "--a", "1/16,0;0,1", "--k", "1,0;0,1",
                                 "--p", "2", "--m", "2"],
    "eval-chi-p2.json": ["eval", "chi", "--g", "3,2;4,5", "--p", "2",
                         "--m", "1"],
    # Iwasawa u is unique only modulo a U(Z_p) a^-1, so these pin the
    # elimination order as well as the values
    "eval-iwasawa-p3-rank2.json": ["eval", "iwasawa", "--g",
                                   "2/9,5/3;1/6,7/4", "--p", "3"],
    "eval-iwasawa-p2-rank3.json": ["eval", "iwasawa", "--g",
                                   "1/2,3/4,5;2/3,1/6,7/2;9,1/8,3/5",
                                   "--p", "2"],
    "eval-iwasawa-p3-rank4.json": ["eval", "iwasawa", "--g",
                                   "1/3,2/9,5,1/2;2/3,1/6,7/2,4;"
                                   "9,1/8,3/5,1;1/27,2,0,5/4", "--p", "3"],
    # valuation ties in the pivot rows pin the leftmost tie-break
    "eval-iwasawa-p2-rank3-ties.json": ["eval", "iwasawa", "--g",
                                        "1/2,3/2,5;2/3,1/6,7/2;9,1/8,3/5",
                                        "--p", "2"],
    "eval-iwasawa-p3-rank3-ties.json": ["eval", "iwasawa", "--g",
                                        "2/9,5/9,1;1/6,7/4,2;1,1,1/3",
                                        "--p", "3"],
    "eval-bruhat-p3-open.json": ["eval", "bruhat", "--g",
                                 "1/2,3/4;2/3,5/6", "--p", "3"],
    "eval-bruhat-p2-rank4-open.json": ["eval", "bruhat", "--g",
                                       "1/2,3/4,5,1/3;2/3,1/6,7/2,2;"
                                       "9,1/8,3/5,1;1/4,2,0,5/4",
                                       "--p", "2"],
    # second leading minor vanishes
    "eval-bruhat-p2-rank3-closed.json": ["eval", "bruhat", "--g",
                                         "1/2,3/4,5;2/3,1,7/2;9,1/8,3/5",
                                         "--p", "2"],
    "eval-f-p2-rank2.json": ["eval", "f", "--g", "1/3,2;4/5,7/3",
                             "--p", "2", "--m", "1"],
    "eval-f-p2-rank3.json": ["eval", "f", "--g",
                             "1/3,2,2/7;4/5,7/3,0;2,4/9,1/5",
                             "--p", "2", "--m", "1"],
    "eval-f-p3-zero.json": ["eval", "f", "--g", "1/2,2;4/5,7/3",
                            "--p", "3", "--m", "1"],
    # a_T n y with n = (1,3/4;0,1), y = (3,2;4,5) in K(2)
    "eval-W-p2-support.json": ["eval", "W", "--g", "3/8,23/64;1,5/4",
                               "--p", "2", "--m", "1"],
    # a_T n y with n = (1,1/3,2/9;0,1,5/3;0,0,1), y in K(3)
    "eval-W-p3-rank3-support.json": ["eval", "W", "--g",
                                     "11/2187,10/2187,95/6561;"
                                     "2/81,1/81,62/243;1/3,0,7/9",
                                     "--p", "3", "--m", "1"],
    "eval-W-p3-off.json": ["eval", "W", "--g", "1/9,1/2;0,1/3",
                           "--p", "3", "--m", "1"],
    "eval-classify-p2-rank3.json": ["eval", "classify", "--u",
                                    "1,1/4,3/8;0,1,1/2;0,0,1", "--p", "2"],
    "eval-classify-p3-rank2.json": ["eval", "classify", "--u",
                                    "1,2/9;0,1", "--p", "3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_output(name, capsys):
    """stdout is byte-identical to the recorded report."""
    assert main(GOLDEN_RUNS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
