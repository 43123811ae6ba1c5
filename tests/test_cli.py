"""End-to-end tests for the command-line surface.

Commands run in-process through ``main(argv)`` with captured streams, so
the assertions cover the exact bytes a shell user sees: stdout payloads,
stderr messages, and exit codes (0 ok, 1 config/parse, 2 verified violation,
3 runtime evaluation failure).
"""

from __future__ import annotations

import json

import pytest

from fracon import cli
from fracon.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- integrate


def test_integrate_pinned_value_both_backends(capsys):
    """Gamma(3/2)/Gamma(2) = sqrt(pi)/2 printed at 15 significant digits."""
    for backend in ("exact", "rl"):
        code, out, err = run(capsys, ["integrate", "x^(a)", "0", "1",
                                      "--alpha", "0.5", "--backend", backend])
        assert code == 0
        assert out == f"0.886226925452758\nbackend: {backend}\n"
        assert err == ""


def test_integrate_auto_prefers_exact(capsys):
    code, out, _ = run(capsys, ["integrate", "x^(2a)", "0", "1", "--alpha", "0.5"])
    assert code == 0
    assert out.endswith("backend: exact\n")


def test_integrate_auto_falls_back_to_quadrature(capsys):
    code, out, _ = run(capsys, ["integrate", "x^(a)*(1 - x)^(a)", "0", "1",
                                "--alpha", "0.5"])
    assert code == 0
    assert out == "0.376126389031838\nbackend: rl\n"


def test_integrate_empty_interval_is_zero(capsys):
    code, out, _ = run(capsys, ["integrate", "x^(2a)", "0.3", "0.3", "--alpha", "0.5"])
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_integrate_reversed_orientation_negates(capsys):
    code, out, _ = run(capsys, ["integrate", "x^(a)", "1", "0", "--alpha", "0.5"])
    assert code == 0
    assert out.splitlines()[0] == "-0.886226925452758"


def test_integrate_forced_exact_rejects_nonmonomial(capsys):
    code, out, err = run(capsys, ["integrate", "abs(x)", "0", "1",
                                  "--alpha", "0.3", "--backend", "exact"])
    assert code == 1
    assert out == ""
    assert err.startswith("fracon: error: ")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["integrate", "1e300*x^(2a)", "0", "1e10", "--alpha", "1", "--backend", "exact"],
         "ValueError: non-finite scalar value inf"),
        (["diff", "1e300*x^(4a)", "--at", "1e100", "--alpha", "0.5"],
         "ValueError: non-finite scalar value inf"),
        (["integrate", "1e300*x^(2a)", "0", "1e10", "--alpha", "1", "--backend", "rl"],
         "EvalError: non-finite value in evaluation"),
    ],
    ids=["integrate", "diff", "integrate-rl"],
)
def test_overflowed_result_exit_three(capsys, argv, message):
    """An integral, derivative or integrand sample that overflows to inf is
    a runtime failure: one error line, no numpy warning (pytest turns a
    RuntimeWarning into an error)."""
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"fracon: {message}\n"


# ----------------------------------------------------------------------- diff


def test_diff_exact_mode(capsys):
    code, out, _ = run(capsys, ["diff", "x^(2a)", "--at", "3", "--alpha", "1.0"])
    assert code == 0
    assert out == "6\nmode: exact\n"


def test_diff_fd_mode(capsys):
    code, out, _ = run(capsys, ["diff", "x^(2a)", "--at", "3", "--alpha", "1.0",
                                "--mode", "fd"])
    assert code == 0
    value, mode = out.splitlines()
    assert mode == "mode: fd"
    assert float(value) == pytest.approx(6.0, abs=1e-4)


def test_diff_rejects_point_below_base(capsys):
    code, _, err = run(capsys, ["diff", "x^(2a)", "--at", "-1", "--alpha", "0.5"])
    assert code == 1
    assert "must be >=" in err


# -------------------------------------------------------------------- certify


def test_certify_clean_exit_zero(capsys):
    code, out, _ = run(capsys, ["certify", "--f", "square", "--eta", "difference",
                                "--alpha", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["status"] == "NoViolationFound"
    assert doc["results"]["witness"] is None


def test_certify_violation_exit_two(capsys):
    code, out, _ = run(capsys, ["certify", "--f", "negsquare", "--eta", "difference",
                                "--alpha", "1.0", "--c", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["results"]["status"] == "Violated"
    w = doc["results"]["witness"]
    assert w["defect"] <= -0.4
    assert doc["diagnostics"]["notes"] == ["counterexample found; defect below -tolerance"]


def test_certify_non_finite_defect_exit_three(capsys):
    """|x - y|^(2a) overflows on this interval, making 0 * inf defects."""
    code, out, err = run(capsys, ["certify", "--f", "const", "--eta", "difference",
                                  "--alpha", "1", "--c", "1", "--interval=-1e200,1e200"])
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("fracon: EvalError: non-finite defect nan at x=")


def test_certify_aggregates_all_config_problems(capsys):
    code, _, err = run(capsys, ["certify", "--alpha", "2.0", "--c", "-1",
                                "--interval", "5,1", "--grid", "3"])
    assert code == 1
    line = err.strip()
    for fragment in ("--f is required", "--eta is required",
                     "--alpha must be in (0, 1], got 2.0",
                     "--c must be >= 0, got -1.0",
                     "--interval needs a < b", "--grid must be >= 8"):
        assert fragment in line
    assert line.count("fracon: error:") == 1


@pytest.mark.parametrize(
    ("argv", "other"),
    [
        (["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5",
          "--refine", "-1"], "--refine must be >= 0, got -1"),
        (["sweep", "--alphas", "0.5", "--interval", "5,1"], "--interval needs a < b"),
    ],
    ids=["certify", "sweep"],
)
def test_grid_cap_is_a_config_error(capsys, monkeypatch, argv, other):
    """A grid over the cap is rejected with the other problems, before any work."""
    def no_lattice(*args, **kwargs):
        raise AssertionError("certify_gsc ran on a rejected grid")

    monkeypatch.setattr(cli, "certify_gsc", no_lattice)
    code, out, err = run(capsys, [*argv, "--grid", str(cli._MAX_GRID + 1)])
    assert code == 1
    assert out == ""
    assert f"--grid must be <= {cli._MAX_GRID}, got {cli._MAX_GRID + 1}" in err
    assert other in err
    assert err.count("fracon: error:") == 1


@pytest.mark.parametrize(
    "argv",
    [["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5"],
     ["sweep", "--alphas", "0.5"]],
    ids=["certify", "sweep"],
)
def test_refine_cap_is_a_config_error(capsys, monkeypatch, argv):
    """A refinement depth over the cap is exit 1 before any work, not an
    OverflowError from 3**(level - 1) at depth 648 and above."""
    def no_lattice(*args, **kwargs):
        raise AssertionError("certify_gsc ran on a rejected depth")

    monkeypatch.setattr(cli, "certify_gsc", no_lattice)
    for depth in (cli._MAX_REFINE + 1, 648):
        code, out, err = run(capsys, [*argv, "--refine", str(depth)])
        assert code == 1
        assert out == ""
        assert err == f"fracon: error: --refine must be <= {cli._MAX_REFINE}, got {depth}\n"


def test_consecutive_runs_share_no_state(capsys, tmp_path):
    """The parser is built once; a config-file run leaves nothing behind."""
    argv = ["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5"]
    _, plain, _ = run(capsys, argv)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c": 1.0, "interval": "-1,1", "grid": 12, "refine": 0,
                               "meta": "from-file"}))
    code, configured, _ = run(capsys, [*argv, "--config", str(cfg)])
    assert code == 2
    assert json.loads(configured)["config_echo"]["grid"] == 12
    assert run(capsys, argv)[1] == plain
    assert cli.build_parser() is cli.build_parser()


# ------------------------------------------------------------------- hh/fejer


def test_hh_classical_chain_exit_zero(capsys):
    code, out, _ = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                                "--alpha", "1.0"])
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["all_hold"] is True
    assert res["T1"] == pytest.approx(-0.25)
    assert res["T2"] == pytest.approx(1.0 / 3.0)
    assert res["T3"] == pytest.approx(0.5)
    assert res["T4"] == pytest.approx(1.0)
    assert doc["diagnostics"]["notes"] == ["m_eta estimated"]


def test_hh_fractional_break_reported_exit_two(capsys):
    """At al=0.3 the measured chain genuinely breaks at T2<=T3."""
    code, out, _ = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                                "--alpha", "0.3"])
    assert code == 2
    doc = json.loads(out)
    notes = doc["diagnostics"]["notes"]
    assert notes[0] == "m_eta estimated"
    assert any(n.startswith("link T2<=T3 fails by ") for n in notes)
    links = {l["name"]: l["holds"] for l in doc["results"]["links"]}
    assert links["T2<=T3"] is False


def test_hh_supplied_bound_below_known_eta_is_a_config_error(capsys):
    """M bounds eta over all pairs, (f(a), f(b)) and (f(b), f(a)) among them:
    for square on [0, 1], eta_ab = 0 - 1 and eta_ba = 1 - 0."""
    code, out, err = run(capsys, ["hh", *_SQUARE, "--alpha", "0.5", "--m-eta", "-1"])
    assert code == 1
    assert out == ""
    assert err == ("fracon: error: --m-eta must be >= max(eta_ab, eta_ba), got -1 "
                   "with eta_ab = -1 and eta_ba = 1\n")


def test_hh_supplied_bound_echoed(capsys):
    code, out, _ = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                                "--alpha", "1.0", "--m-eta", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config_echo"]["m_eta"] == 10.0
    assert doc["results"]["m_eta_source"] == "supplied"
    assert "m_eta supplied" in doc["diagnostics"]["notes"]


def test_fejer_classical_exit_zero(capsys):
    code, out, _ = run(capsys, ["fejer", "--f", "square", "--eta", "difference",
                                "--alpha", "1.0"])
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["F1"] == pytest.approx(0.25)
    assert res["F2"] == pytest.approx(1.0 / 3.0)
    assert res["F3"] == pytest.approx(0.5)
    assert res["all_hold"] is True


def test_fejer_asymmetric_weight_exit_one(capsys):
    code, _, err = run(capsys, ["fejer", "--f", "square", "--eta", "difference",
                                "--w", "x^(a)", "--alpha", "1.0"])
    assert code == 1
    assert "not symmetric" in err


@pytest.mark.parametrize(
    ("w", "alpha", "message"),
    [
        ("x", "0.5", "weight is not symmetric about the midpoint: max asymmetry 1.000e+00 "
                     "at x=0.0 (tol 2.000e-10)"),
        ("abs(x - 0.5) - 0.25", "1", "weight takes negative values: min -2.500e-01 at x=0.5"),
    ],
    ids=["asymmetric", "negative"],
)
def test_fejer_weight_precondition_messages(capsys, w, alpha, message):
    code, out, err = run(capsys, ["fejer", "--f", "square", "--eta", "difference",
                                  "--w", w, "--alpha", alpha])
    assert code == 1
    assert out == ""
    assert err == f"fracon: error: {message}\n"


def test_malformed_expression_exit_one_with_offset(capsys):
    code, _, err = run(capsys, ["hh", "--f", "x^(1.5a", "--eta", "difference",
                                "--alpha", "0.5"])
    assert code == 1
    assert err == "fracon: error: syntax error at offset 7: expected ')'\n"


def test_runtime_evaluation_failure_exit_three(capsys):
    code, _, err = run(capsys, ["integrate", "x^(-1)", "0", "1", "--alpha", "0.5",
                                "--backend", "rl"])
    assert code == 3
    assert err.startswith("fracon: ")


# ---------------------------------------------------------------------- sweep


_HEADER = ("alpha,c,eta_id,f_id,a,b,T1,T2,T3,T4,A1,A2,"
           "link12,link23,link34,min_defect,status,message")


def test_sweep_default_grid(capsys):
    code, out, err = run(capsys, ["sweep"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == _HEADER
    assert len(lines) == 49  # 4 alphas x 2 cs x 2 etas x 3 fs
    for line in lines[1:]:
        assert len(line.split(",")) == 18


def test_sweep_reruns_byte_identical(capsys):
    _, first, _ = run(capsys, ["sweep"])
    _, second, _ = run(capsys, ["sweep"])
    assert first == second


def test_sweep_single_cell(capsys):
    code, out, _ = run(capsys, ["sweep", "--alphas", "1.0", "--cs", "0",
                                "--etas", "difference", "--fs", "square"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[:6] == ["1", "0", "difference", "square", "0", "1"]
    assert row[12:15] == ["HOLDS", "HOLDS", "HOLDS"]
    assert row[16] == "NoViolationFound"


def test_sweep_error_rows_exit_three(capsys):
    code, out, _ = run(capsys, ["sweep", "--alphas", "0.5", "--cs", "0",
                                "--etas", "difference", "--fs", "x^(-1)"])
    assert code == 3
    row = out.splitlines()[1].split(",")
    assert row[16] == "ERROR"
    assert row[17].startswith("EvalError: ")
    assert row[6:16] == [""] * 10


def test_sweep_budget_exit_one(capsys):
    code, _, err = run(capsys, ["sweep", "--budget", "3"])
    assert code == 1
    assert err == "fracon: error: sweep would produce 48 rows, over the budget of 3\n"


def test_sweep_bad_expression_fails_before_any_row(capsys):
    code, out, err = run(capsys, ["sweep", "--fs", "x^(1.5a"])
    assert code == 1
    assert out == ""
    assert "syntax error" in err


# --------------------------------------------------------------------- axioms


def test_axioms_single_alpha_text(capsys):
    code, out, _ = run(capsys, ["axioms", "--alpha", "0.5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha=0.5  triples=1000  seed=2718"
    assert lines[-1] == "summary: iso=7/7 magnitude=6/7"
    assert "magnitude=DIVERGES" in out
    assert out.count("iso=PASS") == 7


def test_axioms_default_covers_four_orders(capsys):
    code, out, _ = run(capsys, ["axioms"])
    assert code == 0
    assert out.count("summary: iso=7/7") == 4
    assert out.count("magnitude=6/7") == 3
    assert out.count("magnitude=7/7") == 1


def test_axioms_json_blocks(capsys):
    code, out, _ = run(capsys, ["axioms", "--json", "--alpha", "0.5"])
    assert code == 0
    doc = json.loads(out)
    blocks = doc["results"]["blocks"]
    assert len(blocks) == 1
    rows = blocks[0]["rows"]
    assert [r["index"] for r in rows] == [1, 2, 3, 4, 5, 6, 7]
    assert all(r["iso"] == "PASS" for r in rows)
    assert rows[1]["magnitude"] == "DIVERGES"


def test_axioms_text_deterministic(capsys):
    _, first, _ = run(capsys, ["axioms"])
    _, second, _ = run(capsys, ["axioms"])
    assert first == second


def test_axioms_triples_cap_is_a_config_error(capsys, monkeypatch):
    """A --triples over the cap is rejected before any table is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("axiom_conformance ran on a rejected --triples")

    monkeypatch.setattr(cli, "axiom_conformance", no_table)
    code, out, err = run(capsys, ["axioms", "--triples", str(cli._MAX_TRIPLES + 1)])
    assert code == 1
    assert out == ""
    assert err == (f"fracon: error: --triples must be <= {cli._MAX_TRIPLES}, "
                   f"got {cli._MAX_TRIPLES + 1}\n")



def test_axioms_negative_seed_is_a_config_error(capsys, monkeypatch):
    """A negative --seed is rejected before any table is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("axiom_conformance ran on a rejected --seed")

    monkeypatch.setattr(cli, "axiom_conformance", no_table)
    code, out, err = run(capsys, ["axioms", "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert err == "fracon: error: --seed must be >= 0, got -1\n"


# ------------------------------------------------------------- config layering


def test_config_file_fills_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.3, "c": 1.0}))
    code, out, _ = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                                "--alpha", "1.0", "--config", str(cfg)])
    assert code == 0
    echo = json.loads(out)["config_echo"]
    assert echo["alpha"] == 1.0  # explicit flag beats the file
    assert echo["c"] == 1.0  # file beats the default


@pytest.mark.parametrize(
    ("cmd", "keys", "flags", "message"),
    [
        ("hh", {"bogus": 1}, [], "unknown keys for 'hh': bogus"),
        # --grid/--refine size the certify lattice; hh and fejer have none.
        ("hh", {"grid": 20, "refine": 2}, [], "unknown keys for 'hh': grid, refine"),
        ("fejer", {"refine": 2}, [], "unknown keys for 'fejer': refine"),
        ("hh", {}, ["--grid", "20"], "unrecognized arguments: --grid 20"),
        ("fejer", {}, ["--grid", "20", "--refine", "2"],
         "unrecognized arguments: --grid 20 --refine 2"),
        # Namespace entries that are not options are not config keys.
        ("hh", {"func": 1}, [], "unknown keys for 'hh': func"),
    ],
    ids=["hh-bogus", "hh-grid-refine-key", "fejer-refine-key", "hh-grid-flag",
         "fejer-grid-refine-flag", "hh-func-key"],
)
def test_config_unknown_key_exit_one(capsys, tmp_path, cmd, keys, flags, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(keys))
    code, _, err = run(capsys, [cmd, "--f", "square", "--eta", "difference",
                                "--config", str(cfg), *flags])
    assert code == 1
    assert message in err
    assert err.count("fracon: error:") == 1


def test_config_invalid_json_exit_one(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{nope")
    code, _, err = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                                "--config", str(cfg)])
    assert code == 1
    assert "is not valid JSON" in err


def test_config_missing_file_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                                "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "fracon: error:" in err


_SQUARE = ["--f", "square", "--eta", "difference"]


@pytest.mark.parametrize(
    ("argv", "config"),
    [
        (["hh", *_SQUARE, "--alpha", "0.5", "--m-eta", "nan"], None),
        (["hh", *_SQUARE, "--alpha", "0.5", "--c", "inf"], None),
        (["fejer", *_SQUARE, "--alpha", "0.5", "--c", "inf"], None),
        (["certify", *_SQUARE, "--alpha", "0.5", "--c", "inf"], None),
        (["hh", *_SQUARE, "--alpha", "0.5", "--interval", "0,inf"], None),
        (["integrate", "x^(2a)", "0", "inf", "--alpha", "0.5"], None),
        (["diff", "x^(2a)", "--at", "nan", "--alpha", "0.5"], None),
        (["sweep", "--cs", "inf"], None),
        (["hh", *_SQUARE, "--alpha", "0.5"], '{"c": Infinity}'),
        (["hh", *_SQUARE], '{"alpha": true, "c": false}'),
        (["certify", *_SQUARE, "--alpha", "0.5"], '{"meta": NaN}'),
        (["hh", *_SQUARE, "--alpha", "0.5"], '{"meta": NaN}'),
        (["fejer", *_SQUARE, "--alpha", "0.5"], '{"meta": NaN}'),
    ],
    ids=["hh-m-eta-nan", "hh-c-inf", "fejer-c-inf", "certify-c-inf",
         "hh-interval-inf", "integrate-bound-inf", "diff-at-nan", "sweep-cs-inf",
         "config-infinity", "config-booleans", "certify-meta-nan", "hh-meta-nan",
         "fejer-meta-nan"],
)
def test_non_finite_and_boolean_numbers_exit_one(capsys, tmp_path, argv, config):
    """inf, nan and JSON booleans are config errors, not runs or crashes.
    A meta that is not a string (NaN here) is one too: it is checked before
    the run, not when the report is written."""
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("fracon: error: ")
    assert err.count("\n") == 1



@pytest.mark.parametrize(
    ("argv", "config", "fragments"),
    [
        (["certify", *_SQUARE, "--alpha", "2", "--c", "inf", "--grid", "3"], None,
         ["--alpha must be in (0, 1], got 2.0", "--c must be finite, got inf",
          "--grid must be >= 8, got 3"]),
        (["certify", *_SQUARE, "--alpha", "5"], '{"c": "x", "grid": "y"}',
         ["--alpha must be in (0, 1], got 5.0", "--c must be a number, got 'x'",
          "--grid must be an integer, got 'y'"]),
        (["hh", *_SQUARE, "--alpha", "2", "--m-eta", "nan", "--c", "inf"], None,
         ["--m-eta must be finite, got nan", "--alpha must be in (0, 1], got 2.0",
          "--c must be finite, got inf"]),
        (["sweep", "--cs", "inf,-1"], '{"budget": "x", "refine": "z"}',
         ["--cs must be finite, got inf", "sweep c must be >= 0, got -1.0",
          "--refine must be an integer, got 'z'",
          "--budget must be an integer, got 'x'"]),
        (["sweep", "--alphas", "x", "--grid", "3"], None,
         ["--alphas has a non-numeric entry in 'x'", "--grid must be >= 8, got 3"]),
        (["axioms", "--alpha", "2", "--seed", "-1"], None,
         ["--alpha must be in (0, 1], got 2.0", "--seed must be >= 0, got -1"]),
        (["integrate", "x^(2a)", "0", "inf", "--alpha", "2"], None,
         ["--alpha must be in (0, 1], got 2.0", "b must be finite, got inf"]),
        (["diff", "x^(2a)", "--at", "nan", "--alpha", "2"], None,
         ["--alpha must be in (0, 1], got 2.0", "--at must be finite, got nan"]),
    ],
    ids=["certify-flags", "certify-config", "hh-m-eta", "sweep", "sweep-list", "axioms",
         "integrate", "diff"],
)
def test_number_problems_are_aggregated(capsys, tmp_path, argv, config, fragments):
    """A bad number joins the other problems in one message, not alone."""
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("fracon: error: ")
    assert err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("argv", [
    ["certify", *_SQUARE, "--alpha", "0.5", "--grid", "8", "--refine", "0"],
    ["hh", *_SQUARE, "--alpha", "0.5"],
    ["fejer", *_SQUARE, "--alpha", "0.5"],
    ["sweep", "--alphas", "0.5", "--cs", "0", "--etas", "difference", "--fs", "square"],
], ids=["certify", "hh", "fejer", "sweep"])
def test_config_boolean_interval_exit_one(capsys, tmp_path, argv):
    """JSON booleans are not numbers for --interval either."""
    cfg = tmp_path / "run.json"
    cfg.write_text('{"interval": [false, true]}')
    code, out, err = run(capsys, [*argv, "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert err == "fracon: error: --interval must be two numbers, got [False, True]\n"


@pytest.mark.parametrize("cmd", ["certify", "hh", "fejer"])
def test_config_non_string_expressions_exit_one(capsys, tmp_path, cmd):
    """A config-file f, eta or w that is not a string is one config error."""
    keys = {"f": 3, "eta": ["u"], **({"w": 1.5} if cmd == "fejer" else {})}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(keys))
    code, out, err = run(capsys, [cmd, "--alpha", "0.5", "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert err.startswith("fracon: error: ")
    assert err.count("\n") == 1
    assert "--f must be a string, got 3" in err
    assert "--eta must be a string, got ['u']" in err
    assert ("--w must be a string, got 1.5" in err) == (cmd == "fejer")


@pytest.mark.parametrize(("argv", "computes"), [
    (["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5"], ["certify_gsc"]),
    (["hh", "--f", "square", "--eta", "difference", "--alpha", "0.5"], ["hh_terms"]),
    (["fejer", "--f", "square", "--eta", "difference", "--alpha", "0.5"], ["fejer_terms"]),
    (["sweep", "--alphas", "0.5", "--cs", "0", "--etas", "difference", "--fs", "square"],
     ["hh_terms", "certify_gsc"]),
], ids=["certify", "hh", "fejer", "sweep"])
def test_config_non_string_out_exit_one(capsys, tmp_path, monkeypatch, argv, computes):
    """A config-file out that is not a string is a config error found before
    any work, not a TypeError from writing the finished output."""
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran with a non-string out")

    for name in computes:
        monkeypatch.setattr(cli, name, no_work)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": 3}))
    code, out, err = run(capsys, [*argv, "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert err == "fracon: error: --out must be a string, got 3\n"


# ------------------------------------------------------------ envelope/output


def test_report_envelope_shape(capsys):
    _, out, _ = run(capsys, ["certify", "--f", "square", "--eta", "difference",
                             "--alpha", "1.0"])
    doc = json.loads(out)
    assert set(doc) == {"version", "config_echo", "results", "diagnostics"}
    assert doc["version"] == "1"
    assert doc["config_echo"]["command"] == "certify"
    assert doc["config_echo"]["interval"] == [0.0, 1.0]
    assert list(doc["config_echo"]) == ["command", "alpha", "c", "interval", "grid",
                                        "refine", "meta", "f", "eta"]
    assert (doc["config_echo"]["grid"], doc["config_echo"]["refine"]) == (50, 3)
    assert isinstance(doc["diagnostics"]["notes"], list)


def test_report_rerun_byte_identical(capsys):
    argv = ["hh", "--f", "square", "--eta", "example23", "--alpha", "0.5", "--c", "2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    # The payload is normalized before serialization, so a parse/dump round
    # trip is also byte-stable.
    assert first == json.dumps(json.loads(first), indent=2, allow_nan=False) + "\n"


def test_meta_is_echoed(capsys):
    _, out, _ = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                             "--alpha", "1.0", "--meta", "batch=7"])
    assert json.loads(out)["config_echo"]["meta"] == "batch=7"


def test_out_flag_writes_file_and_keeps_stdout_empty(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, ["hh", "--f", "square", "--eta", "difference",
                                  "--alpha", "1.0", "--out", str(target)])
    assert code == 0
    assert out == "" and err == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["all_hold"] is True


def test_sweep_out_flag_writes_csv(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, ["sweep", "--alphas", "1.0", "--cs", "0",
                                "--etas", "difference", "--fs", "square",
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == _HEADER
    assert len(lines) == 2


@pytest.mark.parametrize("argv", [
    ["hh", "--f", "square", "--eta", "difference", "--alpha", "0.5"],
    ["sweep", "--alphas", "0.5", "--cs", "0", "--etas", "difference", "--fs", "square"],
], ids=["hh", "sweep"])
def test_unwritable_out_is_one_error_line(capsys, tmp_path, argv):
    """An --out path that cannot be written is one config error, not a traceback."""
    target = tmp_path / "missing" / "x.out"
    code, out, err = run(capsys, [*argv, "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"fracon: error: cannot write output file {str(target)!r}: ")
    assert err.count("\n") == 1
    assert not target.exists()


def test_unknown_subcommand_exit_one(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert "invalid choice" in err


def test_module_entry_point():
    import fracon.__main__  # noqa: F401  (import must not execute main)
