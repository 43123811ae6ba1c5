"""The CLI's one-parse dispatch and one-pass report writer, each against
the argparse and ``json`` path it stands in for.

``cli._parse_args`` hands a line that starts with a command straight to
that command's parser; ``build_parser().parse_args`` reads the line at the
top level first and then hands on the rest.  ``cli._json_text`` writes a
report in one pass; ``_norm`` below, with ``json.dumps(indent=2,
allow_nan=False)``, is the two-pass writer it stands in for, kept here as
the reference.  The reference writes a dataclass as
``dataclasses.asdict`` does.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracon import (
    AlphaContext,
    EtaSpec,
    FunctionSpec,
    WeightSpec,
    __version__,
    certify_gsc,
    cli,
    fejer_terms,
    hh_terms,
)
from fracon.cli import ConfigError, main

# ------------------------------------------------------------------ writer


def _norm(obj):
    """Round every float in a JSON-ready structure to 15 significant digits;
    a dataclass instance becomes the dict of its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _norm(dataclasses.asdict(obj))
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(format(float(obj), ".15g"))
    if isinstance(obj, dict):
        return {k: _norm(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_norm(v) for v in obj]
    return obj


def _reference(obj) -> str:
    return json.dumps(_norm(obj), indent=2, allow_nan=False)


def _outcome(write, obj):
    try:
        return write(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16,
                9999999999999999.0, 1e-5, 1.5e-5, 0.1 + 0.2, 1 / 3, 123456789012345.67,
                1e300, 1.7976931348623157e308]
_EDGE_SCALARS = [*_EDGE_FLOATS, 10**40, -(10**40), 2**63, 0, True, False, None, "",
                 "ünïcødé ✓ 𝔸", "\x00\x1f\x7f\n\t\"\\/", " ퟿"]

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.sampled_from(_EDGE_SCALARS), st.text(max_size=12),
)
_payloads = st.recursive(
    _scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
@example({"version": "1", "a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": [[]]}})
@example(_EDGE_SCALARS)
@example(tuple(_EDGE_SCALARS))
@example({str(i): v for i, v in enumerate(_EDGE_SCALARS)})
def test_writer_matches_norm_and_json_dumps(payload):
    """The same bytes, or the same error (an infinite float)."""
    ours = _outcome(lambda p: cli._json_text(p, "\n"), payload)
    assert ours == _outcome(_reference, payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 1.7976931348623157e308, -1.7976931348623157e308])
@pytest.mark.parametrize("where", [lambda x: x, lambda x: [1.0, x],
                                   lambda x: {"a": {"b": ("c", x)}}])
def test_writer_rejects_non_finite_floats_with_the_json_message(bad, where):
    """The largest floats round up to +-inf at 15 digits, so they are out
    of range too."""
    payload = where(bad)
    with pytest.raises(ValueError) as ours:
        cli._json_text(payload, "\n")
    with pytest.raises(ValueError) as reference:
        _reference(payload)
    assert str(ours.value) == str(reference.value)
    assert str(ours.value).startswith("Out of range float values are not JSON compliant: ")


def test_writer_rejects_types_json_has_no_form_for():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        cli._json_text({"a": [{1.0}]}, "\n")


def _spec(text: str, a: float = 0.0, b: float = 1.0) -> FunctionSpec:
    return FunctionSpec.from_text(text, domain=(a, b))


_CTX = AlphaContext(alpha=0.5)
_DIFF = EtaSpec.from_text("u - v")
_REPORTS = {
    "hh": lambda: hh_terms(_spec("abs(x - 0.3)^(a)"), _DIFF, 1.0, 0.0, 1.0, _CTX),
    "fejer": lambda: fejer_terms(_spec("x^(2a)"), _DIFF, 0.0,
                                 WeightSpec.from_text("x*(1 - x)", domain=(0.0, 1.0)),
                                 0.0, 1.0, _CTX),
    "certify": lambda: certify_gsc(_spec("x^(2a)"), _DIFF, 0.0, _CTX, 16, 1),
    "certify-violated": lambda: certify_gsc(_spec("-x^(2a)"), _DIFF, 1.0, _CTX, 16, 1),
    # Both necessary conditions fail, so both of their witnesses are set.
    "certify-necessary": lambda: certify_gsc(_spec("1", 0.2, 1.3), EtaSpec.from_text("-1"),
                                             0.0, _CTX, 16, 1),
}


@pytest.mark.parametrize("name", sorted(_REPORTS))
def test_writer_writes_a_report_as_its_fields(name):
    """A report dataclass is written as ``dataclasses.asdict`` of it: its
    fields in declaration order, nested reports and tuples included."""
    rep = _REPORTS[name]()
    if name.startswith("certify-"):
        assert rep.status == "Violated" and rep.witness is not None
    if name == "certify-necessary":
        assert rep.necessary.diag_witness is not None
        assert rep.necessary.upper_witness is not None
    assert cli._json_text(rep, "\n") == _reference(rep)


@pytest.mark.parametrize("argv", [
    ["hh", "--f", "abs(x - 0.3)^(a)", "--eta", "difference", "--alpha", "0.5"],
    ["fejer", "--f", "square", "--eta", "difference", "--w", "parabolic", "--alpha", "0.5"],
    ["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5", "--grid", "16",
     "--refine", "1"],
])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code = main(argv)
    stdout = capsys.readouterr().out
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode("utf-8")
    assert stdout == _reference(json.loads(stdout)) + "\n"


# ---------------------------------------------------------------- dispatch


_CONFIG = "{config}"  # replaced by the path of a config file in tmp_path

_ARGVS = [
    ["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5", "--grid", "16"],
    ["hh", "--f", "square", "--eta", "difference", "--alpha", "0.3", "--backend", "exact",
     "--m-eta", "2"],
    ["fejer", "--f", "square", "--eta", "difference", "--w", "parabolic", "--alpha", "0.5",
     "--interval", "0,2", "--meta", "tag", "--out", "r.json"],
    ["sweep", "--alphas", "0.5,1", "--cs", "0", "--budget", "4"],
    ["integrate", "x^(a)", "0", "1", "--alpha", "0.5", "--backend", "rl"],
    ["diff", "x^(2a)", "--at", "3", "--from", "1", "--mode", "fd"],
    ["axioms", "--alpha", "0.5", "--triples", "10", "--json"],
    ["hh"],
    ["hh", "--alp", "0.5", "--f=square"],
    ["hh", "--m", "1"],
    ["hh", "--config", _CONFIG, "--eta", "example23"],
    ["fejer", "--config", _CONFIG, "--alpha", "1"],
    ["hh", "--bogus", "1"],
    ["hh", "--alpha"],
    ["certify", "--grid", "x"],
    ["hh", "--backend", "nope"],
    ["integrate", "--", "x^(a)", "0", "1"],
    ["integrate", "x^(a)", "-1", "0", "--alpha", "1"],
    ["integrate", "x^(a)", "0"],
    ["diff", "x^(2a)"],
    ["hh", "--version"],
    ["sweep", "extra"],
]


def _parsed(parse, argv):
    """``vars`` of the parsed, config-merged namespace, or the error text."""
    try:
        args = parse(argv)
        cli._merge_config(args)
    except ConfigError as exc:
        return "error", str(exc)
    return "ok", vars(args)


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_dispatch_matches_the_top_level_parser(tmp_path, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 0.5, "f": "square", "eta": "difference"}),
                      encoding="utf-8")
    argv = [str(config) if a == _CONFIG else a for a in argv]
    parser = cli.build_parser()
    ours = _parsed(lambda line: cli._parse_args(parser, line), argv)
    assert ours == _parsed(parser.parse_args, argv)
    if argv[0] == "hh" and "--config" in argv:
        assert ours[1]["alpha"] == 0.5 and ours[1]["eta"] == "example23"


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(("argv", "code", "out", "err"), [
    ([], 1, "", "fracon: error: the following arguments are required: cmd\n"),
    (["-h"], 0, "usage: fracon [-h] [--version]", ""),
    (["--version"], 0, f"fracon {__version__}\n", ""),
    (["bogus"], 1, "", "fracon: error: argument cmd: invalid choice: 'bogus'"),
    (["hh", "-h"], 0, "usage: fracon hh [-h]", ""),
])
def test_top_level_lines_keep_their_output(capsys, monkeypatch, argv, code, out, err):
    """Exit code, stdout and stderr equal those of a parse at the top level."""
    ours = _run(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda parser, line: parser.parse_args(line))
    assert ours == _run(capsys, argv)
    assert ours[0] == code
    assert ours[1].startswith(out) and ours[2].startswith(err)
