"""Command-line interface: certify, chain checks, sweeps, and utilities.

Subcommands
-----------
certify    search for membership counterexamples; JSON report
hh         evaluate the four-term inequality chain; JSON report
fejer      evaluate the weighted three-term chain; JSON report
sweep      batch grid over (alpha, c, eta, f); CSV artifact
integrate  one local fractional integral; two plain text lines
diff       one local fractional derivative; two plain text lines
axioms     arithmetic-conformance table for both carriers

Configuration comes from flags, optionally layered over a JSON config
file (``--config PATH``); explicit flags win over file values, which win
over built-in defaults.  Invalid inputs, an unwritable ``--out`` among
them, are reported before any work as one aggregated message listing
every violation; a flag value argparse cannot convert is reported alone.

Exit codes
----------
0  ran to completion and every checked statement holds
1  input problem: bad flags/values, expression syntax, asymmetric or
   negative weight, non-polynomial input or table terms that cancel on a
   forced exact route
2  verified mathematical violation: a counterexample was found, or an
   inequality link fails beyond tolerance
3  runtime failure: evaluation/quadrature errors, overflow, non-finite
   values (a sweep that completes with ERROR rows also exits 3)

Reports are deterministic: floats are normalized to 15 significant
digits, no timestamps are embedded, and reruns of the same command are
byte-identical.  JSON reports share the envelope
``{"version": "1", "config_echo": ..., "results": ..., "diagnostics": ...}``,
written in one pass that rounds each float as it goes, byte-identical to
``json.dumps(indent=2)`` of the rounded envelope.  A report is written as
its fields, in declaration order, so a report's JSON keys are its
dataclass fields (an ``axioms --json`` row is an ``AxiomRow``).  Each
command line is parsed once, by its command's own parser.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .calculus import (
    EXACT,
    NUMERIC,
    DerivativeMode,
    IntegrationError,
    _exact_first,
    lf_derivative,
    lf_integral,
)
from .convexity import _GRID_RANGE, _REFINE_RANGE, SymmetryError, _check_range, certify_gsc
from .expr import EtaSpec, EvalError, FunctionSpec, NotPolynomial, ParseError
from .fractal_scalar import AlphaContext, axiom_conformance
from .inequalities import fejer_terms, hh_terms
from .presets import ETA_PRESETS, F_PRESETS, W_PRESETS, resolve

__all__ = ["ConfigError", "main", "console_main"]

_SWEEP_HEADER = (
    "alpha,c,eta_id,f_id,a,b,T1,T2,T3,T4,A1,A2,"
    "link12,link23,link34,min_defect,status,message"
)
_SWEEP_ALPHAS = (0.3, 0.5, 0.9, 1.0)
_SWEEP_CS = (0.0, 1.0)
_SWEEP_ETAS = ("difference", "example23")
_SWEEP_FS = ("square", "negsquare", "const")
# Most rows a sweep may produce: its CSV text is built in memory.
_SWEEP_BUDGET = 100_000
# Largest accepted axioms --triples: the conformance table holds about 88 B
# per triple for each alpha (8.4 MiB traced peak at 10**5), so ~88 MB here.
_MAX_TRIPLES = 1_000_000


class ConfigError(Exception):
    """Invalid command-line or config-file input (maps to exit code 1)."""


# Failures of a run on valid input: exit code 3, or a sweep's ERROR row.
_RUNTIME_ERRORS = (EvalError, IntegrationError, OverflowError, ZeroDivisionError,
                   FloatingPointError, ValueError)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports bad input via ConfigError, not exit(2)."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        raise ConfigError(message)


def _fmt(x: float) -> str:
    """Canonical 15-significant-digit text for a float."""
    return format(float(x), ".15g")


_json_str = json.encoder.encode_basestring_ascii


def _json_text(obj, nl: str) -> str:
    """``obj`` as JSON text in one pass, every float first rounded to 15
    significant digits: the bytes ``json.dumps(obj, indent=2,
    allow_nan=False)`` writes for the rounded tree, with the same errors
    for NaN, infinities and types JSON has no form for.  A dataclass
    instance is written as the dict of its fields, in declaration order.
    ``nl`` is a newline followed by the indent of ``obj``'s line; dict keys
    must be strings.  Measured against ``json.dumps`` of the rounded tree
    (``tools/cases_ab.py``, seeds 1,2, 20 rounds): quadrature mean B/A
    0.925, this faster in 20 of 20 rounds."""
    if isinstance(obj, float):
        x = float(_fmt(obj))
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
        return float.__repr__(x)
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _json_text(v, inner) for k, v in obj.items()]) + nl + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + nl + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    fields = getattr(type(obj), "__dataclass_fields__", None)
    if fields is not None:
        return _json_text({name: getattr(obj, name) for name in fields}, nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_text(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_report(command: str, config_echo: dict, results, notes: list[str],
                 out: Optional[str]) -> None:
    payload = {
        "version": "1",
        "config_echo": {"command": command, **config_echo},
        "results": results,
        "diagnostics": {"notes": notes},
    }
    _emit_text(_json_text(payload, "\n") + "\n", out)


# ------------------------------------------------------------ config merge

def _merge_config(args: argparse.Namespace, defaults: dict) -> None:
    """Fill each option its flag left unset from the JSON config file, keyed
    by option dest, and then from ``defaults`` (a file ``null`` falls through)."""
    data = {}
    path = getattr(args, "config", None)
    if path is not None:
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        allowed = set(vars(args)) - {"cmd", "func", "config"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(
                f"config file {path!r} has unknown keys for '{args.cmd}': "
                + ", ".join(unknown)
            )
    for key, value in [*data.items(), *defaults.items()]:
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _as_float(label: str, value) -> float:
    """``value`` as a finite float; ``label`` names the input in messages."""
    if isinstance(value, bool):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{label} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{label} must be finite, got {value!r}")
    return x


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"--{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"--{name} must be an integer, got {value!r}") from None


def _parse_interval(value) -> tuple[float, float]:
    if isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = str(value).split(",")
    if len(parts) != 2:
        raise ConfigError(f"--interval must be 'a,b', got {value!r}")
    if any(isinstance(part, bool) for part in parts):
        raise ConfigError(f"--interval must be two numbers, got {value!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except (TypeError, ValueError):
        raise ConfigError(f"--interval must be two numbers, got {value!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"--interval must be finite, got {value!r}")
    if not a < b:
        raise ConfigError(f"--interval needs a < b, got {value!r}")
    if not math.isfinite(b - a):
        raise ConfigError(f"--interval width b - a must be finite, got {value!r}")
    return a, b


def _collect(problems: list[str], convert, *args, default=None):
    """``convert(*args)``; on a ConfigError or ValueError, add it to
    ``problems`` and return ``default``, so the caller goes on to the next."""
    try:
        return convert(*args)
    except (ConfigError, ValueError) as exc:
        problems.append(str(exc))
        return default


def _lattice_size(args: argparse.Namespace, problems: list[str]) -> tuple[int, int]:
    """Validated ``--grid``/``--refine``; every problem goes to ``problems``."""
    grid = _collect(problems, _as_int, "grid", args.grid)
    refine = _collect(problems, _as_int, "refine", args.refine)
    if grid is not None:
        _collect(problems, _check_range, "--grid", grid, *_GRID_RANGE)
    if refine is not None:
        _collect(problems, _check_range, "--refine", refine, *_REFINE_RANGE)
    return grid, refine


def _non_strings(args: argparse.Namespace, *names: str) -> list[str]:
    """Problem lines for options a config file set to a JSON value that is
    not a string, where a flag always gives one."""
    return [f"--{n} must be a string, got {v!r}" for n in names
            if (v := getattr(args, n, None)) is not None and not isinstance(v, str)]


def _out_problems(args: argparse.Namespace) -> list[str]:
    """Problem lines for an ``--out`` that is not a string or cannot be created."""
    out = args.out
    if not out or not isinstance(out, str):
        return _non_strings(args, "out")
    if Path(out).is_dir():
        return [f"cannot write output file {out!r}: it is a directory"]
    if not Path(out).parent.is_dir():
        return [f"cannot write output file {out!r}: its parent is not a directory"]
    return []


def _missing_flags(args: argparse.Namespace, *names: str) -> list[str]:
    """Problem lines for required flags that are still unset after layering."""
    return [f"--{n} is required" for n in names if getattr(args, n) is None]


@dataclass(frozen=True)
class RunConfig:
    """Validated common options shared by the report-producing commands.

    ``grid`` and ``refine`` are set only for commands that take them.
    """

    alpha: float
    c: float
    a: float
    b: float
    grid: Optional[int]
    refine: Optional[int]
    meta: Optional[str]

    @classmethod
    def from_args(
        cls, args: argparse.Namespace, pre: Sequence[str] = ()
    ) -> "RunConfig":
        problems = [*pre, *_non_strings(args, "f", "eta", "w", "meta"),
                    *_out_problems(args)]
        alpha = _collect(problems, _check_alpha, args.alpha)
        c = _collect(problems, _as_float, "--c", args.c)
        if c is not None:
            _collect(problems, _check_range, "--c", c, 0, math.inf)
        a, b = _collect(problems, _parse_interval, args.interval, default=(0.0, 0.0))
        grid, refine = _lattice_size(args, problems) if "grid" in args else (None, None)
        if problems:
            raise ConfigError("; ".join(problems))
        return cls(alpha=alpha, c=c, a=a, b=b, grid=grid, refine=refine,
                   meta=getattr(args, "meta", None))

    @property
    def ctx(self) -> AlphaContext:
        return AlphaContext(alpha=self.alpha)

    @property
    def params(self) -> dict[str, float]:
        return {"c": self.c, "lo": self.a, "hi": self.b}

    def echo(self) -> dict:
        lattice = {} if self.grid is None else {"grid": self.grid, "refine": self.refine}
        return {
            "alpha": self.alpha,
            "c": self.c,
            "interval": [self.a, self.b],
            **lattice,
            "meta": self.meta,
        }


def _spec(presets: dict[str, str], kind, key: str, params=None):
    """The preset id of ``key`` ("custom" for expression text) and its parsed
    ``kind`` spec (a FunctionSpec or an EtaSpec)."""
    key_id, text = resolve(presets, key)
    return key_id, kind.from_text(text, params=params)


def _make_specs(cfg: RunConfig, f_key: str, eta_key: str,
                w_key: Optional[str] = None):
    """The specs of f, eta and (when ``w_key`` is given) w, then their echo."""
    specs = {"f": _spec(F_PRESETS, FunctionSpec, f_key, cfg.params),
             "eta": _spec(ETA_PRESETS, EtaSpec, eta_key, cfg.params)}
    if w_key is not None:
        specs["w"] = _spec(W_PRESETS, FunctionSpec, w_key, cfg.params)
    echo = {name: {"id": key_id, "text": spec.text} for name, (key_id, spec) in specs.items()}
    return (*(spec for _, spec in specs.values()), echo)


# ----------------------------------------------------------------- certify


def _cmd_certify(args: argparse.Namespace) -> int:
    _merge_config(args, {"c": 0.0, "interval": "0,1", "grid": 50, "refine": 3})
    cfg = RunConfig.from_args(args, pre=_missing_flags(args, "f", "eta"))
    f, eta, echo = _make_specs(cfg, args.f, args.eta)
    report = certify_gsc(f, eta, cfg.c, cfg.a, cfg.b, cfg.ctx, cfg.grid, cfg.refine)
    notes = []
    if not report.necessary.ok:
        notes.append("necessary-condition screen failed; see results.necessary")
    if report.status == "Violated":
        notes.append("counterexample found; defect below -tolerance")
    _emit_report("certify", {**cfg.echo(), **echo}, report, notes, args.out)
    return 2 if report.status == "Violated" else 0


# ---------------------------------------------------------------- hh/fejer


def _link_notes(report) -> list[str]:
    """One diagnostics note per chain link that fails, with its shortfall."""
    return [f"link {link.name} fails by {_fmt(-link.gap)}"
            for link in report.links if not link.holds]


def _cmd_hh(args: argparse.Namespace) -> int:
    _merge_config(args, {"c": 0.0, "interval": "0,1", "backend": "rl"})
    pre = _missing_flags(args, "f", "eta")
    if args.backend not in ("exact", "rl", None):
        pre.append(f"--backend must be exact|rl, got {args.backend!r}")
    m_eta = None if args.m_eta is None else _collect(pre, _as_float, "--m-eta", args.m_eta)
    cfg = RunConfig.from_args(args, pre=pre)
    f, eta, echo = _make_specs(cfg, args.f, args.eta)
    backend = EXACT if args.backend == "exact" else NUMERIC
    report = hh_terms(f, eta, cfg.c, cfg.a, cfg.b, cfg.ctx, backend=backend,
                      m_eta=m_eta)
    # M bounds eta(f(x), f(y)) over all pairs, these two among them: a
    # smaller M is a wrong input, not a violation of the chain.
    if m_eta is not None and m_eta < max(report.eta_ab, report.eta_ba):
        raise ConfigError(
            f"--m-eta must be >= max(eta_ab, eta_ba), got {_fmt(m_eta)} with "
            f"eta_ab = {_fmt(report.eta_ab)} and eta_ba = {_fmt(report.eta_ba)}"
        )
    notes = [f"m_eta {report.m_eta_source}", *_link_notes(report)]
    echo = {**cfg.echo(), **echo, "backend": args.backend, "m_eta": m_eta}
    _emit_report("hh", echo, report, notes, args.out)
    return 0 if report.all_hold else 2


def _cmd_fejer(args: argparse.Namespace) -> int:
    _merge_config(args, {"c": 0.0, "interval": "0,1", "w": "one"})
    cfg = RunConfig.from_args(args, pre=_missing_flags(args, "f", "eta"))
    f, eta, w, echo = _make_specs(cfg, args.f, args.eta, args.w)
    report = fejer_terms(f, eta, cfg.c, w, cfg.a, cfg.b, cfg.ctx)
    routes = ", ".join(f"{name} {route}" for name, route in report.routes.items())
    notes = [f"integral routes: {routes}", *_link_notes(report)]
    _emit_report("fejer", {**cfg.echo(), **echo}, report, notes, args.out)
    return 0 if report.all_hold else 2


# ------------------------------------------------------------------- sweep


def _split_list(value, kind: str, default: tuple, conv=str) -> tuple:
    """``value`` as a tuple of ``conv`` items, or ``default`` when unset."""
    if value is None:
        return default
    if isinstance(value, (list, tuple)):
        items = [str(item).strip() for item in value]
    else:
        items = [part.strip() for part in str(value).split(",")]
    items = [item for item in items if item]
    if not items:
        raise ConfigError(f"--{kind} must be a non-empty comma list, got {value!r}")
    try:
        return tuple(conv(item) for item in items)
    except ValueError:
        raise ConfigError(f"--{kind} has a non-numeric entry in {value!r}") from None


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv_row(buf: io.StringIO, row: list[str]) -> None:
    """Append one CSV row of one or more str fields to ``buf``.

    The bytes are those of ``csv.writer(buf, lineterminator="\\n")``,
    which the tests keep as the reference: a field holding ``,``, ``"``
    or a newline is quoted with its quotes doubled (a lone ``\\r`` is
    not), and a row of one empty field is ``""``.  The row is joined here
    because CPython's writer allocates a 128 KiB record buffer for its
    first row and keeps it: a writer per row allocates more than a grid-24
    certify holds, so it would set the sweep's memory peak, and one writer
    for the whole sweep would hold that buffer through every row.  Measured
    with a writer per row: the sweep's seed-1 peak rose from 97,707 to
    152,012 B (``tools/case_peaks.py --stages``); its time did not move.
    """
    buf.write((",".join(map(_csv_field, row)) or '""') + "\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    _merge_config(args, {"interval": "0,1", "grid": 24, "refine": 2})
    problems = _out_problems(args)
    alphas = _collect(problems, _split_list, args.alphas, "alphas", _SWEEP_ALPHAS, float,
                      default=())
    cs = _collect(problems, _split_list, args.cs, "cs", _SWEEP_CS, float, default=())
    etas = _collect(problems, _split_list, args.etas, "etas", _SWEEP_ETAS, default=())
    fs = _collect(problems, _split_list, args.fs, "fs", _SWEEP_FS, default=())
    cs = tuple(_collect(problems, _as_float, "--cs", c) for c in cs)
    a, b = _collect(problems, _parse_interval, args.interval, default=(0.0, 0.0))
    grid, refine = _lattice_size(args, problems)
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            problems.append(f"sweep alpha must be in (0, 1], got {alpha!r}")
    for c in cs:
        if c is not None:
            _collect(problems, _check_range, "sweep c", c, 0, math.inf)
    rows = len(alphas) * len(cs) * len(etas) * len(fs)
    if rows > _SWEEP_BUDGET:
        problems.append(f"sweep would produce {rows} rows, over the budget "
                        f"of {_SWEEP_BUDGET}")
    if problems:
        raise ConfigError("; ".join(problems))
    # Parse every expression once up front: malformed text is a config
    # problem (exit 1), not a per-row runtime failure.  Rows rebind c.
    bound = {"c": 0.0, "lo": a, "hi": b}
    f_specs = {key: _spec(F_PRESETS, FunctionSpec, key, bound) for key in fs}
    eta_specs = {key: _spec(ETA_PRESETS, EtaSpec, key, bound) for key in etas}

    buf = io.StringIO()
    _write_csv_row(buf, _SWEEP_HEADER.split(","))
    any_error = False
    for alpha in alphas:
        ctx = AlphaContext(alpha=alpha)
        for c in cs:
            params = tuple(sorted({**bound, "c": c}.items()))
            for eta_key in etas:
                eta_id, eta = eta_specs[eta_key]
                eta = replace(eta, params=params)
                for f_key in fs:
                    f_id, f = f_specs[f_key]
                    f = replace(f, params=params)
                    head = [_fmt(alpha), _fmt(c), eta_id, f_id, _fmt(a), _fmt(b)]
                    try:
                        hh = hh_terms(f, eta, c, a, b, ctx, backend=NUMERIC)
                        cert = certify_gsc(f, eta, c, a, b, ctx, grid, refine)
                    except _RUNTIME_ERRORS as exc:
                        any_error = True
                        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
                        _write_csv_row(buf, head + [""] * 10 + ["ERROR", message])
                        continue
                    links = ["HOLDS" if l.holds else "FAILS" for l in hh.links]
                    _write_csv_row(
                        buf,
                        head
                        + [_fmt(t) for t in (hh.T1, hh.T2, hh.T3, hh.T4, hh.A1, hh.A2)]
                        + links
                        + [_fmt(cert.min_defect), cert.status, ""]
                    )
    _emit_text(buf.getvalue(), args.out)
    return 3 if any_error else 0


# --------------------------------------------------------- integrate/diff


def _check_alpha(value) -> float:
    if value is None:
        raise ConfigError("--alpha is required")
    alpha = _as_float("--alpha", value)
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"--alpha must be in (0, 1], got {alpha!r}")
    return alpha


def _cmd_integrate(args: argparse.Namespace) -> int:
    problems: list[str] = []
    alpha = _collect(problems, _check_alpha, args.alpha)
    a = _collect(problems, _as_float, "a", args.a)
    b = _collect(problems, _as_float, "b", args.b)
    if problems:
        raise ConfigError("; ".join(problems))
    ctx = AlphaContext(alpha=alpha)
    _, f = _spec(F_PRESETS, FunctionSpec, args.f, {"lo": min(a, b), "hi": max(a, b)})
    value, backend = _exact_first(args.backend, lambda: lf_integral(f, a, b, ctx, EXACT),
                                  lambda: lf_integral(f, a, b, ctx, NUMERIC))
    sys.stdout.write(f"{_fmt(value)}\nbackend: {backend}\n")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    problems: list[str] = []
    alpha = _collect(problems, _check_alpha, args.alpha)
    at = _collect(problems, _as_float, "--at", args.at)
    base = _collect(problems, _as_float, "--from", args.base)
    if at is not None and base is not None and at < base:
        problems.append(f"--at must be >= the base point, got at={at!r} < from={base!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    ctx = AlphaContext(alpha=alpha)
    _, f = _spec(F_PRESETS, FunctionSpec, args.f)
    value, mode = _exact_first(
        args.mode,
        lambda: lf_derivative(f, at, ctx, mode=DerivativeMode.EXACT_MONOMIAL, s=base),
        lambda: lf_derivative(f, at, ctx, mode=DerivativeMode.FINITE_DIFFERENCE, s=base),
        "fd")
    sys.stdout.write(f"{_fmt(value)}\nmode: {mode}\n")
    return 0


# ------------------------------------------------------------------ axioms


def _cmd_axioms(args: argparse.Namespace) -> int:
    problems: list[str] = []
    alphas = (_SWEEP_ALPHAS if args.alpha is None
              else (_collect(problems, _check_alpha, args.alpha),))
    _collect(problems, _check_range, "--triples", args.triples, 1, _MAX_TRIPLES)
    _collect(problems, _check_range, "--seed", args.seed, 0, math.inf)
    problems += _out_problems(args)
    if problems:
        raise ConfigError("; ".join(problems))

    blocks = []
    for alpha in alphas:
        rows = axiom_conformance(alpha, triples=args.triples, seed=args.seed)
        blocks.append({"alpha": alpha, "rows": rows,
                       "iso_pass": sum(r.iso == "PASS" for r in rows),
                       "magnitude_pass": sum(r.magnitude == "PASS" for r in rows)})

    if args.json:
        echo = {"alpha": args.alpha, "triples": args.triples, "seed": args.seed}
        _emit_report("axioms", echo, {"blocks": blocks}, [], args.out)
        return 0

    lines = []
    for block in blocks:
        rows = block["rows"]
        lines.append(f"alpha={_fmt(block['alpha'])}  triples={args.triples}  seed={args.seed}")
        for r in rows:
            line = f"  {r.index}  {r.title:<44s} iso={r.iso:<8s} magnitude={r.magnitude}"
            if r.note:
                line += f"  ({r.note})"
            lines.append(line)
        lines.append(f"summary: iso={block['iso_pass']}/{len(rows)} "
                     f"magnitude={block['magnitude_pass']}/{len(rows)}")
        lines.append("")
    _emit_text("\n".join(lines), args.out)
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    """The options certify, hh and fejer share."""
    sub.add_argument("--config", default=None,
                     help="JSON config file; explicit flags override it")
    sub.add_argument("--alpha", type=float, default=None,
                     help="fractal order in (0, 1]")
    sub.add_argument("--c", type=float, default=None,
                     help="strong-convexity modulus c >= 0 (default 0)")
    sub.add_argument("--interval", default=None,
                     help="domain as 'a,b' (default '0,1')")
    sub.add_argument("--meta", default=None,
                     help="free-form tag echoed in the report")
    sub.add_argument("--out", default=None, help="write output to this file")
    sub.add_argument("--f", default=None, help="function preset id or expression")
    sub.add_argument("--eta", default=None, help="eta preset id or expression")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser: built on the first call, and the same
    instance is returned after that, so callers must not modify it."""
    return _parser_tree()[0]


@functools.cache
def _parser_tree() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name."""
    parser = _Parser(prog="fracon",
                     description="verification toolkit for generalized "
                                 "strongly eta-convex functions")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = subs.add_parser("certify", help="search for membership counterexamples")
    _add_common(p)
    p.add_argument("--grid", type=int, default=None,
                   help="lattice points per axis (default 50)")
    p.add_argument("--refine", type=int, default=None,
                   help="refinement levels (default 3)")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("hh", help="check the four-term inequality chain")
    _add_common(p)
    p.add_argument("--backend", choices=("exact", "rl"), default=None,
                   help="integral route for the mean term (default rl)")
    p.add_argument("--m-eta", dest="m_eta", type=float, default=None,
                   help="supply the eta bound instead of sampling it")
    p.set_defaults(func=_cmd_hh)

    p = subs.add_parser("fejer", help="check the weighted three-term chain")
    _add_common(p)
    p.add_argument("--w", default=None, help="weight preset id or expression")
    p.set_defaults(func=_cmd_fejer)

    p = subs.add_parser("sweep", help="batch chain+certify grid as CSV")
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags override it")
    p.add_argument("--alphas", default=None,
                   help="comma list of alpha values (default 0.3,0.5,0.9,1.0)")
    p.add_argument("--cs", default=None, help="comma list of c values (default 0,1)")
    p.add_argument("--etas", default=None,
                   help="comma list of eta ids/expressions (default presets)")
    p.add_argument("--fs", default=None,
                   help="comma list of f ids/expressions (default presets)")
    p.add_argument("--interval", default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--refine", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("integrate", help="one local fractional integral")
    p.add_argument("f", help="function preset id or expression")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--backend", choices=("exact", "rl", "auto"), default="auto")
    p.set_defaults(func=_cmd_integrate)

    p = subs.add_parser("diff", help="one local fractional derivative")
    p.add_argument("f", help="function preset id or expression")
    p.add_argument("--at", type=float, required=True, help="evaluation point")
    p.add_argument("--from", dest="base", type=float, default=0.0,
                   help="base point of the expansion (default 0)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--mode", choices=("exact", "fd", "auto"), default="auto")
    p.set_defaults(func=_cmd_diff)

    p = subs.add_parser("axioms", help="arithmetic conformance for both carriers")
    p.add_argument("--alpha", type=float, default=None,
                   help="single alpha (default: 0.3, 0.5, 0.9, 1.0)")
    p.add_argument("--triples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=2718)
    p.add_argument("--json", action="store_true",
                   help="emit the JSON envelope instead of text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_axioms)

    return parser, dict(subs.choices)


def _parse_args(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, reading the line once.

    A line that starts with a command goes straight to that command's
    parser: the top-level parser would read the whole line and then hand
    it everything after the command.  Help, ``--version``, an empty line
    and an unknown command stay with the top-level parser.  Measured
    against ``parser.parse_args`` (``tools/cases_ab.py``, seeds 1,2, 20
    rounds): quadrature mean B/A 0.904, this faster in 20 of 20 rounds.
    """
    sub = _parser_tree()[1].get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.cmd = argv[0]
    return args


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; returns the exit code (see module docstring)."""
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
        # Overflow surfaces as a one-line error below, not as numpy warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"fracon: error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, NotPolynomial, SymmetryError) as exc:
        print(f"fracon: error: {exc}", file=sys.stderr)
        return 1
    except _RUNTIME_ERRORS as exc:
        print(f"fracon: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
