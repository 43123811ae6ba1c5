"""Independent checks of fracon's outputs.

Nothing here imports fracon.  Functions, eta maps and weights are
re-implemented in numpy with the program's documented magnitude semantics,
chain terms come from their closed forms (``math.gamma`` for Gamma), and
every integral over a kinked integrand comes from ``refs.json``, frozen
from mpmath by ``make_refs.py``.

Tolerances (relative, against max(|reference|, 1e-6); chain terms against
the chain's term scale instead):

* ``TOL_QUAD`` for values that went through quadrature.  It catches wrong
  answers, not missing digits: the kinked alpha <= 0.5 integrals stop at
  the evaluation cap with errors up to 2.5e-6 (fejer L, alpha 0.3), and
  their accuracy is reported by ``min_correct_digits`` instead of failing
  them.
* ``TOL_DERIV`` for finite-difference derivatives.  Below alpha = 1 they
  difference two capped kinked integrals over a 1e-3 relative step, which
  amplifies the quadrature error: up to 8.4e-4 at alpha 0.3 (kink 0.3,
  point 0.4).  That shows in ``min_correct_digits`` too.
* ``TOL_EXACT`` for closed-form quantities (gamma ratios, endpoint
  values, sampled sups).
* ``TOL_WITNESS`` for a certify witness re-evaluated at its printed
  coordinates.  They carry 15 digits, and when the mixture point sits
  next to a kink of |x - s|**0.3 that moves f by up to (1e-16)**0.3,
  about 2e-5 of the scale.  Witnesses are therefore not graded; the
  decisive check is that the re-evaluated defect is a violation.

A link verdict is checked only where the reference gap clears
``TOL_QUAD`` times the chain's term scale; a certify verdict only where
the oracle's own lattice minimum clears twice the program's violation
tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np

TOL_QUAD = 1e-5
TOL_DERIV = 5e-3
TOL_EXACT = 1e-11
TOL_WITNESS = 1e-4
REL_FLOOR = 1e-6
# Digits are capped at float64 resolution; an exact match reads 15.95.
EPS = 2.0**-53

SWEEP_HEADER = ("alpha,c,eta_id,f_id,a,b,T1,T2,T3,T4,A1,A2,"
                "link12,link23,link34,min_defect,status,message").split(",")
F_PRESETS = {"square": "x^(2a)", "negsquare": "-x^(2a)", "const": "1"}
_KINK = re.compile(r"^abs\(x - ([0-9.]+)\)\^\(a\)$")
_REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def load_refs() -> dict[str, float]:
    return json.loads(_REFS_PATH.read_text(encoding="utf-8"))["values"]


# ------------------------------------------------------------ numpy model


def f_model(text: str, al: float):
    """numpy version of a function preset or pool expression."""
    text = F_PRESETS.get(text, text)
    m = _KINK.match(text)
    if m:
        s = float(m.group(1))
        return lambda x: np.abs(np.asarray(x, float) - s) ** al
    powers = {"x^(2a)": (1.0, 2.0), "-x^(2a)": (-1.0, 2.0), "x^(4a)": (1.0, 4.0)}
    if text in powers:
        sign, k = powers[text]
        return lambda x: sign * np.abs(np.asarray(x, float)) ** (k * al)
    if text == "1":
        return lambda x: np.ones_like(np.asarray(x, float))
    raise ValueError(f"no model for function {text!r}")


def f_max_abs(text: str, al: float, a: float, b: float) -> float:
    """max |f| on [a, b]; every pool function is monotone in |x - s|."""
    f = f_model(text, al)
    return float(np.max(np.abs(f(np.array([a, b])))))


def eta_model(name: str, al: float):
    if name == "difference":
        return lambda u, v: u - v
    if name == "example23":
        return lambda u, v: 2.0**al * u + v
    raise ValueError(f"no model for eta {name!r}")


def rl_const(text: str, al: float) -> float:
    """0_I_1 f for the sweep presets, in closed form."""
    text = F_PRESETS.get(text, text)
    if text == "1":
        return 1.0 / math.gamma(1.0 + al)
    sign = -1.0 if text.startswith("-") else 1.0
    return sign * math.gamma(1.0 + 2.0 * al) / math.gamma(1.0 + 3.0 * al)


def sampled_eta_sup(f, eta, a: float, b: float, n: int = 512) -> float:
    """The chain's documented M: max of eta over f-image pairs of an n-grid."""
    fx = f(np.linspace(a, b, n))
    return float(np.max(eta(fx[:, None], fx[None, :])))


def lattice_min(f, eta, c: float, al: float, a: float, b: float, n: int) -> float:
    """Minimum defect over the n**3 (x, y, t) lattice, in x-slabs."""
    xs = np.linspace(a, b, n)
    ts = np.linspace(0.0, 1.0, n)
    fx = f(xs)
    e = eta(fx[:, None], fx[None, :])
    ta = ts**al
    corr = c**al * ta * (1.0 - ts) ** al
    best = math.inf
    for lo in range(0, n, 16):
        x = xs[lo:lo + 16, None, None]
        y = xs[None, :, None]
        t = ts[None, None, :]
        lhs = f(t * x + (1.0 - t) * y)
        rhs = (fx[None, :, None] + ta * e[lo:lo + 16, :, None]
               - corr * np.abs(x - y) ** (2.0 * al))
        best = min(best, float(np.min(rhs - lhs)))
    return best


# ------------------------------------------------------------------ checks


class Verdict:
    """Problems found in one output, plus the digits of each checked value."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.digits: list[float] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.fail(message)

    def close(self, name: str, got, ref: float, tol: float, scale: float = 0.0,
              graded: bool = True) -> None:
        """Compare ``got`` with ``ref``; ``graded`` values count toward digits."""
        if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
            self.fail(f"{name}: not a finite number: {got!r}")
            return
        # The CLI prints 15 significant digits; round the reference the same
        # way so that a correctly printed value reads as exact.
        err = abs(got - float(f"{ref:.15g}")) / max(abs(ref), scale, REL_FLOOR)
        if graded:
            self.digits.append(-math.log10(max(err, EPS)))
        if not err <= tol:
            self.fail(f"{name}: {got!r} vs reference {ref!r} (rel err {err:.2e} > {tol:g})")


def _chain_links(v: Verdict, links: list[dict], expected: list[tuple[str, float, float]],
                 scale: float) -> None:
    """Check link names, gaps (when reported) and decisive verdicts."""
    names = [name for name, _, _ in expected]
    if [l.get("name") for l in links] != names:
        v.fail(f"links {[l.get('name') for l in links]} != {names}")
        return
    for link, (name, lo, hi) in zip(links, expected):
        gap = hi - lo
        if "gap" in link:
            v.close(f"gap {name}", link["gap"], gap, TOL_QUAD, scale, graded=False)
        if abs(gap) > TOL_QUAD * scale:
            v.expect(link["holds"] == (gap > 0),
                     f"link {name} reads holds={link['holds']}, reference gap {gap:.3e}")


def _envelope(v: Verdict, out: str, command: str):
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        v.fail(f"output is not JSON: {exc}")
        return None
    v.expect(report.get("version") == "1", "envelope version is not '1'")
    v.expect(report.get("config_echo", {}).get("command") == command,
             "config_echo.command mismatch")
    return report.get("results")


def hh_reference(f_text: str, eta_name: str, al: float, c: float, integral: float,
                 a: float = 0.0, b: float = 1.0) -> dict[str, float]:
    f, eta = f_model(f_text, al), eta_model(eta_name, al)
    g1 = math.gamma(1.0 + al)
    A = math.gamma(1.0 + 2.0 * al) / math.gamma(1.0 + 3.0 * al)
    B = g1 / math.gamma(1.0 + 2.0 * al)
    span, ca = b - a, c**al
    fa, fb, fm = (float(f(np.float64(x))) for x in (a, b, (a + b) / 2.0))
    e_ab, e_ba = float(eta(fa, fb)), float(eta(fb, fa))
    M = sampled_eta_sup(f, eta, a, b)
    corr = ca * span ** (2 * al) * g1 * (B - A)
    return {
        "m_eta": M, "eta_ab": e_ab, "eta_ba": e_ba, "A": A, "B": B,
        "integral": integral,
        "T1": fm - M / 2**al,
        "T2": g1 / span**al * (integral - ca / 4**al * span ** (3 * al) * A),
        "T3": (fa + fb) / 2**al + g1 * (e_ab + e_ba) / 2**al * B - corr,
        "T4": (fa + fb) / 2**al + g1 * M * B - corr,
        "A1": fb + e_ab * g1 * B - corr,
        "A2": fa + e_ba * g1 * B - corr,
    }


# Values that went through quadrature, and the chain terms.
_QUAD_TERMS = {"integral", "m0", "m1", "m2", "m3", "L_eta", "F1", "F2", "F3", "R_eta", "T2"}
_CHAIN_TERMS = {"T1", "T2", "T3", "T4", "A1", "A2", "F1", "F2", "F3", "R_eta"}


def _check_terms(v: Verdict, got: dict, ref: dict, scale: float) -> None:
    """Chain terms are judged against the chain's term scale, 1 + max |term|
    (the scale of the program's own link tolerance); the rest against
    themselves.  Constants and sampled sups are checked but not graded."""
    for key, r in ref.items():
        quad, chain = key in _QUAD_TERMS, key in _CHAIN_TERMS
        v.close(key, got.get(key), r, TOL_QUAD if quad else TOL_EXACT,
                scale if chain else 0.0, graded=quad or chain)


class Oracle:
    """Checks one case's (exit code, stdout) against independent references."""

    def __init__(self) -> None:
        self.refs = load_refs()

    def check(self, case, code: int, out: str) -> Verdict:
        v = Verdict()
        try:
            getattr(self, "_" + case.argv[0])(v, case.params, code, out)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            v.fail(f"malformed output: {exc!r}")
        return v

    # -- certify ---------------------------------------------------------

    def _certify_core(self, v: Verdict, p: dict, status: str, min_defect: float,
                      witness=None) -> None:
        al, c, a, b = p["alpha"], p["c"], p["a"], p["b"]
        f, eta = f_model(p["f"], al), eta_model(p["eta"], al)
        max_f = f_max_abs(p["f"], al, a, b)
        tol = 1e-9 * (1.0 + max_f)
        scale = 1.0 + 4.0 * max_f
        mine = lattice_min(f, eta, c, al, a, b, p["grid"])
        v.expect(status in ("Violated", "NoViolationFound"), f"status {status!r}")
        v.expect(min_defect <= mine + 1e-12 * scale,
                 f"min_defect {min_defect!r} above the lattice minimum {mine!r}")
        if mine < -2.0 * tol:
            v.expect(status == "Violated", f"lattice minimum {mine:.3e} but {status}")
        if status == "NoViolationFound":
            v.expect(min_defect >= -tol, f"NoViolationFound with min_defect {min_defect!r}")
        if witness is None:
            return
        x, y, t = witness["x"], witness["y"], witness["t"]
        v.expect(a <= x <= b and a <= y <= b and 0.0 <= t <= 1.0,
                 f"witness ({x}, {y}, {t}) outside the lattice box")
        fx, fy = float(f(np.float64(x))), float(f(np.float64(y)))
        lhs = float(f(np.float64(t * x + (1.0 - t) * y)))
        rhs = (fy + t**al * float(eta(fx, fy))
               - c**al * t**al * (1.0 - t) ** al * abs(x - y) ** (2.0 * al))
        wscale = max(abs(lhs), abs(rhs))
        for key, ref in (("lhs", lhs), ("rhs", rhs), ("defect", rhs - lhs)):
            v.close(f"witness.{key}", witness[key], ref, TOL_WITNESS, wscale, graded=False)
        v.expect(rhs - lhs < -tol, f"witness defect {rhs - lhs:.3e} is not a violation")

    def _certify(self, v: Verdict, p: dict, code: int, out: str) -> None:
        res = _envelope(v, out, "certify")
        if res is None:
            return
        al, a, b, n = p["alpha"], p["a"], p["b"], p["grid"]
        status = res.get("status")
        v.expect(code == (2 if status == "Violated" else 0), f"exit {code} with {status}")
        v.expect(res["grid"] == {"grid_n": n, "refine_depth": p["refine"],
                                 "interval": [a, b]}, f"grid echo {res['grid']}")
        v.expect(res["evaluations"] in (n**3, n**3 + p["refine"] * 13**3),
                 f"evaluations {res['evaluations']}")
        maxf = f_max_abs(p["f"], al, a, b)
        v.close("max_abs_f", res["max_abs_f"], maxf, TOL_EXACT)
        v.close("tol_violation", res["tol_violation"], 1e-9 * (1.0 + maxf), TOL_EXACT,
                graded=False)
        self._certify_core(v, p, status, res["min_defect"], res.get("witness"))
        v.expect((res.get("witness") is None) == (status != "Violated"),
                 "witness presence does not match status")

    # -- chains ------------------------------------------------------------

    def _hh(self, v: Verdict, p: dict, code: int, out: str) -> None:
        res = _envelope(v, out, "hh")
        if res is None:
            return
        al = p["alpha"]
        ref = hh_reference(p["f"], p["eta"], al, p["c"], self.refs[f"I|{p['f']}|{al}"])
        scale = 1.0 + max(abs(ref[k]) for k in ("T1", "T2", "T3", "T4"))
        _check_terms(v, res, ref, scale)
        _chain_links(v, res.get("links", []), [
            ("T1<=T2", ref["T1"], ref["T2"]), ("T2<=T3", ref["T2"], ref["T3"]),
            ("T3<=T4", ref["T3"], ref["T4"])], scale)
        self._exit_matches(v, res, code)

    def _fejer(self, v: Verdict, p: dict, code: int, out: str) -> None:
        res = _envelope(v, out, "fejer")
        if res is None:
            return
        al, c, w = p["alpha"], p["c"], p["w"]
        f, eta = f_model(p["f"], al), eta_model(p["eta"], al)
        fa, fb, fm = (float(f(np.float64(x))) for x in (0.0, 1.0, 0.5))
        e_ab, e_ba = float(eta(fa, fb)), float(eta(fb, fa))
        m = [self.refs[f"m{k}|{w}|{al}"] for k in range(4)]
        L = self.refs[f"L|{p['f']}|{p['eta']}|{w}|{al}"]
        F2 = self.refs[f"F2|{p['f']}|{w}|{al}"]
        R = (e_ab + e_ba) / 2**al * m[2]
        ref = {"m0": m[0], "m1": m[1], "m2": m[2], "m3": m[3], "L_eta": L, "R_eta": R,
               "F1": fm * m[0] - L + c**al / 4**al * m[1], "F2": F2,
               "F3": (fa + fb) / 2**al * m[0] + R - c**al * m[3]}
        scale = 1.0 + max(abs(ref[k]) for k in ("F1", "F2", "F3"))
        _check_terms(v, res, ref, scale)
        _chain_links(v, res.get("links", []), [
            ("F1<=F2", ref["F1"], ref["F2"]), ("F2<=F3", ref["F2"], ref["F3"])], scale)
        self._exit_matches(v, res, code)

    @staticmethod
    def _exit_matches(v: Verdict, res: dict, code: int) -> None:
        holds = all(l["holds"] for l in res.get("links", []))
        v.expect(res.get("all_hold") == holds, "all_hold disagrees with the links")
        v.expect(code == (0 if holds else 2), f"exit {code} with all_hold={holds}")

    # -- one-number commands -------------------------------------------------

    def _two_lines(self, v: Verdict, code: int, out: str, label: str):
        lines = out.split("\n")
        v.expect(code == 0, f"exit {code}")
        if len(lines) != 3 or lines[2] != "" or lines[1] != label:
            v.fail(f"unexpected output {out!r}")
            return None
        try:
            return float(lines[0])
        except ValueError:
            v.fail(f"not a number: {lines[0]!r}")
            return None

    def _integrate(self, v: Verdict, p: dict, code: int, out: str) -> None:
        value = self._two_lines(v, code, out, "backend: rl")
        if value is not None:
            ref = p["sign"] * self.refs[f"I|{p['f']}|{p['alpha']}"]
            v.close("integral", value, ref, TOL_QUAD)

    def _diff(self, v: Verdict, p: dict, code: int, out: str) -> None:
        value = self._two_lines(v, code, out, "mode: fd")
        if value is not None:
            ref = self.refs[f"D|{p['f']}|{p['alpha']}|{p['at']}"]
            v.close("derivative", value, ref, TOL_DERIV)

    # -- sweep ---------------------------------------------------------------

    def _sweep(self, v: Verdict, p: dict, code: int, out: str) -> None:
        v.expect(code == 0, f"exit {code}")
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != SWEEP_HEADER:
            v.fail("sweep header mismatch")
            return
        keys = [(al, c, eta, f) for al in p["alphas"] for c in p["cs"]
                for eta in p["etas"] for f in p["fs"]]
        body = rows[1:]
        if len(body) != len(keys):
            v.fail(f"{len(body)} rows, expected {len(keys)}")
            return
        for row, (al, c, eta, f_id) in zip(body, keys):
            cell = dict(zip(SWEEP_HEADER, row))
            where = f"row alpha={al} c={c} {eta} {f_id}"
            if [cell["alpha"], cell["c"], cell["eta_id"], cell["f_id"], cell["a"],
                    cell["b"]] != [format(al, ".15g"), format(c, ".15g"), eta, f_id, "0", "1"]:
                v.fail(f"{where}: key cells {row[:6]}")
                continue
            if cell["status"] == "ERROR":
                v.fail(f"{where}: ERROR {cell['message']}")
                continue
            sub = Verdict()
            ref = hh_reference(f_id, eta, al, c, rl_const(f_id, al))
            got = {k: float(cell[k]) for k in ("T1", "T2", "T3", "T4", "A1", "A2")}
            scale = 1.0 + max(abs(ref[k]) for k in ("T1", "T2", "T3", "T4"))
            _check_terms(sub, got, {k: ref[k] for k in got}, scale)
            links = [{"name": n, "holds": cell[k] == "HOLDS"}
                     for n, k in (("T1<=T2", "link12"), ("T2<=T3", "link23"),
                                  ("T3<=T4", "link34"))]
            sub.expect(all(cell[k] in ("HOLDS", "FAILS") for k in ("link12", "link23", "link34")),
                       f"link cells {row[12:15]}")
            _chain_links(sub, links, [
                ("T1<=T2", ref["T1"], ref["T2"]), ("T2<=T3", ref["T2"], ref["T3"]),
                ("T3<=T4", ref["T3"], ref["T4"])], scale)
            cp = {"f": f_id, "eta": eta, "alpha": al, "c": c, "a": 0.0, "b": 1.0,
                  "grid": 24}
            self._certify_core(sub, cp, cell["status"], float(cell["min_defect"]))
            sub.expect(cell["message"] == "", f"message {cell['message']!r}")
            v.problems += [f"{where}: {m}" for m in sub.problems]
            v.digits += sub.digits
