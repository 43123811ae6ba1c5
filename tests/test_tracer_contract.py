"""The benchmark tracer's contract with the program, checked in-process.

``perfbench/tracing.py`` wraps fracon's public functions and reads some of
their arguments and results by name (``backend.kind.value``,
``mode.value``, ``QuadResult.evals``, ``report.evaluations``).  A change to
one of those signatures breaks ``perfbench/run.py --trace 1``; this test
finds it in a few milliseconds instead of a full benchmark run.
"""

from __future__ import annotations

from pathlib import Path

import fracon
from fracon import cli

_CASES = (
    ["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5",
     "--grid", "16", "--refine", "1"],
    ["hh", "--f", "abs(x - 0.3)^(a)", "--eta", "difference", "--alpha", "0.5"],
    ["fejer", "--f", "square", "--eta", "difference", "--w", "parabolic",
     "--alpha", "0.5"],
    ["integrate", "x^(2a)", "0", "1", "--alpha", "0.5", "--backend", "exact"],
    ["diff", "abs(x - 0.3)^(a)", "--at", "0.4", "--alpha", "0.5", "--mode", "fd"],
)


def test_tracer_hooks_fire_on_every_layer(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer(fracon)
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in _CASES]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert set(codes) <= {0, 2}
    expected = set().union(*tracing.EXPECTED.values())
    assert sorted(expected - set(tracer.fired)) == []
    assert tracer.counters["exact_calls"] == 1
    assert tracer.counters["lattice_cells"] == 16**3 + 13**3
    assert tracer.counters["rl_evals"] > 0
