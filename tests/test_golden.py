"""Frozen CLI outputs, byte for byte: the default sweep, README's commands,
a grid-100 certify with c = 0, and hh, fejer and an fd diff on kinked
integrands.

The files under ``tests/golden/`` hold the stdout these commands printed
when they were frozen.  A change to any of them is a change in what users
see, so it must come with a reason and a refreshed file, never silently.
Refresh a file with ``PYTHONPATH=src python -m fracon ARGV > tests/golden/NAME``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from fracon.cli import main

_GOLDEN = Path(__file__).resolve().parent / "golden"
_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"

_CASES = {
    "sweep.csv": (["sweep"], 0),
    "certify.json": (["certify", "--f", "square", "--eta", "difference", "--alpha", "0.5",
                      "--c", "1", "--interval", "0,2"], 2),
    # A zero strong term on a lattice of many slabs.
    "certify_x4a_c0.json": (["certify", "--f", "x^(4a)", "--eta", "difference",
                             "--alpha", "0.5", "--c", "0", "--grid", "100"], 2),
    "hh.json": (["hh", "--f", "square", "--eta", "difference", "--alpha", "0.3"], 2),
    "fejer.json": (["fejer", "--f", "square", "--eta", "difference", "--w", "parabolic",
                    "--alpha", "0.5"], 2),
    "integrate.txt": (["integrate", "x^(a)", "0", "1", "--alpha", "0.5"], 0),
    "diff.txt": (["diff", "x^(2a)", "--at", "3", "--alpha", "1.0"], 0),
    "axioms.txt": (["axioms", "--alpha", "0.5"], 0),
    "axioms.json": (["axioms", "--json"], 0),
    "hh_kinked.json": (["hh", "--f", "abs(x - 0.3)^(a)", "--eta", "difference",
                        "--alpha", "0.3"], 0),
    "fejer_kinked.json": (["fejer", "--f", "abs(x - 0.7)^(a)", "--eta", "example23",
                           "--w", "parabolic", "--alpha", "0.5"], 0),
    "diff_kinked.txt": (["diff", "abs(x - 0.3)^(a)", "--at", "0.4", "--from", "0",
                         "--alpha", "0.3", "--mode", "fd"], 0),
    # A bare eta variable: L's integrand multiplies w into eta's array,
    # which must be a copy of f's samples, not the quadrature mesh.  At
    # alpha 0.3 a bare x has no normal form (1/alpha is not an integer), so
    # L stays on the rl route.
    "fejer_bare_u.json": (["fejer", "--f", "x", "--eta", "u", "--w", "one",
                           "--alpha", "0.3"], 0),
    "fejer_bare_v.json": (["fejer", "--f", "x", "--eta", "v", "--w", "one",
                           "--alpha", "0.3"], 0),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_output_matches_frozen_file(capsys, name):
    argv, code = _CASES[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (_GOLDEN / name).read_bytes()


def test_output_does_not_depend_on_cache_state():
    """The benchmark's quadrature and sweep cases (seed 1) print the same
    bytes whether fracon's caches (the parser tree and the quadrature
    meshes) are warm or cleared before every case, and the bytes they
    printed when these digests were frozen, so a change that moves any bit
    of hh, fejer, integrate, diff or sweep output fails here.
    Refresh with ``python3 tools/output_digest.py --workload quadrature
    --workload sweep --seeds 1``."""
    argv = [sys.executable, str(_DIGEST), "--workload", "quadrature", "--workload", "sweep",
            "--seeds", "1"]
    warm = subprocess.run(argv, capture_output=True, text=True, check=True)
    cold = subprocess.run([*argv, "--cold"], capture_output=True, text=True, check=True)
    assert warm.stdout == (
        "quadrature 144 87ceb81781e1bd362c0cd468f57f9e45c7f9e911b2e9a69e4cb6355ec2c56bd3\n"
        "sweep 8 0bd4395e5db7a80b80d1dab90b74b8f6ac94f853c452b6e4d643bb1dde06d333\n"
    )
    assert cold.stdout == warm.stdout


def test_digest_by_command_splits_the_workload_digest():
    """With one command in the workload, ``--by-command``'s one line carries
    the workload's digest (frozen above) under the command's name."""
    argv = [sys.executable, str(_DIGEST), "--workload", "sweep", "--seeds", "1", "--by-command"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out == "sweep sweep 8 0bd4395e5db7a80b80d1dab90b74b8f6ac94f853c452b6e4d643bb1dde06d333\n"


def test_lattice_output_digest_is_frozen():
    """The 48 certify cases of the benchmark's lattice workload (seed 1,
    grids 50 to 150) print the bytes they printed when this digest was
    frozen, so a kernel change that moves any bit of a certify report
    fails here.  Refresh with
    ``python3 tools/output_digest.py --workload lattice --seeds 1``."""
    argv = [sys.executable, str(_DIGEST), "--workload", "lattice", "--seeds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out == "lattice 48 69a5a48eb3b8e2f436f8e30b76a79402f2aa8598f21ecdf87c1479b3dc798817\n"
