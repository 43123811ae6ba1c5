"""Named presets for functions, eta maps, and weights used by the CLI.

Presets keep the batch sweep reproducible: a row says ``f_id=square``
rather than embedding expression text, and two runs of the same sweep
resolve the id to the identical expression.  Any CLI slot that accepts a
preset id also accepts raw expression text; unknown ids fall through to
the parser, so ``--f "x^(2a) + 1"`` works without registration.
"""

from __future__ import annotations

__all__ = [
    "ETA_PRESETS",
    "F_PRESETS",
    "W_PRESETS",
    "resolve",
]

#: eta maps (two-argument expressions in u, v).
ETA_PRESETS: dict[str, str] = {
    "difference": "u - v",
    "example23": "2^a*u + v",
}

#: one-argument test functions (variable x; lo/hi bindable constants).
F_PRESETS: dict[str, str] = {
    "square": "x^(2a)",
    "negsquare": "-x^(2a)",
    "const": "1",
}

#: weights for the weighted chain (symmetric ones; "one" recomposes the
#: unweighted chain, "parabolic" vanishes at both endpoints).
W_PRESETS: dict[str, str] = {
    "one": "1",
    "parabolic": "(x - lo)^(a)*(hi - x)^(a)",
}


def resolve(table: dict[str, str], key: str) -> tuple[str, str]:
    """Return (id, expression_text) for ``key`` in one of the tables above;
    an unregistered key is custom expression text."""
    if key in table:
        return key, table[key]
    return "custom", key
