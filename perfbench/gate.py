"""Correctness gate: compare one cell's exit code and report with its pin.

Lines must match exactly after two normalisations: the ``timestamp:``
header line is dropped and the run's scratch directory reads ``<work>``.
Floating-point numbers inside a line are compared within ``FLOAT_TOL``
(absolute, plus a relative 1e-12 for large magnitudes), so byte-level
float noise does not fail a cell but a moved temperature does.  In a
table with ``residual`` and ``tol`` columns, a residual that was within
its tolerance when pinned must still be within its printed tolerance;
one that was not (the Ulam discretisation rows of ``conformal``) is
compared as a float.
"""

from __future__ import annotations

import math
import re

FLOAT_TOL = 1e-9
FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])")


def normalise(text: str, work: str) -> list[str]:
    if work:
        text = text.replace(work, "<work>")
    return [ln.rstrip() for ln in text.splitlines() if not ln.startswith("timestamp:")]


def _same_floats(want: str, got: str) -> bool:
    if FLOAT.sub("#", want) != FLOAT.sub("#", got):
        return False
    return all(
        math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=FLOAT_TOL)
        for a, b in zip(FLOAT.findall(want), FLOAT.findall(got))
    )


def _same_residual_row(want: str, got: str, r: int, t: int) -> bool:
    w, g = want.split(), got.split()
    if len(w) != len(g) or max(r, t) >= len(w):
        return False
    try:
        pinned_ok = float(w[r]) <= float(w[t])
        if pinned_ok and not float(g[r]) <= float(g[t]):
            return False
    except ValueError:
        return want == got
    if pinned_ok:
        w[r] = g[r] = "#"
    return _same_floats(" ".join(w), " ".join(g))


def mismatches(pinned: dict, exit_code: int, lines: list[str]) -> list[str]:
    """Differences from the pin, empty when the cell passes."""
    problems = []
    if exit_code != pinned["exit"]:
        problems.append(f"exit {exit_code}, pinned {pinned['exit']}")
    want = pinned["lines"]
    if len(want) != len(lines):
        problems.append(f"{len(lines)} lines, pinned {len(want)}")
    cols = None  # (residual, tol) column indices while inside a residual table
    for w, g in zip(want, lines):
        header = w.split()
        if "residual" in header and "tol" in header:
            cols = (header.index("residual"), header.index("tol"))
            same = w == g
        elif not w:
            cols = None
            same = w == g
        elif cols is not None:
            same = _same_residual_row(w, g, *cols)
        else:
            same = _same_floats(w, g)
        if not same:
            problems.append(f"got {g!r}, pinned {w!r}")
    return problems
