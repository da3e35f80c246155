"""Guards for the fast scalar ``intervals.Q``.

``Q``'s fast paths read the private ``_numerator`` / ``_denominator`` slots
of CPython's ``fractions.Fraction``; the first test fails loudly on an
interpreter that renames them.  The ratchet keeps every constructor call in
``src/xferop`` on ``Q``: a bare ``Fraction(...)`` call builds a plain
``Fraction``, whose every operation takes the slow ``numbers.Rational``
dispatch.  The ceiling is 0, so raise it only with a reason.
"""

import ast
from fractions import Fraction
from pathlib import Path

from xferop.intervals import Q

SRC = Path(__file__).resolve().parents[1] / "src" / "xferop"

CEILING = 0


def _builds_fraction(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "Fraction") or (
        isinstance(f, ast.Attribute) and f.attr == "Fraction"
    )


def bare_fraction_calls(source: str, name: str = "<snippet>") -> list[str]:
    return [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if _builds_fraction(node)
    ]


def test_fraction_keeps_the_slots_the_fast_paths_read():
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    x = Fraction(6, -4)
    assert (x._numerator, x._denominator) == (-3, 2)
    assert Q.__slots__ == () and not hasattr(Q(1, 3), "__dict__")


def test_bare_fraction_calls_stay_under_the_ceiling():
    found = [
        call
        for path in sorted(SRC.glob("*.py"))
        for call in bare_fraction_calls(path.read_text(encoding="utf-8"), path.name)
    ]
    assert len(found) <= CEILING, "\n".join(found)


def test_the_ratchet_sees_calls_only():
    snippet = '''
import fractions
a = Fraction(1, 2)
b = fractions.Fraction("3/4")
c = Fraction.__add__(a, b)
d = isinstance(a, Fraction)
e = "Fraction(1, 2)"  # Fraction(1, 2)
'''
    assert [c.split(": ", 1)[1] for c in bare_fraction_calls(snippet)] == [
        "Fraction(1, 2)",
        "fractions.Fraction('3/4')",
    ]
