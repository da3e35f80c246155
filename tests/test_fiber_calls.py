"""A ceiling on the places in ``src/xferop`` that step backwards by hand.

The backward tree is walked once, by ``dynamics.preimage_levels``; a
reader that needs a fibre asks ``dynamics.preimages`` for it.  A line
outside ``dynamics.py`` that calls ``.fiber(`` is a backward step written
out again, so the lines that do are counted.  The ones left are the
one-step ``fiber_sum`` of ``transfer._exact_norm`` and the folded graph
walk of ``verdicts._collapsed_basis``.  When a change removes one, lower
``CEILING`` to the new count.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xferop"

CEILING = 2  # transfer 1, verdicts 1

FIBER_CALL = re.compile(r"\.fiber\(")


def fiber_calls() -> list[str]:
    return [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dynamics.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FIBER_CALL.search(line)
    ]


def test_fiber_calls_stay_under_the_ceiling():
    found = fiber_calls()
    assert len(found) <= CEILING, "\n".join(found)


def test_the_pattern_sees_every_receiver():
    assert FIBER_CALL.search("for child in system.map.fiber(point):")
    assert FIBER_CALL.search("nxt = sorted({x for y in levels[-1] for x in sys_.fiber(y)})")
    assert FIBER_CALL.search("for child in gph.fiber(pts[i]):")
    assert not FIBER_CALL.search("def fiber(self, y):")
    assert not FIBER_CALL.search("return fiber_sum(y0)")
