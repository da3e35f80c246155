"""Ceilings on the places in ``src/xferop`` that step backwards by hand.

The backward tree is walked once, by ``dynamics.preimage_levels``; a
reader that needs a fibre asks ``dynamics.preimages`` for it.  A line
outside ``dynamics.py`` that calls ``.fiber(`` is a backward step written
out again, so the lines that do are counted.  The ones left are the
one-step ``fiber_sum`` of ``transfer._exact_norm`` and the folded graph
walk of ``verdicts._collapsed_basis``.  When a change removes one, lower
``CEILING`` to the new count.

The walk cuts each preimage of weight zero itself, so no reader picks
whether zeros stay: the ``drop_zero`` knob stays gone.  A negative step
count is refused by ``PartialSystem.check_depth``, so the guard is not
copied in front of each call to it again.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xferop"

CEILING = 2  # transfer 1, verdicts 1
NONNEGATIVE_CEILING = 2  # dynamics.PartialSystem.check_depth 1, thermo.PotentialFunction.birkhoff 1

FIBER_CALL = re.compile(r"\.fiber\(")
NONNEGATIVE_GUARD = re.compile(r"raise ValidationError\(\"n must be nonnegative\"\)")


def _lines(pattern: re.Pattern, skip: str = "") -> list[str]:
    return [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != skip
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


def fiber_calls() -> list[str]:
    return _lines(FIBER_CALL, skip="dynamics.py")


def test_fiber_calls_stay_under_the_ceiling():
    found = fiber_calls()
    assert len(found) <= CEILING, "\n".join(found)


def test_the_pattern_sees_every_receiver():
    assert FIBER_CALL.search("for child in system.map.fiber(point):")
    assert FIBER_CALL.search("nxt = sorted({x for y in levels[-1] for x in sys_.fiber(y)})")
    assert FIBER_CALL.search("for child in gph.fiber(pts[i]):")
    assert not FIBER_CALL.search("def fiber(self, y):")
    assert not FIBER_CALL.search("return fiber_sum(y0)")


def test_no_reader_chooses_whether_zero_weights_stay():
    found = _lines(re.compile(r"drop_zero"))
    assert not found, "\n".join(found)


def test_the_step_count_guard_is_not_copied():
    found = _lines(NONNEGATIVE_GUARD)
    assert len(found) <= NONNEGATIVE_CEILING, "\n".join(found)
    assert NONNEGATIVE_GUARD.search('            raise ValidationError("n must be nonnegative")')
    assert not NONNEGATIVE_GUARD.search('raise ValidationError("k must be nonnegative")')
