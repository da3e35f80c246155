"""A ceiling on the places in ``src/xferop`` that branch on the backend.

A branch is a line that compares a ``backend`` with ``==`` or ``!=`` (the
count ROADMAP item 4 tracks), or a line that tests ``isinstance`` against
one of the typed backend classes: the maps ``IntervalSystem`` and
``GraphSystem``, the weights ``PiecewiseAffine`` (the interval backend's
one function type, test functions too) and ``GraphPotential``, the
measures ``AtomicMeasure`` and ``UlamMeasure``, and the graph test
functions ``CylinderFunction``.  The pattern keeps the names that
``PiecewiseAffine`` replaced, ``IntervalPotential`` and ``TestFunction``.
The second kind is counted so that a removed branch cannot come back as a
type test.  When a change
removes branches, lower ``CEILING`` to the new count.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xferop"

CEILING = 23  # 20 backend comparisons + 3 type tests in PartialSystem

BRANCH = re.compile(
    r"\bbackend\s*[!=]="
    r"|\bisinstance\([^)]*\b(IntervalSystem|GraphSystem|PiecewiseAffine|IntervalPotential|GraphPotential"
    r"|AtomicMeasure|UlamMeasure|TestFunction|CylinderFunction)\b"
)


def backend_branches() -> list[str]:
    return [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if BRANCH.search(line)
    ]


def test_backend_branches_stay_under_the_ceiling():
    found = backend_branches()
    assert len(found) <= CEILING, "\n".join(found)


def test_the_pattern_sees_both_spellings():
    assert BRANCH.search('if system.backend == "graph":')
    assert BRANCH.search('if pot.backend != "interval":')
    assert BRANCH.search("if isinstance(system.map, GraphSystem):")
    assert BRANCH.search("isinstance(pot, (IntervalPotential, GraphPotential))")
    assert BRANCH.search("if isinstance(mu, tr.UlamMeasure):")
    assert BRANCH.search("if isinstance(f, dyn.PiecewiseAffine):")
    assert not BRANCH.search("if isinstance(region, CylinderSet):")
