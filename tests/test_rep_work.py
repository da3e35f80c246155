"""Ceilings on the per-point work of the matrix-model checks, one cell at seed 0.

``relations`` reads ``L(a)`` off the basis children and ``groupoid
iso-check`` takes phi^n of each node from the basis tree, so only points
off the tree step by hand: the anchor's image, for the pullback of the
product battery (``relations``), and the nodes shallower than a degree
(``iso-check``).  When each node read its fibre and its images itself, a
``relations`` cell made 504 ``dyn.preimages`` calls on tent_std and
doubling, 315 on fullshift2 and 224 on golden_mean, with 3,276
test-function ``value`` calls; an ``iso-check`` cell made 497
``dyn.orbit_end`` calls on doubling, 460 on fullshift2 and 281 on
golden_mean, with 1,588 test-function ``value`` calls on doubling.  A
change that walks per node again fails here; one that lowers a count
lowers its ceiling.
"""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from xferop import cli
from xferop import dynamics as dyn
from xferop import specfile
from xferop import transfer as tr
from xferop.intervals import Q

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import cells  # noqa: E402  (the benchmark's specs)

RELATIONS_PREIMAGES = {"tent_std": 1, "doubling": 1, "fullshift2": 1, "golden_mean": 1}
RELATIONS_VALUES = {"tent_std": 1772, "doubling": 1772}
ISO_ORBIT_ENDS = {"doubling": 11, "fullshift2": 11, "golden_mean": 10}
ISO_VALUES = {"doubling": 186}


@pytest.fixture
def calls(monkeypatch):
    """Counts ``dyn.preimages``, ``dyn.orbit_end`` and test-function ``value`` calls.

    A test function is a ``PiecewiseAffine`` that reads zero off its pieces;
    the weight reads of the same method are not counted.
    """
    count = {}

    def counting(owner, name, counts=lambda *args: True):
        orig = getattr(owner, name)

        def wrapped(*args):
            if counts(*args):
                count[name] = count.get(name, 0) + 1
            return orig(*args)

        monkeypatch.setattr(owner, name, wrapped)

    counting(dyn, "preimages")
    counting(dyn, "orbit_end")
    counting(dyn.PiecewiseAffine, "value", lambda f, x: f.zero_outside)
    return count


def _run(tmp_path, name, *command):
    if name in cells.generated_specs():
        cells.write_specs(tmp_path)
        name = str(tmp_path / f"{name}.json")
    res = CliRunner().invoke(cli.main, [*command, "--spec", name, "--seed", "0"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("name", sorted(RELATIONS_PREIMAGES))
def test_relations_reads_the_transfer_off_the_tree(tmp_path, calls, name):
    _run(tmp_path, name, "relations")
    assert calls.get("preimages", 0) <= RELATIONS_PREIMAGES[name]
    assert calls.get("value", 0) <= RELATIONS_VALUES.get(name, 0)


@pytest.mark.parametrize("name", sorted(ISO_ORBIT_ENDS))
def test_iso_check_reads_the_images_off_the_tree(tmp_path, calls, name):
    _run(tmp_path, name, "groupoid", "iso-check")
    assert calls.get("orbit_end", 0) <= ISO_ORBIT_ENDS[name]
    assert calls.get("value", 0) <= ISO_VALUES.get(name, 0)


def test_the_counter_sees_every_call(calls):
    s = specfile.bundled("doubling")
    h = tr.TransferHandle.create(s.system, s.potential)
    tr.apply(h, dyn.PiecewiseAffine.hat(Q(1, 2), Q(1, 4)), Q(1, 3))  # one read per preimage of 1/3
    dyn.orbit_end(s.system, Q(1, 3), 2)
    assert calls == {"preimages": 1, "value": 2, "orbit_end": 1}
