"""What the temperature solver's Perron iterations cost, and the roots they pin.

``solve_conformal`` returns its own work counts on the candidate
(``perron_calls``, ``power_steps``), so this ratchet reads them off the
result.  The cases are the three solves of the benchmark's ``conformal``
workload (``perfbench/cells.py``), with the arguments its cells pass.  A
mid-bisection Perron call stops once the Collatz-Wielandt bounds prove the
sign of r - 1; with every call run to 1e-13 on the vector one pass took
5,312 power steps.

The roots are pinned with ``==``: a change to the stop rule that moves a
bisection branch moves beta, and must say so by re-pinning here.  The graph
candidate is a pure function of the final, fully converged call, so its file
is pinned byte for byte.
"""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from xferop import cli, specfile
from xferop import thermo as th
from xferop import transfer as tr
from xferop.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import cells  # noqa: E402

# (spec, bins, bracket, beta) of the ``conformal`` workload's solves and the
# ``cli-matrix`` golden_mean cell, with the root each one pins
SOLVES = (
    ("tent_x", 256, (0.5, 6.0), 3.2668447624891996),
    ("tent_x", 512, (0.5, 6.0), 3.5556654818356037),
    ("doubling_x_half", 256, (0.1, 3.0), 0.7641579239512795),
    ("golden_mean", 256, (0.1, 3.0), 0.3491040826542303),
)
WORKLOAD = SOLVES[:3]
CALLS = 94  # Perron calls in one pass of the workload's three solves
STEPS = 2_300  # power steps in one pass; 5,312 when every call converges

GOLDEN_MEAN_CANDIDATE = """\
{
  "beta": 0.3491040826542303,
  "kind": "conformal",
  "measure": {
    "atoms": [
      {
        "mass": "12737507924636002394492611932910/27043212807285488704537769383249",
        "word": [
          "aa"
        ]
      },
      {
        "mass": "8984015457958327257410217998747/27043212807285488704537769383249",
        "word": [
          "ab"
        ]
      },
      {
        "mass": "5321689424691159052634939451592/27043212807285488704537769383249",
        "word": [
          "ba"
        ]
      }
    ],
    "backend": "graph",
    "type": "atomic"
  },
  "note": "",
  "psi": "spec",
  "sha256": "07159428426cdfba2a5173b19a5a9eaa79f63b4c897c578288826820f0923dd6",
  "spec": "<work>/golden_mean.json"
}
"""


def _solve(name, bins, bracket):
    s = specfile.parse_spec(cells.generated_specs()[name])
    h = tr.TransferHandle.create(s.system, s.potential)
    return th.solve_conformal(h, th.PotentialFunction(s.system, s.psi), bins=bins, bracket=bracket)


@pytest.fixture(scope="module")
def solved():
    return {(name, bins): _solve(name, bins, bracket) for name, bins, bracket, _ in SOLVES}


@pytest.mark.parametrize("name, bins, bracket, beta", SOLVES)
def test_the_root_is_pinned_exactly(solved, name, bins, bracket, beta):
    assert solved[name, bins].beta == beta


def test_the_workload_pass_makes_its_pinned_perron_work(solved):
    cands = [solved[name, bins] for name, bins, _, _ in WORKLOAD]
    assert sum(c.perron_calls for c in cands) == CALLS
    assert sum(c.power_steps for c in cands) <= STEPS


@pytest.mark.parametrize("name, bins, bracket, beta", WORKLOAD)
def test_the_enclosure_holds_the_root(solved, name, bins, bracket, beta):
    cand = solved[name, bins]
    assert bracket[0] <= cand.beta_lo < cand.beta_hi <= bracket[1]
    assert cand.beta_lo <= cand.beta <= cand.beta_hi


def test_the_golden_mean_candidate_file_is_pinned(tmp_path):
    cells.write_specs(tmp_path)
    out = tmp_path / "cand.json"
    spec = str(tmp_path / "golden_mean.json")
    res = CliRunner().invoke(main, ["conformal", "--spec", spec, "--candidate-out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_text(encoding="utf-8").replace(str(tmp_path), "<work>") == GOLDEN_MEAN_CANDIDATE


def test_a_candidate_read_from_a_file_carries_no_solve_record(tmp_path):
    cells.write_specs(tmp_path)
    out = tmp_path / "cand.json"
    spec = str(tmp_path / "tent_x.json")
    args = ["conformal", "--spec", spec, "--bracket", "0.5,6.0", "--bins", "64", "--candidate-out", str(out)]
    assert CliRunner().invoke(main, args).exit_code == 0
    system = specfile.parse_spec(cells.generated_specs()["tent_x"]).system
    cand = cli._load_candidate(str(out), system)
    assert (cand.beta_lo, cand.beta_hi, cand.perron_calls, cand.power_steps) == (None,) * 4
