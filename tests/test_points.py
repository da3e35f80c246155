"""Points of each backend on the command line: explicit anchors, samples and
seeds, their parse errors, and the round trip through the map's printer."""

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from xferop import dynamics as dyn
from xferop import specfile
from xferop.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import cells  # noqa: E402  (the benchmark's specs)


def _run(*args):
    result = CliRunner().invoke(main, list(args))
    assert isinstance(result.exception, (SystemExit, type(None))), result.output
    return result.exit_code, result.output.splitlines()


@pytest.mark.parametrize(
    "spec, anchor, printed",
    [
        ("tent_std", "1/3", "1/3"),
        ("tent_std", " 2/6 ", "1/3"),
        ("fullshift2", "@v", "@v"),
        ("fullshift2", "e0.e1", "e0.e1"),
        ("fullshift2", "e0,e1", "e0.e1"),
    ],
)
def test_rep_orbit_takes_an_explicit_anchor(spec, anchor, printed):
    code, lines = _run("rep", "orbit", "--spec", spec, "--anchor", anchor)
    assert code == 0, lines
    assert f"anchor: {printed}" in lines
    assert "dimension: 31" in lines


def test_relations_takes_an_explicit_anchor():
    code, lines = _run("relations", "--spec", "doubling", "--anchor", "1/7")
    assert code == 0, lines
    assert "anchor: 1/7; depth: 5; dimension: 63" in lines


def test_quasi_orbits_on_explicit_graph_samples():
    code, lines = _run(
        "quasi-orbits", "--spec", "fullshift2", "--samples", "e0", "--samples", "@v", "--samples", "e1.e0"
    )
    assert code == 0, lines
    body = lines[lines.index("classification"):]
    assert body[2:6] == ["point  representative", "@v     e0", "e0     e0", "e1.e0  e0"]
    closure = next(ln for ln in lines if ln.startswith("closure of "))
    assert closure.startswith("closure of e0: {@v, e0, e0.e0, ")
    assert closure.count(", ") == 46


def test_quasi_orbits_on_explicit_interval_samples():
    code, lines = _run("quasi-orbits", "--spec", "doubling", "--samples", "1/3", "--samples", "1/5")
    assert code == 0, lines
    assert "classes: 2" in lines
    assert any(ln.startswith("closure of 1/3: {1/12, 1/24, 1/3, ") for ln in lines)
    assert any(ln.startswith("closure of 1/5: {") for ln in lines)


def test_quasi_orbits_refuses_the_tent_weight_whatever_the_samples():
    code, lines = _run("quasi-orbits", "--spec", "tent_std", "--samples", "1/3", "--samples", "0")
    assert code == 3, lines
    assert lines[0].startswith("error: weight is discontinuous at 1/2")


@pytest.mark.parametrize(
    "spec, seeds, want",
    [
        ("tent_std", ("1/3",),
         ["restricted to regular region: branch domains cut to [0, 1/2) u (1/2, 1]",
          "seeds: 1/3", "depth: 3", "unit points: 15", "elements: 281", "axiom violations: 0"]),
        ("tent_std", (),
         ["restricted to regular region: branch domains cut to [0, 1/2) u (1/2, 1]",
          "seeds: 1/4", "depth: 3", "unit points: 15", "elements: 225", "axiom violations: 0"]),
        ("tent_half", (),
         ["restricted to regular region: branch domains cut to [0, 1/2)",
          "seeds: 1/4", "depth: 3", "unit points: 4", "elements: 16", "axiom violations: 0"]),
        ("fullshift2", ("e0.e1", "@v"),
         ["restricted to regular region: dropped edges: none",
          "seeds: e0.e1, @v", "depth: 3", "unit points: 27", "elements: 473", "axiom violations: 0"]),
    ],
)
def test_groupoid_build_on_seeds_and_the_regular_restriction(spec, seeds, want):
    args = [a for s in seeds for a in ("--seeds", s)]
    code, lines = _run("groupoid", "build", "--spec", spec, *args, "--restrict-regular")
    assert code == 0, lines
    start = lines.index(want[0])
    assert lines[start:start + len(want)] == want


@pytest.mark.parametrize(
    "spec, text, message",
    [
        ("tent_std", "x", "bad rational point 'x'"),
        ("tent_std", "1/0", "bad rational point '1/0'"),
        ("fullshift2", ",", "bad path point ','"),
        ("fullshift2", "@zz", "unknown vertex zz"),
        ("fullshift2", "e0.zz", "unknown edge zz"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [("rep", "orbit", "--anchor"), ("quasi-orbits", "--samples"), ("groupoid", "build", "--seeds")],
    ids=" ".join,
)
def test_bad_points_exit_3(spec, text, message, command):
    *cmd, option = command
    code, lines = _run(*cmd, "--spec", spec, option, text)
    assert code == 3, lines
    assert lines == [f"error: {message}"]


@pytest.mark.parametrize(
    "args, point",
    [
        (("quasi-orbits", "--spec", "doubling", "--samples", "7", "--samples", "1/3"), "7"),
        (("groupoid", "gap", "--spec", "doubling", "--samples", "9"), "9"),
        (("rep", "orbit", "--spec", "tent_std", "--anchor", "5"), "5"),
        (("spectrum", "--spec", "halving", "--samples", "-1/2"), "-1/2"),
    ],
    ids=["quasi-orbits", "gap", "rep", "spectrum"],
)
def test_interval_points_outside_the_space_exit_3(args, point):
    code, lines = _run(*args)
    assert code == 3, lines
    assert lines == [f"error: point {point} lies outside the space [0, 1]"]


def test_candidate_atom_outside_the_space_is_refused(tmp_path):
    path = tmp_path / "cand.json"
    doc = {"beta": 1.0, "measure": {"type": "atomic", "backend": "interval",
                                    "atoms": [{"point": "1/3", "mass": "1/2"},
                                              {"point": "3/2", "mass": "1/2"}]}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, lines = _run("kms-verify", "--spec", "tent_std", "--candidate", str(path))
    assert code == 3, lines
    assert lines == ["error: point 3/2 lies outside the space [0, 1]"]


def _spec(name):
    if name in cells.BUNDLED:
        return specfile.bundled(name)
    return specfile.parse_spec(cells.generated_specs()[name])


@pytest.mark.parametrize("name", [*cells.BUNDLED, "golden_mean"])
def test_points_round_trip_through_their_text(name):
    spec = _spec(name)
    system, pot = spec.system, spec.potential
    m = system.map
    anchor = m.default_anchor(dyn.regular_set(system, pot).delta_reg)
    # the fibres of the map, not of the operator: halving weighs zero at 1, the
    # one preimage of its anchor 1/2
    tree, level = [], [anchor]
    for _ in range(4):
        tree += level
        level = [x for z in level for x in m.fiber(z)]
    points = [*m.default_samples(), anchor, *tree]
    if isinstance(m, dyn.GraphSystem):
        points += [m.vertex_point(v) for v in m.vertices]
    assert len(tree) > 1
    for x in points:
        assert m.parse_point(m.point_text(x)) == x
        assert m.point_from_doc(m.point_doc(x)) == x
