"""Contract tests for the ``xferop`` command line."""

import json
import sys
from collections import Counter
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from xferop import cli, specfile
from xferop import transfer as tr
from xferop import verdicts as vd
from xferop.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import cells  # noqa: E402  (the benchmark's 20 subcommands)


def test_check_minimal_tent_certificate():
    result = CliRunner().invoke(main, ["check", "minimal", "--spec", "tent_std"])
    assert result.exit_code == 0, result.output
    assert "Minimal: Holds (depth 8)" in result.output
    assert "certificate: MinimalScan(depth=8, seeds=528, iterations=32)" in result.output.splitlines()


@pytest.mark.parametrize(
    "spec, verdict, certificate",
    [
        ("loops2", "Fails", "InvariantSet(region=(PathPoint(word=(), end='u', rng='u'),))"),
        ("fullshift2", "Holds", "MinimalScan(depth=8, seeds=31, iterations=32)"),
        ("loop1", "Holds", "MinimalScan(depth=8, seeds=5, iterations=32)"),
    ],
)
def test_check_minimal_certificate(spec, verdict, certificate):
    result = CliRunner().invoke(main, ["check", "minimal", "--spec", spec])
    assert result.exit_code == (0 if verdict == "Holds" else 1), result.output
    assert f"Minimal: {verdict} (depth 8)" in result.output
    assert f"certificate: {certificate}" in result.output.splitlines()


def _spec_with_energy_x(tmp_path):
    """tent_std with the energy x, so ``conformal`` bisects on a varying weight."""
    doc = json.loads(resources.files("xferop").joinpath("specs", "tent_std.json").read_text("utf-8"))
    doc["name"] = "tent_x"
    doc["psi"]["pieces"][0].update(slope="1", intercept="0")
    path = tmp_path / "tent_x.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("spec", ["tent_x", "tent_std", "fullshift2"])
@pytest.mark.parametrize("bracket", ["-1000,6.0", "-800,-700"])
def test_conformal_overflowing_bracket_exits_3(tmp_path, spec, bracket):
    path = _spec_with_energy_x(tmp_path) if spec == "tent_x" else spec
    result = CliRunner().invoke(main, ["conformal", "--spec", path, "--bracket", bracket])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    beta = bracket.split(",")[0]
    assert f"error: exp(-beta*energy) overflows at beta={float(beta)!r}" in result.output
    assert "beta:" not in result.output and "Traceback" not in result.output


def _candidate(tmp_path, spec):
    path = str(tmp_path / f"cand_{spec}.json")
    result = CliRunner().invoke(main, ["conformal", "--spec", spec, "--candidate-out", path])
    assert result.exit_code == 0, result.output
    return path


@pytest.mark.parametrize("tol, code, verdict", [(None, 0, "yes"), ("1e-12", 1, "no")])
def test_conformal_check_defaults_to_the_candidate_tolerance(tmp_path, tol, code, verdict):
    # a 256-bin candidate on a varying energy has residuals ~1e-3, inside
    # its own tolerance 1e-5 + 10/bins and far outside the solve's 1e-8
    spec = _spec_with_energy_x(tmp_path)
    cand = str(tmp_path / "cand_tent_x.json")
    solve = ["conformal", "--spec", spec, "--bracket", "0.5,6.0", "--bins", "256", "--candidate-out", cand]
    result = CliRunner().invoke(main, solve)
    assert result.exit_code == 0, result.output
    check = ["conformal", "--spec", spec, "--check", cand] + (["--tol", tol] if tol else [])
    result = CliRunner().invoke(main, check)
    assert result.exit_code == code, result.output
    assert f"within tolerance: {verdict}" in result.output.splitlines()
    assert format(float(tol or 1e-5 + 10 / 256), ".12e") in result.output  # the tol column


@pytest.mark.parametrize("spec", ["tent_std", "tent_half", "doubling"])
def test_kms_verify_battery(tmp_path, spec):
    cand = _candidate(tmp_path, spec)
    result = CliRunner().invoke(main, ["kms-verify", "--spec", spec, "--candidate", cand])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert "exchange residuals" in lines
    assert sum(line.startswith("pair") and ":" in line.split()[0] for line in lines) == 20
    assert "within tolerance: yes" in lines


def test_kms_verify_graph_route(tmp_path):
    # the monomial battery is interval-only: graph candidates are checked
    # through the eigen-measure identity, one row per length-one cylinder
    cand = _candidate(tmp_path, "fullshift2")
    result = CliRunner().invoke(main, ["kms-verify", "--spec", "fullshift2", "--candidate", cand])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    rows = [line.split()[0] for line in lines[lines.index("exchange residuals") + 3:] if line]
    assert rows[:2] == ["f0", "f1"] and rows[2] == "max"
    assert not any(line.startswith("pair0") for line in lines)
    assert "within tolerance: yes" in lines


@pytest.mark.parametrize("backend", ["interval", "bogus"])
def test_kms_verify_refuses_measure_of_another_backend(tmp_path, backend):
    path = _candidate(tmp_path, "fullshift2")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["measure"] = {"type": "atomic", "backend": backend, "atoms": [{"point": "1/3", "mass": "1"}]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    result = CliRunner().invoke(main, ["kms-verify", "--spec", "fullshift2", "--candidate", path])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: measure backend {backend!r} does not match the graph system" in result.output


def _doubling_on_0_2(tmp_path):
    """doubling copied onto the space [0, 2]: branch slopes 2, weight 1/2."""
    doc = json.loads(resources.files("xferop").joinpath("specs", "doubling.json").read_text("utf-8"))
    whole = {"lo": "0", "hi": "2", "lo_closed": True, "hi_closed": True}
    doc["name"] = "doubling_0_2"
    doc["space"] = [whole]
    doc["branches"] = [
        {"domain": {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": False},
         "slope": "2", "intercept": "0"},
        {"domain": {"lo": "1", "hi": "2", "lo_closed": True, "hi_closed": True},
         "slope": "2", "intercept": "-2"},
    ]
    for key in ("potential", "psi"):
        doc[key]["pieces"][0]["interval"] = whole
    path = tmp_path / "doubling_0_2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", [["kms-verify", "--candidate"], ["conformal", "--check"]])
@pytest.mark.parametrize(
    "spec, message",
    [
        ("doubling_0_2", "measure grid [0, 1] does not match the space [0, 2]"),
        ("fullshift2", "operation needs the interval backend"),
    ],
)
def test_binned_candidate_of_another_space_refused(tmp_path, command, spec, message):
    cand = _candidate(tmp_path, "doubling")
    if spec == "doubling_0_2":
        spec = _doubling_on_0_2(tmp_path)
        assert CliRunner().invoke(main, ["validate", "--spec", spec]).exit_code == 0
    result = CliRunner().invoke(main, [command[0], "--spec", spec, command[1], cand])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: {message}" in result.output
    assert "within tolerance" not in result.output


@pytest.mark.parametrize(
    "spec, kind",
    [("tent_std", "ulam"), ("tent_std", "atomic"), ("fullshift2", "atomic"), ("loops2", "atomic")],
)
def test_candidate_measure_round_trip(spec, kind):
    system = specfile.bundled(spec).system
    if kind == "ulam":
        mu = tr.UlamMeasure(0, 1, (F(1, 2), F(3, 2), F(0), F(2)))
    elif system.backend == "interval":
        mu = tr.AtomicMeasure(((F(1, 3), F(1, 4)), (F(1), F(3, 4))))
    else:
        words = system.gph.words(1) + system.gph.words(2)
        mu = tr.AtomicMeasure(tuple((p, F(1, len(words))) for p in words))
    doc = json.loads(json.dumps(mu.to_doc(system)))
    assert doc["type"] == kind
    assert cli._measure_from_doc(doc, system) == mu


@pytest.mark.parametrize("depth_bound", ["deep", None, True, 2.5])
def test_validate_refuses_non_integer_depth_bound(tmp_path, depth_bound):
    doc = json.loads(resources.files("xferop").joinpath("specs", "tent_std.json").read_text("utf-8"))
    doc["depth_bound"] = depth_bound
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = CliRunner().invoke(main, ["validate", "--spec", str(path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: depth_bound must be an integer, got {depth_bound!r}" in result.output


@pytest.mark.parametrize("count", ["0", "-3"])
def test_kms_verify_empty_battery_exits_3(tmp_path, count):
    cand = _candidate(tmp_path, "tent_std")
    result = CliRunner().invoke(
        main, ["kms-verify", "--spec", "tent_std", "--candidate", cand, "--count", count]
    )
    assert result.exit_code == 3, result.output
    assert f"error: the battery needs at least one pair, got count={count}" in result.output
    assert "within tolerance" not in result.output


@pytest.mark.parametrize("spec", ["tent_std", "tent_x"])
@pytest.mark.parametrize("bins", ["0", "-3"])
def test_conformal_refuses_an_empty_bin_grid(tmp_path, spec, bins):
    path = _spec_with_energy_x(tmp_path) if spec == "tent_x" else spec
    result = CliRunner().invoke(main, ["conformal", "--spec", path, "--bins", bins])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: the bin grid needs at least one bin, got bins={bins}" in result.output
    assert "beta:" not in result.output


def _tolerance_cell(tmp_path, command):
    if command == "kms-verify":
        return ["kms-verify", "--spec", "tent_std", "--candidate", _candidate(tmp_path, "tent_std")]
    spec = {"iso-check": "doubling", "graph-gen": "fullshift2"}.get(command, "tent_std")
    group = ["groupoid"] if command in ("iso-check", "graph-gen") else []
    return [*group, command, "--spec", spec]


@pytest.mark.parametrize("tol", ["nan", "-1e-3", "inf"])
@pytest.mark.parametrize(
    "command", ["conformal", "kms-verify", "relations", "iso-check", "graph-gen"]
)
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, command, tol):
    # NaN used to print "within tolerance: no" and exit 1, as if the check had failed
    result = CliRunner().invoke(main, [*_tolerance_cell(tmp_path, command), "--tol", tol])
    assert result.exit_code == 3, result.output
    assert "Invalid value for '--tol': must be a finite number >= 0" in result.output
    assert "within tolerance" not in result.output


@pytest.mark.parametrize(
    "spec, key, value, message",
    [
        ("tent_std", "space", [{"lo": "0", "hi": "1", "lo_closed": "false", "hi_closed": True}],
         "closed flag must be true or false, got 'false'"),
        ("tent_std", "space", [{"lo": "0", "hi": "1", "hi_closed": 0}],
         "closed flag must be true or false, got 0"),
        ("tent_std", "space", [["0", "1", "false"]], "closed flag must be true or false, got 'false'"),
        ("tent_std", "space", [["0", "1", True, None]], "closed flag must be true or false, got None"),
        ("fullshift2", "truncation_depth", True, "truncation_depth must be an integer, got True"),
        ("fullshift2", "truncation_depth", 2.5, "truncation_depth must be an integer, got 2.5"),
        ("fullshift2", "truncation_depth", "deep", "truncation_depth must be an integer, got 'deep'"),
        ("fullshift2", "weights", ["e0"], "weights must be an object, got ['e0']"),
        ("fullshift2", "psi_weights", "x", "psi_weights must be an object, got 'x'"),
        ("tent_std", "potential", [1], "potential must be an object, got [1]"),
        ("tent_std", "psi", "x", "psi must be an object, got 'x'"),
        ("tent_std", "potential", {"pieces": [1]}, "expected an object with key 'interval', got 1"),
        ("tent_std", "potential", {"pieces": [], "overrides": [1]},
         "expected an object with key 'point', got 1"),
        ("tent_std", "branches", [1], "expected an object with key 'domain', got 1"),
        ("fullshift2", "edges", [1], "expected an object with key 'name', got 1"),
        ("fullshift2", "vertices", 5, "vertices must be a list, got 5"),
        ("tent_std", "space", 5, "space must be a list, got 5"),
        ("tent_std", "branches", 5, "branches must be a list, got 5"),
        ("fullshift2", "weights", {"e1": "1"}, "weights has no value for edge 'e0'"),
        ("fullshift2", "psi_weights", {"e0": "1", "e1": "1", "e2": "1"},
         "psi_weights names unknown edge 'e2'"),
    ],
    ids=["dict-flag-string", "dict-flag-int", "list-flag-string", "list-flag-null",
         "depth-true", "depth-float", "depth-string",
         "weights-list", "psi-weights-string", "potential-list", "psi-string",
         "pieces-entry", "overrides-entry", "branches-entry", "edges-entry",
         "vertices-int", "space-int", "branches-int", "weights-missing-edge",
         "psi-weights-unknown-edge"],
)
def test_validate_refuses_malformed_field(tmp_path, spec, key, value, message):
    doc = json.loads(resources.files("xferop").joinpath("specs", f"{spec}.json").read_text("utf-8"))
    doc[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = CliRunner().invoke(main, ["validate", "--spec", str(path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: {message}" in result.output.splitlines()


@pytest.mark.parametrize("key", ["weights", "psi_weights"])
@pytest.mark.parametrize("command", cells.COMMANDS, ids=" ".join)
def test_every_command_refuses_a_weight_missing_an_edge(tmp_path, key, command):
    doc = json.loads(resources.files("xferop").joinpath("specs", "fullshift2.json").read_text("utf-8"))
    del doc[key]["e0"]
    (tmp_path / "fullshift2_no_e0.json").write_text(json.dumps(doc), encoding="utf-8")
    # kms-verify needs its candidate file to exist; the spec is refused first
    (tmp_path / "cand_fullshift2_no_e0.json").write_text("{}", encoding="utf-8")
    args = cells.expand(cells._matrix_cell(command, "fullshift2_no_e0"), str(tmp_path), 0)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: {key} has no value for edge 'e0'" in result.output.splitlines()


@pytest.mark.parametrize("space", [[{"lo": "0", "hi": "1"}], [["0", "1"]]], ids=["dict", "list"])
def test_absent_closed_flags_default_to_closed(tmp_path, space):
    doc = json.loads(resources.files("xferop").joinpath("specs", "tent_std.json").read_text("utf-8"))
    doc["space"] = space
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = CliRunner().invoke(main, ["region", "--spec", str(path)])
    assert result.exit_code == 0, result.output
    reference = CliRunner().invoke(main, ["region", "--spec", "tent_std"])
    # the reports agree below the header, which names the input and the time
    assert result.output.split("\n\n", 1)[1] == reference.output.split("\n\n", 1)[1]
    assert "domain: [0, 1]" in result.output.splitlines()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("beta", "abc", "could not convert string to float: 'abc'"),
        ("measure", "x", "measure must be an object, got 'x'"),
    ],
    ids=["beta", "measure"],
)
def test_kms_verify_refuses_malformed_candidate(tmp_path, key, value, message):
    path = _candidate(tmp_path, "fullshift2")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    result = CliRunner().invoke(main, ["kms-verify", "--spec", "fullshift2", "--candidate", path])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output and message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("spec", ["tent_std", "fullshift2"])
@pytest.mark.parametrize(
    "command, want",
    [
        (["report"], {"check_minimal": 1, "check_top_free": 1, "check_contracting": 1,
                      "check_one_circuit": 1}),
        (["check", "simple"], {"check_minimal": 1, "check_top_free": 1, "check_one_circuit": 1}),
        (["check", "pure-infinite"], {"check_minimal": 1, "check_contracting": 1}),
    ],
    ids=["report", "simple", "pure-infinite"],
)
def test_each_verdict_part_computed_once(monkeypatch, spec, command, want):
    calls = Counter()
    for name in ("check_minimal", "check_top_free", "check_contracting", "check_one_circuit"):
        def counted(*args, _name=name, _check=getattr(vd, name)):
            calls[_name] += 1
            return _check(*args)

        monkeypatch.setattr(vd, name, counted)
    result = CliRunner().invoke(main, [*command, "--spec", spec])
    assert result.exit_code in (0, 1, 2), result.output
    assert calls == want


@pytest.mark.parametrize(
    "lam, message",
    [
        ("e0=1,e1=1,zz=3", "weight names unknown edge zz"),
        ("e0=1,e0=2,e1=1", "edge e0 named twice in --lam"),
        ("e0=1", "edge e1 has no weight"),
        ("e0=0,e1=1", "edge weight for e0 must be positive"),
    ],
    ids=["unknown", "twice", "missing", "zero"],
)
def test_graph_gen_refuses_a_bad_weight_table(lam, message):
    result = CliRunner().invoke(main, ["groupoid", "graph-gen", "--spec", "fullshift2", "--lam", lam])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: {message}"]
