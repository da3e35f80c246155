"""Contract tests for the ``xferop`` command line."""

import csv
import json
import os
import subprocess
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
from xferop.intervals import frac_str

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


@pytest.mark.parametrize("spec", ["tent_x", "tent_std", "fullshift2"])
@pytest.mark.parametrize("bracket", ["nan,1", "0.5,inf", "-inf,1"])
def test_conformal_refuses_a_non_finite_bracket_end(tmp_path, spec, bracket):
    # NaN used to read as "not increasing", inf overflowed the bisection on a
    # varying energy, and tent_std's closed form solved 0.5,inf with exit 0
    path = _spec_with_energy_x(tmp_path) if spec == "tent_x" else spec
    result = CliRunner().invoke(main, ["conformal", "--spec", path, "--bracket", bracket])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: bad bracket {bracket!r}; both ends must be finite" in result.output
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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_iso_check_empty_battery_exits_3(count):
    result = CliRunner().invoke(
        main, ["groupoid", "iso-check", "--spec", "doubling", "--count", count]
    )
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: the check needs at least one pair, got count={count}" in result.output
    assert "within tolerance" not in result.output


@pytest.mark.parametrize(
    "cell",
    [
        ["check", "free", "--spec", "tent_std", "--depth", "0"],
        ["report", "--spec", "tent_std", "--depth", "0"],
        ["check", "contracting", "--spec", "fullshift2", "--depth", "-3"],
        *(["quasi-orbits", "--spec", "fullshift2", "--depth", d] for d in ("0", "-2")),
        *(["check", "one-circuit", "--spec", "fullshift2", "--depth", d] for d in ("0", "-2")),
    ],
    ids=["free", "report", "contracting", "quasi-orbits-0", "quasi-orbits--2",
         "one-circuit-0", "one-circuit--2"],
)
def test_a_scan_needs_at_least_one_step(cell):
    # depth 0 used to answer Holds from an empty scan; -3 crashed with a TypeError;
    # quasi-orbits split e0 from e1 on empty orbit sets, and one-circuit
    # answered Fails without a step
    result = CliRunner().invoke(main, cell)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: depth must be >= 1, got {cell[-1]}" in result.output
    assert "Holds" not in result.output


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
        ("fullshift2", "vertices", ["v", "v"], "bad graph system: vertex names must be distinct"),
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
         "vertices-int", "vertices-repeated", "space-int", "branches-int", "weights-missing-edge",
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


@pytest.mark.parametrize("command", [["kms-verify", "--candidate"], ["conformal", "--check"]])
@pytest.mark.parametrize("beta", ['"nan"', '"inf"', '"-inf"', "NaN", "Infinity", "-Infinity"])
def test_non_finite_candidate_beta_refused(tmp_path, command, beta):
    # a NaN beta printed NaN residuals and exited 1, a Fails; it is an input problem
    spec = _spec_with_energy_x(tmp_path)
    cand = str(tmp_path / "cand_tent_x.json")
    solve = ["conformal", "--spec", spec, "--bins", "16", "--bracket", "0.5,6.0", "--candidate-out", cand]
    assert CliRunner().invoke(main, solve).exit_code == 0
    with open(cand, encoding="utf-8") as fh:
        text = fh.read()
    head, tail = text.split('"beta": ', 1)
    with open(cand, "w", encoding="utf-8") as fh:
        fh.write(head + '"beta": ' + beta + tail[tail.index(","):])
    result = CliRunner().invoke(main, [command[0], "--spec", spec, command[1], cand])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: bad candidate file {cand}: beta must be finite, got " in result.output
    assert "within tolerance" not in result.output and "Traceback" not in result.output


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


def _report_statuses(spec):
    """Property -> status from the verdict table of ``report --depth 3``."""
    result = CliRunner().invoke(main, ["report", "--spec", spec, "--depth", "3", "--format", "csv"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    start = lines.index("# table: verdicts") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("# "))
    rows = list(csv.reader(lines[start:end]))
    assert rows[0][:2] == ["property", "status"]
    return {row[0]: row[1] for row in rows[1:]}


@pytest.mark.parametrize("spec", specfile.BUNDLED)
def test_report_and_checks_agree(spec):
    status_of = {code: status for status, code in cli._STATUS_EXIT.items()}
    statuses = _report_statuses(spec)
    seen = set()
    for prop in cli._CHECKS:
        result = CliRunner().invoke(main, ["check", prop, "--spec", spec, "--depth", "3"])
        verdict = next(line for line in result.output.splitlines() if line.endswith(" (depth 3)"))
        name, printed = verdict.removesuffix(" (depth 3)").split(": ")
        assert printed == status_of[result.exit_code], result.output
        assert statuses[name] == printed, (prop, result.output)
        seen.add(name)
    assert seen == set(statuses)


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


def _frames(exc):
    """The frames of an exception's traceback, then of each exception it was raised during."""
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None:
            yield tb.tb_frame
            tb = tb.tb_next
        exc = exc.__context__


@pytest.mark.parametrize(
    "extra, code", [([], 0), (["--tol", "0"], 1), (["--count", "0"], 3)],
    ids=["holds", "fails", "refused"],
)
def test_an_exit_keeps_no_command_frame(tmp_path, extra, code):
    # CliRunner keeps the SystemExit's traceback; a command frame in it would keep
    # the command's spec, measure and report alive until a cyclic collection
    cand = _candidate(tmp_path, "tent_std")
    result = CliRunner().invoke(main, ["kms-verify", "--spec", "tent_std", "--candidate", cand, *extra])
    assert result.exit_code == code, result.output
    exc = result.exc_info[1]
    assert isinstance(exc, SystemExit) and exc.__traceback__ is result.exc_info[2]
    frames = list(_frames(exc))
    codes = {f.f_code for f in frames}
    assert cli.kms_verify.callback.__wrapped__.__code__ not in codes
    assert cli.Report.conclude.__code__ not in codes
    assert [f.f_code.co_name for f in frames if f.f_code.co_filename == cli.__file__] == ["inner"]


def _edited_candidate(tmp_path, spec, edit):
    """A solved candidate file of ``spec`` with its JSON document changed by ``edit``."""
    path = _candidate(tmp_path, spec)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("command", [["kms-verify", "--candidate"], ["conformal", "--check"]])
def test_a_boolean_beta_is_refused(tmp_path, command):
    # float(True) is 1.0: the battery ran at beta 1 on a file that names no number
    cand = _edited_candidate(tmp_path, "tent_std", lambda doc: doc.update(beta=True))
    result = CliRunner().invoke(main, [command[0], "--spec", "tent_std", command[1], cand])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: bad candidate file {cand}: beta must be a number, got true" in result.output
    assert "beta: 1.0" not in result.output and "within tolerance" not in result.output


def _densities(*ds):
    return lambda doc: doc["measure"].update(densities=list(ds))


def _atom_masses(*ms):
    return lambda doc: [a.update(mass=m) for a, m in zip(doc["measure"]["atoms"], ms)]


@pytest.mark.parametrize("command", [["kms-verify", "--candidate"], ["conformal", "--check"]])
@pytest.mark.parametrize(
    "spec, edit, message",
    [
        ("tent_std", _densities("-1", *["1"] * 7), "candidate measure takes a negative mass"),
        ("tent_std", _densities("-1", "3", *["1"] * 6), "candidate measure takes a negative mass"),
        ("tent_std", _densities(*["1/2"] * 8), "candidate measure has mass 0.5, not 1"),
        ("fullshift2", _atom_masses("-1/2", "3/2"), "candidate measure takes a negative mass"),
        # float() of these masses overflowed: exit 4 with an OverflowError
        ("tent_std", _densities("1e400", *["1"] * 7), "candidate measure has a mass past the float range, not 1"),
        ("fullshift2", _atom_masses("1e400", "1/2"), "candidate measure has a mass past the float range, not 1"),
    ],
    ids=["negative-mass-3/4", "negative-mass-1", "mass-1/2", "negative-atom", "huge-density", "huge-atom"],
)
def test_a_candidate_that_is_not_a_probability_is_refused(tmp_path, command, spec, edit, message):
    # a density of -1 read "within tolerance: yes" and exited 0
    cand = _edited_candidate(tmp_path, spec, edit)
    result = CliRunner().invoke(main, [command[0], "--spec", spec, command[1], cand])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: bad candidate file {cand}: {message}"]


@pytest.mark.parametrize("command", [["kms-verify", "--candidate"], ["conformal", "--check"]])
@pytest.mark.parametrize(
    "value, message",
    [
        ("1/0", "cannot parse rational '1/0': Fraction(1, 0)"),
        ("nan", "cannot parse rational 'nan': Invalid literal for Fraction: 'nan'"),
        (None, "expected a rational value, got None"),
    ],
    ids=["1/0", "nan", "null"],
)
@pytest.mark.parametrize("spec", ["tent_std", "fullshift2"])
def test_an_unreadable_candidate_mass_exits_3(tmp_path, command, value, message, spec):
    edit = _densities(value, *["1"] * 7) if spec == "tent_std" else _atom_masses(value, "1/2")
    cand = _edited_candidate(tmp_path, spec, edit)
    result = CliRunner().invoke(main, [command[0], "--spec", spec, command[1], cand])
    assert result.exit_code == 3, result.output
    assert result.output.splitlines() == [f"error: {message}"]


def test_an_empty_bin_grid_exits_3(tmp_path):
    cand = _edited_candidate(tmp_path, "tent_std", _densities())
    result = CliRunner().invoke(main, ["kms-verify", "--spec", "tent_std", "--candidate", cand])
    assert result.exit_code == 3, result.output
    assert result.output.splitlines() == ["error: bad bin grid"]


@pytest.mark.parametrize("command", [["kms-verify", "--candidate"], ["conformal", "--check"]])
@pytest.mark.parametrize("spec", ["tent_x", "golden_mean"])
def test_an_overflowing_candidate_beta_exits_3(tmp_path, command, spec):
    # exp(beta*energy) of a 64-bin tent_x or a golden_mean candidate at beta 800
    # overflowed in the state integrals and exited 1, which reads as Fails
    path = str(tmp_path / f"{spec}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cells.generated_specs()[spec], fh)
    cand = str(tmp_path / f"cand_{spec}.json")
    solve = ["conformal", "--spec", path, "--bins", "64", "--candidate-out", cand]
    if spec == "tent_x":
        solve += ["--bracket", "0.5,6.0"]
    assert CliRunner().invoke(main, solve).exit_code == 0
    with open(cand, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["beta"] = 800.0
    with open(cand, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    result = CliRunner().invoke(main, [command[0], "--spec", path, command[1], cand])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == (
        "error: exp(-beta*energy) overflows at beta=800.0; the state integrals are not finite"
    )
    assert "within tolerance" not in result.output and "Traceback" not in result.output


HUGE = 10**400  # "1e400" in a spec or on the command line


def _tent_std_edited(edit):
    def write(tmp_path):
        doc = json.loads(resources.files("xferop").joinpath("specs", "tent_std.json").read_text("utf-8"))
        edit(doc)
        path = tmp_path / "tent_big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


def _weight_past_the_range(doc):
    doc["potential"]["pieces"][0]["intercept"] = "1e400"
    doc["potential"]["overrides"] = []


PSI_INTERCEPT = _tent_std_edited(lambda doc: doc["psi"]["pieces"][0].update(intercept="1e400"))
PSI_SLOPE = _tent_std_edited(lambda doc: doc["psi"]["pieces"][0].update(slope="1e400"))
WEIGHT = _tent_std_edited(_weight_past_the_range)


@pytest.mark.parametrize(
    "spec, args, value",
    [
        ("tent_std", ["conformal", "--psi", "1e400"], HUGE),
        ("tent_std", ["conformal", "--psi=-1e400"], -HUGE),
        ("fullshift2", ["conformal", "--psi", "1e400"], HUGE),
        (PSI_INTERCEPT, ["conformal"], HUGE),
        (PSI_INTERCEPT, ["conformal", "--psi", "spec"], HUGE),
        (PSI_SLOPE, ["conformal"], HUGE),
        (PSI_SLOPE, ["conformal", "--psi", "spec"], HUGE),
        (WEIGHT, ["conformal"], F(HUGE, 6)),  # the exact fibre-sum integral
        (WEIGHT, ["kms-verify", "--psi", "spec", "--candidate"], HUGE**2),  # the cocycle rho_2
        ("tent_std", ["conformal", "--psi", "1e400", "--check"], HUGE),
        (PSI_INTERCEPT, ["conformal", "--check"], HUGE),
        (WEIGHT, ["conformal", "--check"], F(HUGE, 6)),
    ],
    ids=["psi", "psi-negative", "graph-psi", "psi-intercept", "psi-intercept-spec", "psi-slope",
         "psi-slope-spec", "weight", "weight-kms-verify", "psi-check", "psi-intercept-check",
         "weight-check"],
)
def test_a_value_past_the_float_range_exits_3(tmp_path, spec, args, value):
    # float() of these raised OverflowError: exit 4 with a traceback
    if callable(spec):
        spec = spec(tmp_path)
    if args[-1] in ("--candidate", "--check"):
        args = [*args, _candidate(tmp_path, "tent_std")]
    result = CliRunner().invoke(main, [*args, "--spec", spec])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: {frac_str(F(value))} is past the float range"]


@pytest.mark.parametrize("command, code", [("validate", 0), ("relations", 0), ("report", 0)])
def test_the_exact_commands_read_a_coefficient_past_the_float_range(tmp_path, command, code):
    result = CliRunner().invoke(main, [command, "--spec", PSI_INTERCEPT(tmp_path)])
    assert result.exit_code == code, result.output
    assert "float range" not in result.output


def test_kms_verify_reads_a_state_with_no_fibres(tmp_path):
    # halving cut to the branch domain [1, 1]: the battery reads fibres of no
    # points at a depth it never filled, which raised KeyError (exit 1, read as Fails)
    doc = json.loads(resources.files("xferop").joinpath("specs", "halving.json").read_text("utf-8"))
    doc["branches"][0]["domain"].update(lo="1", hi="1")
    doc["psi"]["pieces"][0].update(slope="0", intercept="3")
    path = tmp_path / "halving_pt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cand = _candidate(tmp_path, "tent_std")
    result = CliRunner().invoke(main, ["kms-verify", "--spec", str(path), "--candidate", cand])
    assert result.exit_code in (0, 1), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def _boom(*args):
    raise RuntimeError("boom")


def test_an_internal_error_exits_4(monkeypatch):
    monkeypatch.setattr(cli, "_resolve", _boom)
    result = CliRunner().invoke(main, ["validate", "--spec", "tent_std"])
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    err = result.stderr.splitlines()
    assert err[:2] == ["internal error:", "Traceback (most recent call last):"]
    assert err[-1] == "RuntimeError: boom"


def test_an_internal_error_exits_4_from_a_shell():
    code = (
        "from xferop import cli\n"
        "def boom(*args):\n"
        "    raise RuntimeError('boom')\n"
        "cli._resolve = boom\n"
        "cli.main(['validate', '--spec', 'tent_std'])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 4, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("internal error:\nTraceback (most recent call last):\n")
    assert out.stderr.splitlines()[-1] == "RuntimeError: boom"
