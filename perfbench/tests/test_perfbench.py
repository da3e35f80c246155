"""Tests of the benchmark itself: span arithmetic, the gate, cells, metric names.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import click

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import cells  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


# -- span arithmetic ---------------------------------------------------------

# 0 root [0, 10]
# 1   a [1, 3]        2   b [2, 5] (overlaps a)    3   c [6, 7]    4   d [9, 11] (runs past root)
# 5     a1 [1.5, 2]
START = [0.0, 1.0, 2.0, 6.0, 9.0, 1.5]
END = [10.0, 3.0, 5.0, 7.0, 11.0, 2.0]
PARENT = [-1, 0, 0, 0, 0, 1]


def test_self_time_subtracts_union_of_children():
    got = spans.self_times(START, END, PARENT)
    # root: children cover [1, 5] u [6, 7] u [9, 10] = 6
    assert got.tolist() == pytest.approx([4.0, 1.5, 3.0, 1.0, 2.0, 0.5])


def test_self_time_ignores_child_order():
    order = [0, 4, 3, 2, 5, 1]
    remap = {old: new for new, old in enumerate(order)}
    start = [START[i] for i in order]
    end = [END[i] for i in order]
    parent = [remap[PARENT[i]] if PARENT[i] >= 0 else -1 for i in order]
    got = spans.self_times(start, end, parent)
    assert got[remap[0]] == pytest.approx(4.0)
    assert got[remap[1]] == pytest.approx(1.5)


def _spans(names, name, start, end, parent):
    return spans.Spans(names, np.array(name), np.array(start), np.array(end), np.array(parent))


def test_busy_counts_nested_calls_once():
    # f [0, 4] calls g [1, 3] which calls f [1.5, 2]; a second f [5, 6]
    sp = _spans(["f", "g"], [0, 1, 0, 0], [0.0, 1.0, 1.5, 5.0], [4.0, 3.0, 2.0, 6.0], [-1, 0, 1, -1])
    assert sp.count("f") == 3
    assert sp.busy("f") == pytest.approx(5.0)
    assert sp.busy("f", "g") == pytest.approx(5.0)
    assert sp.under(sp.mask("g")).tolist() == [False, False, True, False]


def test_tracer_records_parent_and_reports_absent_targets():
    tracer = spans.Tracer()
    outer = tracer.span("outer", lambda f: f() + 1)
    inner = tracer.span("inner", lambda: 1)
    assert outer(inner) == 2 and len(tracer.start) == 0  # off: forwards only
    tracer.on = True
    assert outer(inner) == 2
    sp = tracer.arrays()
    assert [sp.names[i] for i in sp.name] == ["outer", "inner"]
    assert sp.parent.tolist() == [-1, 0]
    tracer.install([spans.Target("no_such_module", "f"), spans.Target("intervals", "IntervalSet.gone")])
    assert tracer.absent == ["no_such_module.f", "intervals.IntervalSet.gone"]


def test_speed_probe_scaling():
    probe = speed.SpeedProbe()
    # samples at 1, 2, 5 s; the host ran at half speed around 5 s
    probe.at.extend([1.0, 2.0, 5.0])
    probe.took.extend([speed.NOMINAL_S, speed.NOMINAL_S, 2 * speed.NOMINAL_S])
    assert probe.spent(0.5, 2.5) == pytest.approx(2 * speed.NOMINAL_S)
    assert probe.factor(1.5, 1.6) == pytest.approx(1.0)
    assert probe.factor(4.8, 5.2) == pytest.approx(0.5)
    assert probe.factor(0.0, 6.0) == pytest.approx(0.75)
    assert probe.factor(20.0, 21.0) == pytest.approx(0.75)  # no samples near: all of them


# -- correctness gate --------------------------------------------------------

REPORT = """command: xferop conformal
input: <work>/tent_x.json sha256:fa209687abe83d4a
seed: 0
timestamp: 2026-01-01T00:00:00+00:00

energy: spec
Minimal: Holds (depth 8)
beta: 3.2668447624891996

eigen-measure residuals
-----------------------
fn  lhs                 rhs                 residual            tol                 indices
f0  7.061270330375e-03  6.980308503308e-03  8.096182706744e-05  1.000000000000e-08  global
f1  1.000000000000e-01  1.000000000000e-01  2.000000000000e-15  1.000000000000e-08  global

max residual: 8.096182706744e-05
"""


def _pinned(text=REPORT, exit_code=0):
    return {"exit": exit_code, "lines": gate.normalise(text, "")}


def _check(text, exit_code=0):
    return gate.mismatches(_pinned(), exit_code, gate.normalise(text, ""))


def test_gate_accepts_identical_report_with_other_timestamp():
    assert _check(REPORT.replace("2026-01-01T00:00:00", "2031-05-06T07:08:09")) == []


def test_gate_rejects_flipped_verdict():
    assert _check(REPORT.replace("Minimal: Holds", "Minimal: Fails"))


def test_gate_rejects_other_exit_code():
    assert _check(REPORT, exit_code=1)


def test_gate_rejects_beta_off_by_1e6():
    assert _check(REPORT.replace("beta: 3.2668447624891996", "beta: 3.2668457624891996"))


def test_gate_accepts_beta_change_below_1e9():
    assert _check(REPORT.replace("beta: 3.2668447624891996", "beta: 3.2668447626891996")) == []


def test_gate_checks_residuals_against_tol():
    # within tol when pinned: any value up to tol passes, above tol fails
    assert _check(REPORT.replace("2.000000000000e-15", "9.000000000000e-09")) == []
    assert _check(REPORT.replace("2.000000000000e-15", "2.000000000000e-08"))
    # above tol when pinned (discretisation error): compared as a float
    assert _check(REPORT.replace("8.096182706744e-05  1.0", "8.196182706744e-05  1.0"))


def test_gate_maps_work_directory():
    text = REPORT.replace("<work>", "/tmp/run-17")
    assert gate.mismatches(_pinned(), 0, gate.normalise(text, "/tmp/run-17")) == []


# -- workloads ---------------------------------------------------------------


def test_every_workload_has_cells_and_setup_specs():
    assert set(cells.WORKLOADS) == set(cells.WORKLOAD_SPECS)
    for name, templates in cells.WORKLOADS.items():
        assert templates, name


def test_matrix_covers_every_spec_and_subcommand():
    matrix = cells.WORKLOADS["cli-matrix"]
    assert len(cells.COMMANDS) == 20
    assert len(matrix) == 8 * 20 - len(cells.SCAN_CELLS)


@pytest.mark.parametrize("command", [("relations",), ("kms-verify",), ("groupoid", "iso-check")])
@pytest.mark.parametrize("seed", [0, 3, 6, 1234567])
def test_seed_reaches_seed_options(command, seed):
    found = 0
    for templates in cells.WORKLOADS.values():
        for tpl in templates:
            if tuple(tpl[: len(command)]) != command:
                continue
            args = cells.expand(tpl, "/w", seed)
            assert args[args.index("--seed") + 1] == str(seed % cells.PINNED_SEEDS)
            found += 1
    assert found


def test_passes_rotate_the_seed():
    @click.command(context_settings={"ignore_unknown_options": True})
    @click.argument("args", nargs=-1)
    def main(args):
        click.echo(" ".join(args))

    client = run.Client(types.SimpleNamespace(main=main), "/w", 5, {})
    templates = (("relations", "--seed", "{seed}"),)
    client.run_pass(templates)
    client.run_pass(templates)
    assert client.attempted == 2
    assert [f.split(":")[0] for f in client.failures] == ["relations --seed 1", "relations --seed 2"]


def test_every_cell_is_pinned_for_every_folded_seed():
    pinned = json.loads((BENCH / "expected.json").read_text())["cells"]
    for templates in cells.WORKLOADS.values():
        for tpl in templates:
            for seed in range(cells.PINNED_SEEDS):
                assert cells.cell_key(tpl, seed) in pinned


def test_generated_specs_parse():
    from xferop import specfile as sf

    for doc in cells.generated_specs().values():
        assert sf.spec_roundtrip(doc)


# -- the contract with BENCHMARK.json ------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(cells.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    empty = _spans([], [], [], [], [])
    layer = {k: u for k, (_, u) in spans.layer_metrics(empty, {}, 1).items()}
    layer["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for key, value in run.BLAS_ENV.items():
        monkeypatch.setenv(key, value)  # restored after the test; main() sets them too
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "verdicts", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
