"""Every benchmark cell against its pinned exit code and report.

Runs each cell of the ``cli-matrix``, ``verdicts`` and ``conformal``
workloads defined in ``perfbench/cells.py`` once, in order (``kms-verify``
reads the candidates that ``conformal`` wrote), through one ``CliRunner``
at seed 0, and checks it with ``perfbench/gate.py`` against
``perfbench/expected.json``.
"""

import json
import sys
import traceback
from pathlib import Path

from click.testing import CliRunner

from xferop.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import cells  # noqa: E402
import gate  # noqa: E402

WORKLOADS = ("cli-matrix", "verdicts", "conformal")


def test_cells_match_their_pins(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["cells"]
    cells.write_specs(tmp_path)
    work = str(tmp_path)
    runner = CliRunner()
    failures = []
    for workload in WORKLOADS:
        for tpl in cells.WORKLOADS[workload]:
            key = cells.cell_key(tpl, 0)
            res = runner.invoke(main, cells.expand(tpl, work, 0))
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                trace = "".join(traceback.format_exception(*res.exc_info))
                failures.append(f"{key}: raised {res.exception!r}\n{trace}")
                continue
            problems = gate.mismatches(
                expected[key], res.exit_code, gate.normalise(res.output, work)
            )
            if problems:
                failures.append(f"{key}: " + "; ".join(problems[:3]))
    assert not failures, "\n".join(failures)
