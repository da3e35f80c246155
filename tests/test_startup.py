"""What a fresh ``xferop`` process imports, and that every module imports alone.

``cli`` imports ``thermo``, ``rep``, ``spectra`` and ``groupoid`` inside the
commands that call them, so a command that needs none of them does not pay
for loading (and, without bytecode, compiling) them at start-up.  Each case
runs in its own interpreter: in-process tests share one ``sys.modules``, in
which everything is loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = {"xferop.thermo", "xferop.groupoid", "xferop.rep", "xferop.spectra"}

# run after ``from xferop import cli``; the last line of stdout is the exit
# code and the ``xferop`` modules then loaded
PROBE = (
    "import json, sys\n"
    "from xferop import cli\n"
    "code = None\n"
    "try:\n"
    "    {statement}\n"
    "except SystemExit as e:\n"
    "    code = e.code\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('xferop.'))]))\n"
)


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def _loaded_after(statement: str) -> tuple:
    out = _fresh(PROBE.format(statement=statement))
    assert out.returncode == 0, out.stderr
    code, modules = json.loads(out.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize(
    "statement, code",
    [("pass", None), ("code = cli.main(['--help'], standalone_mode=False)", 0)],
    ids=["import", "help"],
)
def test_the_cli_starts_without_the_command_modules(statement, code):
    got, loaded = _loaded_after(statement)
    assert got == code
    assert not loaded & DEFERRED


def test_a_check_loads_verdicts_alone():
    code, loaded = _loaded_after("cli.main(['check', 'free', '--spec', 'tent_std'])")
    assert code == 0
    assert "xferop.verdicts" in loaded
    assert not loaded & DEFERRED


def test_conformal_loads_thermo():
    code, loaded = _loaded_after("cli.main(['conformal', '--spec', 'tent_std'])")
    assert code == 0
    assert "xferop.thermo" in loaded


@pytest.mark.parametrize("module", sorted(p.stem for p in (SRC / "xferop").glob("*.py")))
def test_each_module_imports_by_itself(module):
    # a module that works only after another one was imported first would
    # break only in a one-shot command that happens to import it first
    name = "xferop" if module == "__init__" else f"xferop.{module}"
    out = _fresh(f"import {name}")
    assert out.returncode == 0, out.stderr
