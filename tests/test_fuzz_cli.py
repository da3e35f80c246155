"""A fuzzed spec never crashes a command: every exit is a verdict or a refusal.

Each example changes one or two JSON leaves of a bundled spec to values drawn
from a small pool, keeps the spec only when ``validate`` accepts it, and runs
one of the benchmark's 20 subcommands on it in-process.  Exit codes 0-3 are
Holds, Fails, Unknown and unusable input; 4 is a crash (ROADMAP item 15).
The draw is derandomized with a fixed example count, so every run tries the
same specs and the test costs a few seconds.
"""

import json
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xferop import specfile
from xferop.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import cells  # noqa: E402  (the benchmark's 20 subcommands)

# leaf values that parse in some places and not in others
POOL = ("0", "1", "-1", "1/2", "2", "1/3", "3", "u", True, False, 0, 1, 3)

EXITS = {0, 1, 2, 3}


def _doc(name: str) -> dict:
    text = resources.files("xferop").joinpath("specs", f"{name}.json").read_text("utf-8")
    return json.loads(text)


def _leaves(node, path=()):
    """The paths of the scalar leaves of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


@st.composite
def fuzzed_specs(draw):
    doc = _doc(draw(st.sampled_from(specfile.BUNDLED)))
    paths = list(_leaves(doc))
    for _ in range(draw(st.integers(1, 2))):
        *parent, key = draw(st.sampled_from(paths))
        node = doc
        for step in parent:
            node = node[step]
        node[key] = draw(st.sampled_from(POOL))
    return doc


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding one conformal candidate per backend."""
    path = tmp_path_factory.mktemp("fuzz")
    for backend, spec in (("interval", "tent_std"), ("graph", "fullshift2")):
        out = str(path / f"cand_{backend}.json")
        result = CliRunner().invoke(main, ["conformal", "--spec", spec, "--candidate-out", out])
        assert result.exit_code == 0, result.output
    return path


def _run(args):
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in EXITS, f"{' '.join(args)}\n{result.output}"
    return result.exit_code


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(doc=fuzzed_specs(), cmd=st.sampled_from(cells.COMMANDS))
def test_a_fuzzed_spec_exits_with_a_verdict_or_a_refusal(work, doc, cmd):
    spec = work / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assume(_run(["validate", "--spec", str(spec)]) == 0)
    args = [*cmd, "--spec", str(spec)]
    if cmd == ("conformal",):
        args += ["--candidate-out", str(work / "cand_out.json")]
    if cmd == ("kms-verify",):
        args += ["--candidate", str(work / f"cand_{doc['backend']}.json")]
    if cmd in cells.SEEDED:
        args += ["--seed", "0"]
    _run(args)
