"""Contract tests for the ``xferop`` command line."""

import pytest
from click.testing import CliRunner

from xferop.cli import main


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
