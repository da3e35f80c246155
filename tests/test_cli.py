"""Contract tests for the ``xferop`` command line."""

from click.testing import CliRunner

from xferop.cli import main


def test_check_minimal_tent_certificate():
    result = CliRunner().invoke(main, ["check", "minimal", "--spec", "tent_std"])
    assert result.exit_code == 0, result.output
    assert "Minimal: Holds (depth 8)" in result.output
    assert "certificate: MinimalScan(depth=8, seeds=528, iterations=32)" in result.output.splitlines()
