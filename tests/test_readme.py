"""README's library example runs as documented."""

import re
from pathlib import Path

import pytest

import contraction_lab as cl
from contraction_lab.cli import main as cli_main
from contraction_lab.config import PIPELINES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def test_yaml_example_lists_the_defaults():
    """Every value README's example config lists is the default: the example
    means the same as a config that only asks for the banded coupling."""
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    assert cl.parse_config(blocks[0]).digest == \
        cl.parse_config("problem: {coupling: {kind: banded}}").digest


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_cli_section_lists_every_flag(capsys, pipeline):
    """README's common flags are exactly the options each subcommand's
    ``--help`` lists, and ``--help`` exits 0."""
    listed = re.search(r"Common flags:(.*?)Exit codes:", README.read_text(), re.S).group(1)
    with pytest.raises(SystemExit) as exc:
        cli_main([pipeline, "--help"])
    assert exc.value.code == 0
    defined = re.findall(r"^ +(--[a-z-]+)", capsys.readouterr().out, re.M)
    assert sorted(re.findall(r"`(--[a-z-]+)", listed)) == sorted(defined)
