"""README's library example runs as documented."""

import re
from pathlib import Path

import contraction_lab as cl

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
