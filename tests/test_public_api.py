"""The documented entry points: the README's library quick start runs and
prints what its comments say, and every exported name resolves."""

import contextlib
import io
import re
from pathlib import Path

import rghw

README = Path(__file__).resolve().parents[1] / "README.md"
QUICK_START_OUTPUT = ["1 4 4 5", "2 6 6 6", "3 7 7 7"]


def quick_start_block():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_commented_output():
    block = quick_start_block()
    commented = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert commented == QUICK_START_OUTPUT
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == QUICK_START_OUTPUT


def test_every_exported_name_resolves():
    assert len(rghw.__all__) == len(set(rghw.__all__))
    for name in rghw.__all__:
        assert getattr(rghw, name) is not None, name
