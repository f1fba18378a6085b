"""The README's Library example runs as written against the package."""

import re
import shutil
from pathlib import Path

from conftest import fixture_path

README = Path(__file__).parent.parent / "README.md"


def library_example():
    """The first Python block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_on_a_labelled_story(tmp_path, monkeypatch,
                                                  capsys):
    shutil.copy(fixture_path("minicorpus"), tmp_path / "story.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "Primary errors:" in out and out.startswith("--- ")
