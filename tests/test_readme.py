"""The README's library example runs against the current API."""

import re
import shutil
from pathlib import Path

from cnlsearch.cli import sample_catalog_path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first ``python`` block under the README's ``## Library``,
    behind blank lines, so that a traceback names its README lines."""
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"```python\n(.*?)```", re.S).search(text, text.index("\n## Library\n"))
    return "\n" * text.count("\n", 0, block.start(1)) + block.group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    shutil.copyfile(sample_catalog_path(), tmp_path / "catalog.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
