"""The README's library example runs against the current API, and the
README states the current batch row limit."""

import contextlib
import io
import re
from pathlib import Path

from textmil import hierpool

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md (Library)", "exec"), {})
    assert out.getvalue().strip()


def test_readme_states_the_batch_row_limit():
    text = " ".join(README.read_text().split())
    assert f"up to {hierpool.MAX_BATCH_ROWS} instance rows" in text
