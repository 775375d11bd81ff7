"""The README's library example runs against the current API, its
`textmil` commands parse under the current command line, and the README
states the current batch row limit and each config field's default and
range."""

import contextlib
import io
import json
import re
import shlex
from dataclasses import asdict
from pathlib import Path

from test_config import RANGES, phrase
from textmil import cli, hierpool
from textmil.config import RunConfig

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


def test_readme_states_each_config_default_and_range():
    text = README.read_text()
    for section, values in asdict(RunConfig()).items():
        for name, default in values.items():
            key = f"{section}.{name}"
            rule = phrase(RANGES[key]) if key in RANGES else ""
            row = f"| `{key}` | {json.dumps(default)} | {rule}"
            assert row in text, row


def test_readme_commands_parse():
    """Every `textmil` command of the README's bash blocks, with its
    continuation lines joined and the loop variables set to a number."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").replace("$d", "2").replace("$k", "4")
    commands = [shlex.split(line, comments=True) for line in lines.splitlines()
                if line.strip().startswith("textmil ")]
    assert len(commands) >= 12
    for argv in commands:
        args = cli.make_parser().parse_args(argv[1:])
        assert args.func.__name__ == f"cmd_{argv[1]}"
