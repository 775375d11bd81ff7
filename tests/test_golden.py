"""Every file of the README command sequence is byte-identical to the
committed golden run.

The sequence runs once, at `tests/test_cli.py`'s small config: generate,
train, eval, localize, merge, eval of the merged checkpoint, gradcheck,
`params --out` and a 2-fold, 1-seed `eval --sweep`. The sha256 of each
file it writes is compared with `tests/data/golden_digests.json`. For a
JSON file the manifest also holds a short digest of each leaf (a
scalar, a list of scalars or an array block) by key path, so a mismatch
names the first differing file and its first differing key path.

A change that moves a byte on purpose (such as one that reorders a
float sum) rewrites the manifest by running this module as a script,
`python tests/test_golden.py`, and lists each file whose digest moved,
and why. The test itself never writes the manifest.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import conftest  # noqa: F401  (registers the hypothesis profile that test_cli reads)
from test_cli import FAST_CONFIG
from textmil.cli import main

MANIFEST = Path(__file__).parent / "data" / "golden_digests.json"
LEAF_DIGEST = 12  # hex digits of a leaf digest: enough to locate a change


def run_sequence(root: Path) -> Path:
    """Run the README sequence under `root`; the directory of its outputs."""
    config, out = root / "config.json", root / "out"
    config.write_text(json.dumps(FAST_CONFIG))
    data, run, merged = out / "data", out / "run", out / "merged"
    sequence = [
        ["generate", "--config", config, "--out", data],
        ["train", "--data", data, "--config", config, "--out", run],
        ["eval", "--data", data, "--checkpoint", run / "checkpoint.json", "--split", "test",
         "--out", out / "eval"],
        ["localize", "--data", data, "--checkpoint", run / "checkpoint.json", "--out", out / "loc"],
        ["merge", "--checkpoint", run / "checkpoint.json", "--out", merged],
        ["eval", "--data", data, "--checkpoint", merged / "checkpoint_merged.json",
         "--out", out / "eval2"],
        ["gradcheck", "--out", out / "gc"],
        ["params", "--config", config, "--out", out / "params"],
        ["eval", "--data", data, "--config", config, "--sweep", "--folds", "2", "--seeds", "1",
         "--out", out / "sweep"],
    ]
    for argv in sequence:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv[0]
    return out


def leaves(value, at: str = "") -> dict[str, str]:
    """A short digest of each leaf of a parsed JSON value, by key path."""
    if isinstance(value, dict) and "base64" not in value:
        return {path: d for key, v in value.items()
                for path, d in leaves(v, f"{at}.{key}" if at else key).items()}
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        return {path: d for i, v in enumerate(value) for path, d in leaves(v, f"{at}[{i}]").items()}
    text = json.dumps(value, sort_keys=True).encode()
    return {at: hashlib.sha256(text).hexdigest()[:LEAF_DIGEST]}


def digests(out: Path) -> dict[str, dict]:
    """The manifest of every file under `out`: its sha256 and, for JSON
    and JSON-lines files, its leaf digests."""
    manifest = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest()}
        if path.suffix == ".json":
            entry["leaves"] = leaves(json.loads(data))
        elif path.suffix == ".jsonl":
            entry["leaves"] = leaves([json.loads(line) for line in data.splitlines()])
        manifest[path.relative_to(out).as_posix()] = entry
    return manifest


def first_difference(expected: dict, got: dict) -> str | None:
    """The first file (in name order) whose bytes differ, with its first
    differing key path; None when every file matches."""
    for name in sorted(expected.keys() | got.keys()):
        if name not in got:
            return f"{name} was not written"
        if name not in expected:
            return f"{name} is not in the golden run"
        old, new = expected[name], got[name]
        if old["sha256"] == new["sha256"]:
            continue
        old_leaves, new_leaves = old.get("leaves", {}), new.get("leaves", {})
        for path in sorted(old_leaves.keys() | new_leaves.keys()):
            if old_leaves.get(path) != new_leaves.get(path):
                return f"{name} differs, first at key path {path or '(top level)'}"
        return f"{name} differs in its bytes but not in any value"
    return None


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return digests(run_sequence(tmp_path_factory.mktemp("golden")))


def test_every_written_file_matches_the_golden_run(written):
    expected = json.loads(MANIFEST.read_text())
    assert first_difference(expected, written) is None


def test_a_difference_is_named_by_file_and_key_path(written):
    def moved(name, **leaves):
        entry = written[name]
        return {**written, name: {"sha256": "0" * 64, "leaves": {**entry["leaves"], **leaves}}}

    assert (first_difference(written, moved("run/checkpoint.json", **{"attention.w": "0"}))
            == "run/checkpoint.json differs, first at key path attention.w")
    assert (first_difference(written, moved("eval/metrics.json"))
            == "eval/metrics.json differs in its bytes but not in any value")
    fewer = {name: e for name, e in written.items() if name != "gc/gradcheck.json"}
    assert first_difference(written, fewer) == "gc/gradcheck.json was not written"
    assert first_difference(fewer, written) == "gc/gradcheck.json is not in the golden run"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = digests(run_sequence(Path(tmp)))
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"wrote the digests of {len(manifest)} files to {MANIFEST}", file=sys.stderr)
