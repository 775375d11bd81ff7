"""Every file of the README command sequence is byte-identical to the
committed golden run.

The sequence runs once, at `tests/test_cli.py`'s small config: generate,
train, eval, localize, merge, eval of the merged checkpoint, gradcheck,
`params --out` and a 2-fold, 1-seed `eval --sweep`. The sha256 of each
file it writes is compared with `tests/data/golden_digests.json`. For a
JSON file the manifest also holds a short digest of each leaf (a
scalar, a list of scalars or an array block) by key path, so a mismatch
names the first differing file and its first differing key path.

The bytes hold only for the kernels they were computed with: OpenBLAS
picks its kernels for the CPU it runs on, and numpy its SIMD loops, and
both move the last bits of some sums. So the manifest also records its
platform under the key `platform` (numpy's version, the OpenBLAS core
of numpy's bundled library and numpy's active SIMD targets), and a
mismatch's failure message says first whether the platform differs.

A change that moves a byte on purpose (such as one that reorders a
float sum) rewrites the manifest by running this module as a script,
`python tests/test_golden.py`, and lists each file whose digest moved,
and why. The test itself never writes the manifest.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

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


def platform() -> dict:
    """numpy's version, the core name of the OpenBLAS library bundled with
    numpy (None when there is none) and numpy's active SIMD targets."""
    core = None
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return {"numpy": np.__version__, "openblas_core": core,
            "simd": sorted(name for name, active in __cpu_features__.items() if active)}


def platform_difference(golden: dict, here: dict) -> str:
    """How this platform differs from the golden run's, in one line."""
    parts = []
    for key in sorted(golden.keys() | here.keys()):
        a, b = golden.get(key), here.get(key)
        if a == b:
            continue
        if isinstance(a, list) and isinstance(b, list):
            parts.append(f"{key} {sorted(set(a) - set(b))} only in the golden run, "
                         f"{sorted(set(b) - set(a))} only here")
        else:
            parts.append(f"{key} {a!r} in the golden run, {b!r} here")
    return ("the platform differs from the golden run's: " + "; ".join(parts) if parts
            else "the platform is the golden run's")


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
    golden_platform = expected.pop("platform")
    problem = first_difference(expected, written)
    assert problem is None, f"{platform_difference(golden_platform, platform())}; {problem}"


def test_a_platform_difference_is_named_first():
    here = platform()
    assert here["numpy"] == np.__version__ and "SSE2" in here["simd"]
    assert platform_difference(here, dict(here)) == "the platform is the golden run's"
    other = {**here, "openblas_core": "Haswell", "simd": [*here["simd"], "NEON"]}
    assert platform_difference(other, here) == (
        f"the platform differs from the golden run's: openblas_core 'Haswell' in the golden "
        f"run, {here['openblas_core']!r} here; simd ['NEON'] only in the golden run, [] only here")


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
        manifest = {"platform": platform(), **digests(run_sequence(Path(tmp)))}
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"wrote the digests of {len(manifest) - 1} files to {MANIFEST}", file=sys.stderr)
