import base64
import json
from dataclasses import dataclass

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textmil.errors import ID, NumericError, Rows, column, get, read, strict_dumps, write_json

FIELD = "regions[3].instances[1].coord"
ROWS = np.arange(8.0).reshape(2, 4)
BLOCK = {"dtype": "<f8", "shape": [2, 4], "base64": base64.b64encode(ROWS.tobytes()).decode()}


@dataclass
class Section:
    seed: int = 0
    lr: float = 0.1
    mode: str = "a"
    enabled: bool = True
    normal: int | None = 0


# kind -> (good values, bad values); every bad value must raise a
# ValueError whose message names FIELD
KINDS = {
    int: ([0, -3, 2 ** 70], [True, 8.0, "8", None, [1]]),
    float: ([0.5, 3, -1e300], [True, float("nan"), float("inf"), float("-inf"), "1.0", None]),
    str: (["", "x"], [1, None, ["x"], True]),
    bool: ([True, False], [1, 0, "true", None]),
    dict: ([{}, {"a": 1}], [[], "x", None]),
    list: ([[], [1, "a"]], [{}, "x", None]),
    ID: (["slide_1", 7], [True, 1.5, [1], None, {}]),
    int | None: ([None, 4], [1.5, True, "4"]),
    (float, 2, 3): ([[[1, 2, 3], [4.5, 5, 6]]],
                    [[[1, 2, 3], [4, 5]],             # ragged
                     [[1, 2, 3]],                     # wrong shape
                     [1, 2, 3, 4, 5, 6],              # flat
                     [[[1, 2, 3], [4, 5, 6]]],        # too deep
                     [[1, 2, True], [4, 5, 6]],       # a bool
                     [[1, 2, "3"], [4, 5, 6]],        # a string
                     [[1, 2, None], [4, 5, 6]],       # a null
                     [[1, 2, float("nan")], [4, 5, 6]], [[1, 2, 3], [float("inf"), 5, 6]],
                     "x", None]),
    (float, None, None): ([[[1.0]], [[1, 2], [3, 4]]], [[[1, 2], [3]], [1.0, 2.0], [], [[1, {}]]]),
    (int, None, 2): ([[[0, 1], [2, 3]]], [[[0, 8.0]], [[0, True]], [[0, 1, 2]], [[0, 1.7]],
                                          [[0, 2 ** 70]], [[0, "1"]], [0, 1]]),
    (int,): ([5], [5.0, True, [5]]),
    Rows(2): ([BLOCK], [dict(BLOCK, dtype="<f4"), dict(BLOCK, shape=[3, 4]), dict(BLOCK, shape=[2]),
                        dict(BLOCK, shape=[2, 3]), dict(BLOCK, shape=[2.0, 4]),
                        dict(BLOCK, shape="x"), dict(BLOCK, base64=5),
                        dict(BLOCK, base64="not base64!"), {"dtype": "<f8", "shape": [2, 4]},
                        [BLOCK]]),
    Section: ([{}, {"seed": 3, "lr": 1, "normal": None}],
              [{"seed": 1.5}, {"seed": True}, {"lr": float("nan")}, {"mode": 1},
               {"enabled": 0}, {"normal": 0.5}, {"bogus": 1}, []]),
}
CASES = [(kind, value, ok) for kind, (good, bad) in KINDS.items()
         for ok, values in ((True, good), (False, bad)) for value in values]


@pytest.mark.parametrize("kind,value,ok", CASES, ids=[
    f"{getattr(k, '__name__', k)}-{i}" for i, (k, _, _) in enumerate(CASES)])
def test_read_checks_every_kind_and_names_the_field(kind, value, ok):
    if not ok:
        with pytest.raises(ValueError, match=r"regions\[3\]\.instances\[1\]\.coord"):
            read(value, kind, FIELD)
        return
    got = read(value, kind, FIELD)
    if kind in (int, float, str, bool, dict, list, int | None):
        assert got is value  # checked, never converted
    elif kind is ID:
        assert got == str(value)
    elif kind == Rows(2):
        assert got.dtype == np.float64 and np.array_equal(got, ROWS)
    elif kind is Section:
        assert got == Section(**value)
    else:
        assert np.array_equal(got, np.array(value))
        assert got.dtype == (np.float64 if kind[0] is float else np.int64)


def test_get_names_a_missing_key():
    with pytest.raises(ValueError, match=r"^regions\[0\]\.instances\[2\]\.mask is missing$"):
        get({"coord": [0, 1]}, "mask", int, "regions[0].instances[2]")
    assert get({"seed": 1}, "seed", int) == 1
    with pytest.raises(ValueError, match=r"^seed must be a JSON integer"):
        get({"seed": 1.0}, "seed", int)


def test_read_section_names_nested_fields():
    with pytest.raises(ValueError, match=r"train\.seed must be a JSON integer, got float 1\.5"):
        read({"seed": 1.5}, Section, "train")
    with pytest.raises(ValueError, match=r"unknown key 'train\.bogus'"):
        read({"bogus": 1}, Section, "train")
    with pytest.raises(ValueError, match=r"non-finite value in train\.lr"):
        read({"lr": float("inf")}, Section, "train")


GROUPS = [[{"coord": [0, 0], "mask": 1}, {"coord": [0, 1], "mask": 0}],
          [{"coord": [1, 0], "mask": 0}]]


def test_column_reads_every_group_as_one_array():
    coords = column(GROUPS, "coord", (int, 2), "regions[{}].instances")
    assert coords.dtype == np.int64 and coords.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert column(GROUPS, "mask", int, "regions[{}].instances").tolist() == [1, 0, 0]


@pytest.mark.parametrize("g,j,edit,message", [
    (1, 0, {"mask": 0.5}, r"regions\[1\]\.instances\[0\]\.mask must be a JSON integer"),
    (0, 1, {"mask": True}, r"regions\[0\]\.instances\[1\]\.mask must be a JSON integer"),
    (1, 0, {"mask": None}, r"regions\[1\]\.instances\[0\]\.mask must be a JSON integer"),
    (0, 1, {"mask": ...}, r"regions\[0\]\.instances\[1\]\.mask is missing"),
    (1, 0, {"coord": [1, 0, 2]}, r"regions\[1\]\.instances\[0\]\.coord must be an array of shape"),
    (1, 0, {"coord": [1, 0.0]}, r"regions\[1\]\.instances\[0\]\.coord must be an array of shape"),
])
def test_column_names_the_first_bad_item(g, j, edit, message):
    groups = [[dict(item) for item in group] for group in GROUPS]
    for key, value in edit.items():
        if value is ...:
            del groups[g][j][key]
        else:
            groups[g][j][key] = value
    key = next(iter(edit))
    kind = int if key == "mask" else (int, 2)
    with pytest.raises(ValueError, match=message):
        column(groups, key, kind, "regions[{}].instances")


def test_column_names_an_item_that_is_no_object_and_an_empty_column():
    with pytest.raises(ValueError, match=r"regions\[1\]\[0\] must be a JSON object, got list"):
        column([[{"coord": [0, 0]}], [[0, 1]]], "coord", (int, 2), "regions[{}]")
    with pytest.raises(ValueError, match=r"^regions\[\*\]\.instances is empty$"):
        column([[], []], "coord", (int, 2), "regions[{}].instances")
    with pytest.raises(ValueError, match=r"regions\[\*\]\.instances must be an array"):
        column([[{"e": [1.0, 2.0]}], [{"e": [1.0]}]], "e", (float, None), "regions[{}].instances")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                    elements=st.floats(allow_nan=False, allow_infinity=False)),
       data=st.data())
def test_block_round_trip_is_bitwise_for_any_shape(x, data):
    for array in (x, x.T):  # C- and Fortran-ordered
        block = json.loads(strict_dumps({"x": array}, "x.json"))["x"]
        assert block == Rows.encode(array) and block["shape"] == list(array.shape)
        shape = tuple(data.draw(st.sampled_from([n, None]), label="dim") for n in array.shape)
        got = read(block, (float, *shape), "x")
        assert got.dtype == np.float64 and got.shape == array.shape
        assert got.tobytes() == np.ascontiguousarray(array).tobytes()
        if array.ndim:
            with pytest.raises(ValueError, match=r"^x\.shape .* does not hold an array of shape"):
                read(block, (float, *(n + 1 for n in array.shape)), "x")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_strict_dumps_refuses_a_non_finite_block_value(bad):
    x = np.zeros((2, 3))
    x[1, 2] = bad
    with pytest.raises(NumericError, match=r"^refusing to write out\.json: non-finite value"):
        strict_dumps({"a": [1, {"x": x}]}, "out.json")
    with pytest.raises(TypeError, match="int64"):
        strict_dumps({"x": np.arange(3)}, "out.json")


def test_write_json_writes_nothing_on_a_nan_and_otherwise_makes_or_replaces_the_file(tmp_path):
    path = tmp_path / "new" / "metrics.json"
    with pytest.raises(NumericError, match=r"^refusing to write .*metrics\.json"):
        write_json(path, {"auc": float("nan")})
    assert list(tmp_path.iterdir()) == []
    write_json(path, {"auc": 0.5, "x": np.ones(2)})
    assert path.read_text() == strict_dumps({"auc": 0.5, "x": np.ones(2)}, path) + "\n"
    write_json(path, {"auc": 1}, indent=1)
    assert path.read_text() == '{\n "auc": 1\n}\n'
