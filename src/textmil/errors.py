"""Exception types, the one strict JSON reader and writer, and the one
array codec.

The CLI maps these onto its exit-code contract: config errors exit 2,
data errors exit 3, numeric failures exit 4. Every file the library
writes is written by `write_json` (only the rows of a training log are
`strict_dumps` lines). Its text comes from `strict_dumps`, which stores
each float64 array of its payload as one block, `{"dtype": "<f8",
"shape": [...], "base64": ...}`: the raw little-endian bytes, bit-exact
and read back without parsing a number per value (`Rows.encode`).
Base64 hides the values from JSON's own NaN check, so the encoder
checks them: a non-finite value anywhere in a payload is a numeric
failure naming the file, and nothing is written.

Every input file is opened by `json_input` and each of its values read
by `read`, `get` or `column`, which check a value against a kind and
never convert it. A bad value raises a ValueError naming its field path
(such as `regions[3].instances[1].coord`, `ssf[2].gamma.shape`,
`train.seed`), which `json_input` turns into a ConfigError or DataError
naming the file. Kinds: `int` (a JSON integer, not a bool), `float` (a
finite number), `str`, `bool`, `dict`, `list`, `object` (anything),
`T | None`; `ID`, a string or an integer read as its decimal string;
`(float, *shape)` and `(int, *shape)`, arrays of such numbers (None
matches any length) read into a new float64 or int64 array, from nested
number lists or, for float arrays, from a block; `Rows(n)`, a bag
region's n instance rows of any width, as a block only and unchecked
for finiteness (`hierpool.validate_bag` names the slide and region of a
non-finite value); and a dataclass, an object of its fields, each read
by its annotation.
"""

import base64
import contextlib
import dataclasses
import functools
import json
import math
import types
import typing
from itertools import chain
from pathlib import Path

import numpy as np

ROW_DTYPE = "<f8"  # a block's values: little-endian float64


class ConfigError(Exception):
    """Invalid or unknown configuration value."""


class DataError(Exception):
    """Malformed input file or infeasible data request."""


class NumericError(Exception):
    """Non-finite value where the computation requires finite numbers."""


@contextlib.contextmanager
def json_input(path, what: str, error: type = DataError):
    """The parsed UTF-8 JSON file `path` (a `what`), for a `with` block that
    reads it: a file unreadable, not UTF-8, not JSON or nested too deep, or
    a ValueError or ConfigError raised in the block becomes an `error` that
    names the file. RFC 8259 fixes the encoding, whatever the locale."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        yield raw
    except (ValueError, ConfigError) as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc


def strict_dumps(payload, path, **kw) -> str:
    """`payload` as strict JSON text for the file `path`, each numpy float
    array in it as a block (`Rows.encode`); a NaN or infinity raises a
    NumericError naming the file, before anything is written."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, default=Rows.encode, **kw)
    except ValueError as exc:
        raise NumericError(f"refusing to write {path}: {exc}") from exc


def write_json(path, payload, indent: int | None = None) -> None:
    """Write `payload` to the file `path` as `strict_dumps` text and a
    newline, making its directory; a NaN or infinity raises before the
    disk changes, so it leaves no file and no directory."""
    text = strict_dumps(payload, path, indent=indent) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh file rather than one truncated in place: some file systems
    # flush a rewritten file on close and stall a later delete of it
    path.unlink(missing_ok=True)
    path.write_text(text)


@dataclasses.dataclass(frozen=True)
class Rows:
    """Kind of a bag region's `n` instance rows, of any width, as one
    block; `encode` writes any float array as the block that `Rows` and
    the float array kinds read."""

    n: int

    @staticmethod
    def encode(x) -> dict:
        """The block of a float array; a ValueError if a value is not finite."""
        if not isinstance(x, np.ndarray) or x.dtype.kind != "f":
            raise TypeError(f"cannot store {type(x).__name__} {getattr(x, 'dtype', '')} in JSON")
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite value in a {x.shape} array")
        data = np.ascontiguousarray(x, dtype=ROW_DTYPE).tobytes()
        return {"dtype": ROW_DTYPE, "shape": list(x.shape), "base64": base64.b64encode(data).decode()}


ID = "id"  # kind of an identifier: a string, or an integer read as its decimal string

_NAMES = {int: "a JSON integer", float: "a finite JSON number", str: "a JSON string",
          bool: "JSON true or false", dict: "a JSON object", list: "a JSON array",
          ID: "a JSON string or integer"}
_NUMBERS = {float: {int, float}, int: {int}}
_TYPES = {**_NUMBERS, ID: set()}
_MISSING = object()
_hints = functools.cache(typing.get_type_hints)  # a dataclass kind's field kinds


def read(value, kind, field: str):
    """`value` if it is of `kind` (see the module docs); otherwise a
    ValueError naming `field`."""
    if type(value) is kind and kind is not float:
        return value
    if kind is ID and type(value) in (str, int):
        return str(value)
    if isinstance(kind, tuple):
        return _array(value, kind[0], kind[1:], field)
    if isinstance(kind, Rows):
        return _block(read(value, dict, field), (kind.n, None), field, f"{kind.n} instance rows")
    if isinstance(kind, types.UnionType):  # T | None
        return None if value is None else read(value, typing.get_args(kind)[0], field)
    if dataclasses.is_dataclass(kind):
        return _record(value, kind, field)
    if kind is float and type(value) is float and not np.isfinite(value):
        raise ValueError(f"non-finite value in {field}")
    if kind is not object and type(value) not in _TYPES.get(kind, {kind}):
        raise ValueError(f"{field} must be {_NAMES[kind]}, {_got(value)}")
    return value


def get(obj: dict, key: str, kind, at: str = ""):
    """`obj[key]` read as `kind` and named `at.key`; a missing key is a
    ValueError too."""
    value = obj.get(key, _MISSING)
    if type(value) is kind and kind is not float:
        return value
    field = f"{at}.{key}" if at else key
    if value is _MISSING:
        raise ValueError(f"{field} is missing")
    return read(value, kind, field)


def column(groups: list[list], key: str, kind, at: str) -> np.ndarray:
    """`item[key]` of every object of every list in `groups` (at least one
    object), each a number or an array of the number kind `kind`, as one
    array with a leading item axis. The whole column is checked at array
    speed; only a bad one is read item by item, to name the first bad
    `at.format(g)[j].key`, where g indexes `groups` (`at` may hold a `{}`)."""
    dtype, shape = (kind[0], kind[1:]) if isinstance(kind, tuple) else (kind, ())
    try:
        return _array([item[key] for group in groups for item in group], dtype, (None, *shape),
                      at.format("*"))
    except (KeyError, TypeError, ValueError):
        for g, group in enumerate(groups):
            for j, item in enumerate(group):
                name = f"{at.format(g)}[{j}]"
                get(read(item, dict, name), key, kind, name)
        if not any(groups):
            raise ValueError(f"{at.format('*')} is empty") from None
        raise  # every item reads, but they do not stack


def _got(value) -> str:
    return f"got {type(value).__name__} {value!r:.40}"


def _array(value, dtype: type, shape: tuple, field: str) -> np.ndarray:
    if type(value) is dict and dtype is float:
        arr = _block(value, shape, field, f"an array of shape {_shape_text(shape)}")
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite value in {field}")
        return arr
    level, dims = [value], []
    for n in shape:  # the arrays at each depth share one length: `n` unless None
        lengths = set(map(len, level)) if set(map(type, level)) == {list} else set()
        if len(lengths) != 1 or n not in (None, *lengths):
            break
        dims.append(lengths.pop())
        level = list(chain.from_iterable(level))
    else:
        if set(map(type, level)) <= _NUMBERS[dtype]:
            with contextlib.suppress(OverflowError):  # an integer out of range
                arr = np.array(level, dtype=np.float64 if dtype is float else np.int64)
                if dtype is float and not np.isfinite(arr).all():
                    raise ValueError(f"non-finite value in {field}")
                return arr.reshape(dims)
    raise ValueError(f"{field} must be an array of shape {_shape_text(shape)} "
                     f"of {'finite numbers' if dtype is float else 'integers'}, {_got(value)}")


def _shape_text(shape: tuple) -> str:
    return str(shape).replace("None", "n")


def _block(value: dict, shape: tuple, field: str, what: str) -> np.ndarray:
    dtype = get(value, "dtype", str, field)
    if dtype != ROW_DTYPE:
        raise ValueError(f"{field}.dtype {dtype!r} is not {ROW_DTYPE!r}")
    dims = get(value, "shape", list, field)
    if (list(map(type, dims)) != [int] * len(shape) or min(dims, default=0) < 0
            or any(n not in (None, d) for n, d in zip(shape, dims))):
        raise ValueError(f"{field}.shape {dims} does not hold {what}")
    text = get(value, "base64", str, field)
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"{field}.base64 is not base64: {exc}") from exc
    if len(data) != 8 * math.prod(dims):
        raise ValueError(f"{field} holds {len(data)} bytes, not {' x '.join(map(str, dims))} x 8")
    return np.frombuffer(data, dtype=ROW_DTYPE).reshape(dims).astype(np.float64)


def _record(value, cls: type, field: str):
    value = read(value, dict, field or "the top level")
    kinds = _hints(cls)
    for key in value:
        if key not in kinds:
            raise ValueError(f"unknown key '{f'{field}.{key}' if field else key}'")
    return cls(**{key: get(value, key, kinds[key], field) for key in value})
