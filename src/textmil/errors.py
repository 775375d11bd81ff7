"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: config errors exit 2,
data errors exit 3, numeric failures exit 4. Every JSON artifact is
written through `strict_dumps`, and `hierpool.save_bag` checks the
embeddings it stores as binary blocks itself, so a non-finite value is a
numeric failure rather than a `NaN` in a file.
"""

import json


class ConfigError(Exception):
    """Invalid or unknown configuration value."""


class DataError(Exception):
    """Malformed input file or infeasible data request."""


class NumericError(Exception):
    """Non-finite value where the computation requires finite numbers."""


def strict_dumps(payload, path, **kw) -> str:
    """`payload` as strict JSON text for the file `path`; a NaN or infinity
    raises a NumericError naming the file, before anything is written."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **kw)
    except ValueError as exc:
        raise NumericError(f"refusing to write {path}: {exc}") from exc
