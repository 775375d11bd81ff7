"""Outside-in tracing of textmil's layers, installed from the benchmark.

Each traced function is replaced at every name a caller looks it up by:
the defining module and every textmil module (or the package itself)
that bound it with ``from .x import y``.  ``train``, ``model`` and
``gradcheck`` import ``wsi_encode``/``encode`` by name and ``textenc``
imports ``ssf_forward`` by name, so wrapping only the defining module
would miss every call the library makes to itself.  ``tape.record`` and
``Tape.backward`` are looked up through the module and the class.

Three kinds of wrapper, chosen by call frequency:

* ``span``   - a kept span (name, start, end, parent span, operation id),
               held in memory and written out by ``dump``;
* ``agg``    - timed like a span and charged to its parent's child time,
               but only aggregated (tens of thousands of calls per fit);
* ``count``  - a call counter only (``tape.record``: ~440k calls per fit).

A span's self time is its duration minus the time of the spans nested
directly in it.  Tape primitives (``add``, ``matvec``, ...) are not
wrapped, so their time is charged to the layer that calls them.
``edges`` counts calls by (nearest traced caller, callee), so a caller
whose by-name alias was left unwrapped shows as a missing edge.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("tape", "textenc", "ssf", "hierpool", "model", "train", "metrics", "data",
          "gradcheck", "cli")

CLI_SUBCOMMANDS = ("generate", "train", "eval", "localize", "merge", "gradcheck", "sweep")


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _cli_label(args, kwargs) -> str:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    sub = argv[0] if argv else "none"
    if sub == "eval" and "--sweep" in argv:
        sub = "sweep"
    return f"cli.main.{sub}"


class Tracer:
    """Spans and counters for one traced run; ``install`` patches the
    loaded textmil modules and ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.totals: dict[str, list] = {}    # name -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self.edges: dict[tuple, int] = {}    # (caller name, callee name) -> calls
        self.op = 0
        self._stack: list[list] = []         # [child seconds, enclosing kept span id, name]
        self._restore: list[tuple] = []
        self._identity: dict[int, tuple] = {}

    # -- wrappers ---------------------------------------------------------

    def _bump(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _timed(self, name, fn, keep: bool, label=None, before=None, after=None):
        spans, stack, totals, edges = self.spans, self._stack, self.totals, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            key = label(args, kwargs) if label else name
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent, caller = (stack[-1][1], stack[-1][2]) if stack else (-1, "")
            edge = (caller, key)
            edges[edge] = edges.get(edge, 0) + 1
            sid = parent
            if keep:
                sid = len(spans)
                spans.append([key, 0.0, 0.0, parent, self.op])
            frame = [0.0, sid, key]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = totals.get(key)
                if rec is None:
                    rec = totals[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if keep:
                    spans[sid][1] = t0
                    spans[sid][2] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        cell = [0]
        self.counts[name] = 0

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        def flush():
            self.counts[name] = self.counts.get(name, 0) + cell[0]
            cell[0] = 0

        wrapper.flush = flush
        return wrapper

    # -- hooks that count work at the boundary ----------------------------

    def _ssf_before(self, args, kwargs):
        params = args[1] if len(args) > 1 else kwargs["params"]
        # frozen sites reuse one params object per model: test it once;
        # the cache keeps the object alive so its id cannot be reused
        hit = self._identity.get(id(params))
        if hit is None or hit[0] is not params:
            g, b = params.gamma, params.beta
            hit = (params, isinstance(g, np.ndarray) and isinstance(b, np.ndarray)
                   and not b.any() and bool((g == 1.0).all()))
            self._identity[id(params)] = hit
        if hit[1]:
            self._bump("ssf.identity")
        return args, kwargs

    def _region_before(self, args, kwargs):
        region = args[0] if args else kwargs["region"]
        self._bump("hierpool.instances", region.n_instances)
        return args, kwargs

    def _backward_after(self, args, kwargs, result):
        n = len(args[0])
        self._bump("tape.nodes", n)
        if any(f[1] >= 0 and self.spans[f[1]][0] == "train.fit" for f in self._stack):
            self._bump("tape.fit_nodes", n)

    def _cd_before(self, args, kwargs):
        f = args[0] if args else kwargs.pop("f")

        def counted(theta):
            self._bump("tape.central_difference.evals")
            return f(theta)

        return (counted, *args[1:]), kwargs

    def _fit_after(self, args, kwargs, result):
        self._bump("train.epochs", len(result.history))

    def _write_after(self, args, kwargs, result):
        self._bump("data.bytes_written", _dir_bytes(result))

    def _load_after(self, args, kwargs, result):
        self._bump("data.bytes_read", _dir_bytes(args[0] if args else kwargs["path"]))

    def _main_after(self, args, kwargs, result):
        if result != 0:
            self._bump("cli.main.nonzero_exits")

    # -- install / uninstall ----------------------------------------------

    def _targets(self):
        """(module, attribute, wrapper kind, wrapper options) for every traced function."""
        return [
            ("textenc", "encode", "span", {}),
            ("ssf", "ssf_forward", "agg", {"before": self._ssf_before}),
            ("hierpool", "region_encode", "agg", {"before": self._region_before}),
            ("hierpool", "wsi_encode", "span", {}),
            ("hierpool", "refinement_score", "agg", {}),
            ("tape", "record", "count", {}),
            ("tape", "Tape.backward", "span", {"after": self._backward_after}),
            ("tape", "central_difference", "span", {"before": self._cd_before}),
            ("model", "class_probabilities", "agg", {}),
            ("model", "build_model", "span", {}),
            ("model", "save_checkpoint", "span", {}),
            ("model", "load_checkpoint", "span", {}),
            ("model", "merge_model", "span", {}),
            ("train", "fit", "span", {"after": self._fit_after}),
            ("train", "epoch_loss", "span", {}),
            ("train", "adam_step", "span", {}),
            ("metrics", "evaluate", "span", {}),
            ("data", "build_dataset", "span", {}),
            ("data", "write_dataset", "span", {"after": self._write_after}),
            ("data", "load_dataset", "span", {"after": self._load_after}),
            ("data", "kshot_split", "span", {}),
            ("gradcheck", "run_gradcheck", "span", {}),
            ("gradcheck", "branch_margin", "count", {"name": "gradcheck.attempts"}),
            ("cli", "main", "span", {"label": _cli_label, "after": self._main_after}),
        ]

    def _wrap(self, name, fn, kind, opts):
        if kind == "count":
            return self._counted(opts.get("name", name), fn)
        return self._timed(name, fn, kind == "span", **opts)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "textmil" or name.startswith("textmil."))]
        for mod_name, attr, kind, opts in self._targets():
            home = sys.modules[f"textmil.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", original, kind, opts))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, kind, opts)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        flushed = set()
        for owner, name, original in reversed(self._restore):
            current = getattr(owner, name)
            if hasattr(current, "flush") and id(current) not in flushed:
                current.flush()
                flushed.add(id(current))
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".")[0]] += self_s
        return out

    def per_layer(self, units: int, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each normalised per traced workload unit."""
        u = float(units)
        tot = self.totals
        cnt = self.counts

        def ms(name):
            return tot.get(name, (0, 0.0, 0.0))[1] * 1e3 / u

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0] / u

        def ratio(a, b):
            return a / b if b else 0.0

        record = cnt.get("tape.record", 0)
        nodes = cnt.get("tape.nodes", 0)
        epochs = cnt.get("train.epochs", 0)
        region = tot.get("hierpool.region_encode", (0, 0.0, 0.0))
        ssf_calls = tot.get("ssf.ssf_forward", (0, 0.0, 0.0))[0]
        out = {
            "textenc.encode.ms": (ms("textenc.encode"), "ms/op"),
            "textenc.encode.calls": (calls("textenc.encode"), "calls/op"),
            "ssf.ssf_forward.ms": (ms("ssf.ssf_forward"), "ms/op"),
            "ssf.ssf_forward.calls": (calls("ssf.ssf_forward"), "calls/op"),
            "ssf.ssf_forward.identity_share": (ratio(cnt.get("ssf.identity", 0), ssf_calls),
                                               "share"),
            "hierpool.region_encode.ms": (ms("hierpool.region_encode"), "ms/op"),
            "hierpool.region_encode.calls": (calls("hierpool.region_encode"), "calls/op"),
            "hierpool.region_encode.us_per_instance": (
                ratio(region[1] * 1e6, cnt.get("hierpool.instances", 0)), "us"),
            "hierpool.wsi_encode.ms": (ms("hierpool.wsi_encode"), "ms/op"),
            "hierpool.wsi_encode.calls": (calls("hierpool.wsi_encode"), "calls/op"),
            "hierpool.refinement_score.calls": (calls("hierpool.refinement_score"), "calls/op"),
            "tape.record.calls": (record / u, "calls/op"),
            "tape.nodes": (nodes / u, "nodes/op"),
            "tape.node_share": (ratio(nodes, record), "share"),
            "tape.nodes_per_epoch": (ratio(cnt.get("tape.fit_nodes", 0), epochs), "nodes/epoch"),
            "tape.backward.ms": (ms("tape.backward"), "ms/op"),
            "tape.central_difference.evals": (cnt.get("tape.central_difference.evals", 0) / u,
                                              "calls/op"),
            "train.fit.ms": (ms("train.fit"), "ms/op"),
            "train.epoch_loss.ms": (ms("train.epoch_loss"), "ms/op"),
            "train.adam_step.ms": (ms("train.adam_step"), "ms/op"),
            "train.epochs": (epochs / u, "epochs/op"),
            "metrics.evaluate.ms": (ms("metrics.evaluate"), "ms/op"),
            "metrics.evaluate.calls": (calls("metrics.evaluate"), "calls/op"),
            "model.class_probabilities.ms": (ms("model.class_probabilities"), "ms/op"),
            "model.build_model.ms": (ms("model.build_model"), "ms/op"),
            "model.save_checkpoint.ms": (ms("model.save_checkpoint"), "ms/op"),
            "model.load_checkpoint.ms": (ms("model.load_checkpoint"), "ms/op"),
            "model.merge_model.ms": (ms("model.merge_model"), "ms/op"),
            "data.build_dataset.ms": (ms("data.build_dataset"), "ms/op"),
            "data.write_dataset.ms": (ms("data.write_dataset"), "ms/op"),
            "data.load_dataset.ms": (ms("data.load_dataset"), "ms/op"),
            "data.kshot_split.ms": (ms("data.kshot_split"), "ms/op"),
            "data.bytes_read": (cnt.get("data.bytes_read", 0) / u, "B/op"),
            "data.bytes_written": (cnt.get("data.bytes_written", 0) / u, "B/op"),
            "gradcheck.run_gradcheck.ms": (ms("gradcheck.run_gradcheck"), "ms/op"),
            "gradcheck.attempts": (ratio(cnt.get("gradcheck.attempts", 0),
                                         tot.get("gradcheck.run_gradcheck", (0,))[0]),
                                   "samples/call"),
        }
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.main.{sub}.ms"] = (ms(f"cli.main.{sub}"), "ms/op")
        out["cli.main.nonzero_exits"] = (cnt.get("cli.main.nonzero_exits", 0) / u, "calls/op")
        for layer, s in self.layer_self_seconds().items():
            out[f"{layer}.self_ms"] = (s * 1e3 / u, "ms/op")
        out["trace.wall_ms"] = (traced_wall_s * 1e3 / u, "ms/op")
        out["trace.kept_spans"] = (len(self.spans) / u, "spans/op")
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Write the kept spans and the aggregates, gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {**header, "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": self.spans,
                   "totals": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                              for k, v in sorted(self.totals.items())},
                   "counts": dict(sorted(self.counts.items())),
                   "edges": {f"{a}>{b}": n for (a, b), n in sorted(self.edges.items())}}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
