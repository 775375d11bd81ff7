"""The three closed-loop workloads.

Each workload has one caller in one process: a call is made only after
the previous one has returned.  ``setup`` builds the inputs from the
workload seed; ``run_unit`` performs one unit of work, times it and
checks its outputs; ``metrics`` reduces the samples of a run.  Library
functions are looked up through their modules at call time, so a
tracer installed between units sees every call.

A unit's time is the wall time of its library calls (``op_s``).  The
speed of a shared 2-vCPU VM drifts by 20-40% over seconds, so during each
untraced call a fixed calibration loop (``Calibration``: numpy and Python
work that does not use textmil) is timed too, and the call's time is also
counted in multiples of the loop's time.  The sum over a unit is
``op_ref``, which follows the program's speed and not the machine's.
"""

from __future__ import annotations

import contextlib
import filecmp
import hashlib
import io
import json
import math
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import textmil as tm
import textmil.cli  # noqa: F401  (makes tm.cli available)

PROB_SUM_TOL = 1e-9        # probabilities of one slide sum to 1
MERGE_TOL = 1e-10          # merged vs unmerged probabilities (README contract)
GRADCHECK_TOL = 1e-4       # gradcheck max relative error
SAMPLE_PERIOD_S = 0.5      # calibration samples during a call


_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((24, 64))
_REF_W = _REF_RNG.standard_normal((64, 64)) / 8


def _reference_loop() -> float:
    acc = 0.0
    for _ in range(40):
        h = np.tanh(_REF_A @ _REF_W)
        s = np.exp(h - h.max())
        acc += float(s.sum() / s.size)
        acc += sum({j: j * 0.5 for j in range(20)}.values())
    return acc


class Calibration:
    """The machine's current speed, from timing a fixed loop of small numpy
    and dict work that does not use textmil.  Each sample is the median of
    five ~0.8 ms runs of the loop, so a run hit by an interrupt drops out."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:          # a timer signal that arrives while sampling
            return
        self._busy = True
        t0 = time.perf_counter()
        times = []
        for _ in range(5):
            t = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t)
        self.samples.append(statistics.median(times))
        self.paused_s += time.perf_counter() - t0
        self._busy = False

    def measure(self, fn, *args, **kwargs):
        """Call ``fn`` and return (result, seconds, seconds in loop times).
        The loop is sampled before and after the call and every
        SAMPLE_PERIOD_S during it, from a SIGALRM handler, so a speed change
        in the middle of a long call is seen; the time spent sampling is
        taken out of the call's seconds."""
        self.samples = []
        self.sample()
        paused = self.paused_s
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        s = elapsed - (self.paused_s - paused)
        self.sample()
        return result, s, s * statistics.mean(1.0 / r for r in self.samples)


def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "value": statistics.median(samples) if samples else float("nan")}
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
            break
    return out


def throughput(samples: list[tuple[float, float]]) -> dict:
    """Work per second over all (work, seconds) samples of a run: a
    time-weighted rate, steadier than a median of short calls."""
    seconds = sum(s for _, s in samples)
    return {"n": len(samples),
            "value": sum(w for w, _ in samples) / seconds if seconds else float("nan")}


def _per_slide_check(per_slide: list[dict]) -> str | None:
    for row in per_slide:
        p = np.asarray(row["probabilities"], dtype=np.float64)
        if not np.isfinite(p).all():
            return f"non-finite probabilities for {row['slide_id']}"
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            return f"probabilities of {row['slide_id']} sum to {p.sum()!r}"
    return None


def _digest(per_slide: list[dict]) -> str:
    text = json.dumps([[r["slide_id"], [repr(x) for x in r["probabilities"]]]
                       for r in per_slide])
    return hashlib.sha256(text.encode()).hexdigest()


def _mean_nll(per_slide: list[dict]) -> float:
    return float(np.mean([-math.log(r["probabilities"][r["label"]]) for r in per_slide]))


def _train_config(base: "tm.RunConfig", overrides: dict) -> "tm.RunConfig":
    return replace(base, train=replace(base.train, **overrides))


def _base_config(spec: dict) -> "tm.RunConfig":
    base = tm.RunConfig()
    return replace(base, generator=replace(base.generator, **spec["generator"]))


def _permuted(bag, rng):
    """The same slide with its regions, and each region's instances, in a
    seed-chosen order."""
    regions = []
    for m in rng.permutation(bag.n_regions):
        r = bag.regions[m]
        order = rng.permutation(r.n_instances)
        regions.append(tm.Region(region_id=r.region_id, coord=r.coord,
                                 instance_coords=[r.instance_coords[j] for j in order],
                                 embeddings=r.embeddings[order],
                                 mask=None if r.mask is None else r.mask[order]))
    return tm.SlideBag(slide_id=bag.slide_id, label=bag.label, regions=regions)


class Workload:
    """Shared bookkeeping: attempted operations, failures, unit times."""

    name = ""

    def __init__(self, spec: dict, seed: int, small: dict | None, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.small = small or {}
        self.train = self.small.get("train", {})   # fit overrides, small mode only
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.unit_s: list[float] = []     # wall seconds in library calls, per unit
        self.unit_ref: list[float] = []   # the same, in calibration-loop times
        self._wall = self._ref = 0.0
        self.calibration = Calibration()

    def opt(self, key):
        return self.small.get(key, self.spec.get(key))

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def call(self, tracer, fn, *args, **kwargs):
        """One attempted operation; returns (result, seconds)."""
        self.attempted += 1
        if tracer is None:
            result, s, ref = self.calibration.measure(fn, *args, **kwargs)
            self._ref += ref
        else:
            tracer.op += 1
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            s = time.perf_counter() - t0
        self._wall += s
        return result, s

    def end_unit(self) -> None:
        self.unit_s.append(self._wall)
        self.unit_ref.append(self._ref)
        self._wall = self._ref = 0.0

    def close(self) -> None:
        pass


class FitKshot(Workload):
    """kshot_split -> build_model -> fit -> evaluate(test) over k x folds."""

    name = "fit-kshot"

    def setup(self) -> None:
        self.cfg = _train_config(_base_config(self.spec), self.train)
        self.dataset = tm.data.build_dataset(self.cfg.generator)
        rng = np.random.default_rng(self.seed)
        self.bags = {b.slide_id: _permuted(b, rng) for b in self.dataset.bags}
        self.grid = [(fold, k) for fold in self.opt("fold_seeds") for k in self.opt("shots")]
        self.digests: dict[tuple, str] = {}
        self.nll: dict[tuple, float] = {}
        self.fit_s: list[float] = []
        self.epochs: list[int] = []
        self.eval_samples: list[tuple[float, float]] = []

    def run_unit(self, tracer) -> None:
        spec = self.cfg.generator
        for fold, k in self.grid:
            plan, _ = self.call(tracer, tm.data.kshot_split, self.dataset.labels(), k, fold,
                                dataset_seed=spec.seed, test_per_class=spec.test_per_class,
                                val_per_class=spec.val_per_class)
            cfg = _train_config(self.cfg, {"shots": k, "seed": fold})
            model, _ = self.call(tracer, tm.model.build_model, cfg, self.dataset.prompts)
            result, fit_s = self.call(tracer, tm.train.fit, model,
                                      [self.bags[i] for i in plan.train],
                                      [self.bags[i] for i in plan.val])
            test = [self.bags[i] for i in plan.test]
            ev, eval_s = self.call(tracer, tm.metrics.evaluate, model, test)
            self.fit_s.append(fit_s)
            self.epochs.append(len(result.history))
            self.eval_samples.append((len(test), eval_s))
            problem = _per_slide_check(ev.per_slide)
            if problem:
                self.fail(f"fit k={k} fold={fold}: {problem}")
            digest = _digest(ev.per_slide)
            if self.digests.setdefault((fold, k), digest) != digest:
                self.fail(f"fit k={k} fold={fold}: test probabilities differ between repeats")
            self.nll.setdefault((fold, k), _mean_nll(ev.per_slide))
        self.end_unit()

    def metrics(self) -> dict:
        return {
            "op_ref": summary(self.unit_ref),
            "test_logloss": {"value": float(np.mean(list(self.nll.values()))),
                             "n": len(self.nll)},
        }

    def details(self) -> dict:
        return {
            "op_s": summary(self.unit_s),
            "eval_slides_per_s": throughput(self.eval_samples),
            "fit_s": summary(self.fit_s),
            "fit_epochs_per_s": throughput(list(zip(self.epochs, self.fit_s))),
        }


class EvalBigbag(Workload):
    """evaluate -> evaluate(with_localization) -> evaluate(merge_model(model))
    on the 40-slide test split of a large-bag dataset."""

    name = "eval-bigbag"

    def setup(self) -> None:
        model_spec = self.spec["model"]
        cfg = _train_config(_base_config(self.spec),
                            {**self.train, "shots": model_spec["shots"],
                             "seed": model_spec["train_seed"]})
        spec = cfg.generator
        ds = tm.data.build_dataset(spec)
        bags = {b.slide_id: b for b in ds.bags}
        plan = tm.data.kshot_split(ds.labels(), cfg.train.shots, model_spec["fold_seed"],
                                   dataset_seed=spec.seed, test_per_class=spec.test_per_class,
                                   val_per_class=spec.val_per_class)
        self.model = tm.model.build_model(cfg, ds.prompts)
        tm.train.fit(self.model, [bags[i] for i in plan.train], [bags[i] for i in plan.val])
        # same generator seed: identical prototypes, prompts and slide ids,
        # so the model and its split plan apply to the large bags unchanged
        big = tm.data.build_dataset(replace(spec, **self.opt("bigbag_generator")))
        big_bags = {b.slide_id: b for b in big.bags}
        rng = np.random.default_rng(self.seed)
        self.test = [_permuted(big_bags[i], rng) for i in plan.test]
        self.instances = float(np.mean([sum(r.n_instances for r in b.regions)
                                        for b in self.test]))
        self.reference: str | None = None
        self.eval_samples: list[tuple[float, float]] = []
        self.loc_samples: list[tuple[float, float]] = []
        self.nll = self.dice = float("nan")

    def run_unit(self, tracer) -> None:
        n = len(self.test)
        ev, s1 = self.call(tracer, tm.metrics.evaluate, self.model, self.test)
        loc, s2 = self.call(tracer, tm.metrics.evaluate, self.model, self.test,
                            with_localization=True)
        merged, _ = self.call(tracer, tm.model.merge_model, self.model)
        em, s3 = self.call(tracer, tm.metrics.evaluate, merged, self.test)
        self.end_unit()
        self.eval_samples += [(n, s1), (n, s3)]
        self.loc_samples.append((n, s2))
        for label, res in (("evaluate", ev), ("localize", loc), ("merged", em)):
            problem = _per_slide_check(res.per_slide)
            if problem:
                self.fail(f"{label}: {problem}")
        gap = max(abs(a - b) for r1, r2 in zip(ev.per_slide, em.per_slide)
                  for a, b in zip(r1["probabilities"], r2["probabilities"]))
        if gap > MERGE_TOL:
            self.fail(f"merged and unmerged probabilities differ by {gap:.3e}")
        digest = _digest(ev.per_slide)
        if self.reference is None:
            self.reference = digest
            self.nll = _mean_nll(ev.per_slide)
            self.dice = loc.dice_mean if loc.dice_mean is not None else float("nan")
        elif digest != self.reference:
            self.fail("test probabilities differ between repeats")

    def metrics(self) -> dict:
        return {
            "op_ref": summary(self.unit_ref),
            "test_logloss": {"value": self.nll, "n": 1},
        }

    def details(self) -> dict:
        return {
            "op_s": summary(self.unit_s),
            "eval_slides_per_s": throughput(self.eval_samples),
            "localize_slides_per_s": throughput(self.loc_samples),
            "dice_mean": {"value": self.dice, "n": 1},
            "instances_per_slide": {"value": self.instances, "n": len(self.test)},
        }


class CliPipeline(Workload):
    """The README command sequence, in-process through textmil.cli.main."""

    name = "cli-pipeline"

    def setup(self) -> None:
        self.config_path = None
        if self.train:
            self.config_path = self.workdir / f"config-{self.seed}.json"
            self.config_path.write_text(json.dumps({"train": self.train}))
        self.first: Path | None = None
        self.step_s: dict[str, list[float]] = {}
        self.eval_samples: list[tuple[float, float]] = []
        self.loc_samples: list[tuple[float, float]] = []
        self.nll = self.dice = float("nan")
        self.n_test = 0
        self.epoch_samples: list[tuple[float, float]] = []

    def _steps(self, d: Path) -> list[tuple[str, list[str]]]:
        cfg = ["--config", str(self.config_path)] if self.config_path else []
        data, ckpt = str(d / "data"), str(d / "run" / "checkpoint.json")
        sweep = self.opt("sweep")
        return [
            ("generate", ["generate", "--out", data]),
            ("train", ["train", "--data", data, "--out", str(d / "run"), *cfg]),
            ("eval", ["eval", "--data", data, "--checkpoint", ckpt, "--out", str(d / "eval")]),
            ("localize", ["localize", "--data", data, "--checkpoint", ckpt,
                          "--out", str(d / "loc")]),
            ("merge", ["merge", "--checkpoint", ckpt, "--out", str(d / "merged")]),
            ("eval", ["eval", "--data", data, "--checkpoint",
                      str(d / "merged" / "checkpoint_merged.json"), "--out", str(d / "eval2")]),
            ("gradcheck", ["gradcheck", "--out", str(d / "gc")]),
            ("sweep", ["eval", "--data", data, "--sweep", "--folds", str(sweep["folds"]),
                       "--seeds", str(sweep["seeds"]), "--out", str(d / "sweep"), *cfg]),
        ]

    def run_unit(self, tracer) -> None:
        d = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir))
        for step, argv in self._steps(d):
            with contextlib.redirect_stdout(io.StringIO()):
                rc, s = self.call(tracer, tm.cli.main, argv)
            self.step_s.setdefault(step, []).append(s)
            if rc != 0:
                self.fail(f"textmil {argv[0]} exited {rc}")
                break
            if step == "eval":
                payload = json.loads((Path(argv[argv.index("--out") + 1]) / "metrics.json")
                                     .read_text())
                self.n_test = payload["n_slides"]
                self.eval_samples.append((self.n_test, s))
                problem = _per_slide_check(payload["per_slide"])
                if problem:
                    self.fail(f"eval: {problem}")
                self.nll = _mean_nll(payload["per_slide"])
            elif step == "generate":
                self._permute_slides(d / "data" / "slides")
            elif step == "train":
                epochs = len((d / "run" / "training_log.jsonl").read_text().splitlines())
                self.epoch_samples.append((epochs, s))
            elif step == "localize":
                payload = json.loads((d / "loc" / "localization.json").read_text())
                self.loc_samples.append((self.n_test, s))
                self.dice = payload["dice_mean"]
            elif step == "gradcheck":
                err = json.loads((d / "gc" / "gradcheck.json").read_text())["max_rel_error"]
                if not err <= GRADCHECK_TOL:
                    self.fail(f"gradcheck max_rel_error {err:.3e} > {GRADCHECK_TOL}")
        self.end_unit()
        if self.first is None:
            self.first = d
            return
        diff = _tree_diff(self.first, d)
        if diff:
            self.fail(f"pipeline artifacts differ between runs: {diff}")
        shutil.rmtree(d)

    def _permute_slides(self, slides: Path) -> None:
        """Rewrite the generated slide files with regions and instances in a
        seed-chosen order (untimed); pooling is permutation invariant, so
        the work and the losses stay those of the README defaults."""
        rng = np.random.default_rng(self.seed)
        for path in sorted(slides.glob("*.json")):
            tm.hierpool.save_bag(_permuted(tm.hierpool.load_bag(path), rng), path)

    def close(self) -> None:
        if self.first is not None:
            shutil.rmtree(self.first, ignore_errors=True)
        if self.config_path is not None:
            self.config_path.unlink(missing_ok=True)

    def metrics(self) -> dict:
        return {
            "op_ref": summary(self.unit_ref),
            "test_logloss": {"value": self.nll, "n": 1},
        }

    def details(self) -> dict:
        return {
            "op_s": summary(self.unit_s),
            "pipeline_s": summary(self.unit_s),
            "eval_slides_per_s": throughput(self.eval_samples),
            "fit_s": summary(self.step_s.get("train", [])),
            "fit_epochs_per_s": throughput(self.epoch_samples),
            "localize_slides_per_s": throughput(self.loc_samples),
            "dice_mean": {"value": self.dice, "n": 1},
            "gradcheck_s": summary(self.step_s.get("gradcheck", [])),
            "sweep_s": summary(self.step_s.get("sweep", [])),
        }


def _tree_diff(a: Path, b: Path) -> str | None:
    """First difference between two artifact trees, by relative path and bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return f"file lists differ ({len(files_a)} vs {len(files_b)} files)"
    for rel in files_a:
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            return str(rel)
    return None


WORKLOADS = {cls.name: cls for cls in (FitKshot, EvalBigbag, CliPipeline)}
