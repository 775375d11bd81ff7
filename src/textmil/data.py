"""Synthetic embedding-bag datasets with planted instance-level ground truth.

Each class gets a unit prototype vector; slides of a class plant
prototype-aligned instances (masked 1) into a subset of regions on top
of background instances (masked 0). A designated normal class carries
background only. Prompt token embeddings are a convex mix of the class
prototype and per-token noise, so text guidance genuinely correlates
with the planted signal without solving the task outright. Its settings
are the config's `generator` section, `config.GeneratorSpec`.

On disk a dataset is a manifest (the generator spec and one record per
slide: id, label, bag file), a prompt file and one bag file per slide
(`hierpool.save_bag`). `load_dataset` reads the manifest and the prompt
file; a bag file is read, validated and checked against its record the
first time a command selects its slide, and at most once. So `train`
reads only its training and validation slides, `eval` and `localize`
only the checkpoint's split, and a bad bag file of a slide that a
command does not use is not reported by it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import GeneratorSpec
from .errors import ID, ConfigError, DataError, get, json_input, read, write_json
from .hierpool import Region, SlideBag, check_slide_id, load_bag, save_bag, validate_bag
from .textenc import ClassPrompt, PromptSet, save_prompts, load_prompts


@dataclass(frozen=True)
class SlideFile:
    """A manifest's record of a slide whose bag file has not been read yet."""

    slide_id: str
    label: int
    path: Path
    at: str  # the record's field in the manifest, such as `slides[3]`

    def load(self) -> SlideBag:
        """The bag file, once it is found to hold this record's slide and label."""
        bag = load_bag(self.path)
        if (bag.slide_id, bag.label) != (self.slide_id, self.label):
            raise DataError(f"manifest {self.at} lists slide {self.slide_id} with label "
                            f"{self.label}, but {self.path} holds slide {bag.slide_id} "
                            f"with label {bag.label}")
        return bag


@dataclass
class Dataset:
    """A generated or loaded dataset; only a generated one knows its
    prototypes (n_classes, dim; the normal class carries the background).
    `slides` maps each slide id to its bag, or, in a loaded dataset, to
    the `SlideFile` that `select` reads the first time it is asked for
    that slide."""

    spec: GeneratorSpec
    slides: dict[str, SlideBag | SlideFile]
    prompts: PromptSet
    prototypes: np.ndarray | None = None
    background: np.ndarray | None = None

    @property
    def bags(self) -> list[SlideBag]:
        """Every slide's bag, reading those not read yet."""
        return self.select(list(self.slides))

    def labels(self) -> dict[str, int]:
        return {sid: s.label for sid, s in self.slides.items()}

    def select(self, ids: list[str]) -> list[SlideBag]:
        """The bags named by `ids`, in that order."""
        missing = [i for i in ids if i not in self.slides]
        if missing:
            raise DataError(f"dataset has no slide {missing[0]}")
        for i in ids:
            if isinstance(self.slides[i], SlideFile):
                self.slides[i] = self.slides[i].load()
        return [self.slides[i] for i in ids]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _separated_prototypes(rng: np.random.Generator, spec: GeneratorSpec):
    """Background + per-class unit prototypes with pairwise cosine <= 0.5."""
    background = _unit(rng.standard_normal(spec.dim))
    protos: list[np.ndarray] = []
    for c in range(spec.n_classes):
        if spec.normal_class is not None and c == spec.normal_class:
            protos.append(background)
            continue
        others = [background] + [p for i, p in enumerate(protos)
                                 if not (spec.normal_class is not None and i == spec.normal_class)]
        for _ in range(1000):
            cand = _unit(rng.standard_normal(spec.dim))
            if all(abs(float(cand @ o)) <= 0.5 for o in others):
                protos.append(cand)
                break
        else:  # pragma: no cover - 64-d random vectors essentially never collide
            raise DataError("could not sample separated prototypes")
    return background, np.stack(protos)


def _grid_coords(n: int) -> list[tuple[int, int]]:
    side = math.ceil(math.sqrt(n))
    return [(i // side, i % side) for i in range(n)]


def build_dataset(spec: GeneratorSpec) -> Dataset:
    """Deterministic in-memory dataset for a generator spec."""
    root = np.random.SeedSequence(spec.seed)
    proto_ss, slide_ss, prompt_ss = root.spawn(3)
    background, protos = _separated_prototypes(np.random.default_rng(proto_ss), spec)

    bags = []
    slide_children = slide_ss.spawn(spec.n_classes * spec.slides_per_class)
    for c in range(spec.n_classes):
        is_normal = spec.normal_class is not None and c == spec.normal_class
        for i in range(spec.slides_per_class):
            rng = np.random.default_rng(slide_children[c * spec.slides_per_class + i])
            n_regions = int(rng.integers(spec.regions_min, spec.regions_max + 1))
            tumor_regions = set()
            if not is_normal:
                n_tumor = max(1, round(spec.tumor_region_fraction * n_regions))
                tumor_regions = set(rng.choice(n_regions, size=n_tumor, replace=False).tolist())
            regions = []
            for m, coord in enumerate(_grid_coords(n_regions)):
                n_inst = int(rng.integers(spec.instances_min, spec.instances_max + 1))
                mask = np.zeros(n_inst, dtype=np.int64)
                if m in tumor_regions:
                    n_pos = max(1, round(spec.tumor_instance_fraction * n_inst))
                    mask[rng.choice(n_inst, size=n_pos, replace=False)] = 1
                centers = np.where(mask[:, None] == 1, protos[c], background)
                emb = centers + spec.noise_std * rng.standard_normal((n_inst, spec.dim))
                regions.append(Region(
                    region_id=str(m), coord=coord,
                    instance_coords=_grid_coords(n_inst),
                    embeddings=emb, mask=mask,
                ))
            bags.append(SlideBag(slide_id=f"slide_c{c}_{i:03d}", label=c, regions=regions))

    rho = spec.prompt_alignment
    prompt_rng = np.random.default_rng(prompt_ss)
    classes = []
    for c in range(spec.n_classes):
        def tokens(n: int) -> np.ndarray:
            out = np.empty((n, spec.dim))
            for t in range(n):
                noise = _unit(prompt_rng.standard_normal(spec.dim))
                out[t] = _unit(rho * protos[c] + (1.0 - rho) * noise)
            return out
        classes.append(ClassPrompt(
            class_id=c, name=f"class_{c}",
            region_tokens=tokens(spec.region_tokens),
            slide_tokens=tokens(spec.slide_tokens),
        ))
    tumor_class = None
    if spec.n_classes == 2 and spec.normal_class is not None:
        tumor_class = 1 - spec.normal_class
    prompts = PromptSet(classes=classes, tumor_class=tumor_class)

    return Dataset(spec=spec, slides={b.slide_id: validate_bag(b) for b in bags},
                   prompts=prompts, prototypes=protos, background=background)


# ---------------------------------------------------------------------------
# on-disk layout


def write_dataset(ds: Dataset, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    for bag in ds.bags:
        save_bag(bag, out / "slides" / f"{bag.slide_id}.json")
    save_prompts(ds.prompts, out / "prompts.json")
    manifest = {
        "format": 1,
        "generator": asdict(ds.spec),
        "prompts_file": "prompts.json",
        "slides": [{"id": b.slide_id, "label": b.label, "file": f"slides/{b.slide_id}.json"}
                   for b in sorted(ds.bags, key=lambda b: b.slide_id)],
    }
    write_json(out / "manifest.json", manifest, indent=1)
    return out


def load_dataset(path: str | Path) -> Dataset:
    """The dataset under `path`: its manifest, whose `generator` section is
    read as a config section is (`errors.read`), and its prompt file. A
    bag file is read only when `Dataset.select` first asks for its slide,
    and must then agree with its manifest record."""
    root = Path(path)
    with json_input(root / "manifest.json", "manifest") as manifest:
        manifest = read(manifest, dict, "the manifest")
        spec = get(manifest, "generator", GeneratorSpec)
        prompts = load_prompts(root / get(manifest, "prompts_file", str))
        slides = {}
        for i, s in enumerate(get(manifest, "slides", list)):
            at = f"slides[{i}]"
            sid = check_slide_id(get(read(s, dict, at), "id", ID, at), f"{at}.id")
            if sid in slides:
                raise ValueError(f"{at}.id repeats slide {sid}")
            label, name = get(s, "label", int, at), get(s, "file", str, at)
            slides[sid] = SlideFile(sid, label, root / name, at)
    return Dataset(spec=spec, slides=slides, prompts=prompts)


# ---------------------------------------------------------------------------
# split sampling


@dataclass
class SplitPlan:
    k: int
    train: list[str]
    val: list[str]
    test: list[str]

    def to_dict(self) -> dict:
        return {"k": self.k, "train": self.train, "val": self.val, "test": self.test}


_TEST_TAG = 0x7E57
_FOLD_TAG = 0xF01D


def kshot_split(labels: dict[str, int], k: int, fold_seed: int, *,
                dataset_seed: int, test_per_class: int, val_per_class: int) -> SplitPlan:
    """Stratified k-shot split. The test partition depends only on the
    dataset seed, so every fold and every k shares the same test slides."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    by_class: dict[int, list[str]] = {}
    for sid in sorted(labels):
        by_class.setdefault(labels[sid], []).append(sid)

    train, val, test = [], [], []
    for c in sorted(by_class):
        ids = by_class[c]
        need = k + val_per_class + test_per_class
        if len(ids) < need:
            raise DataError(
                f"class {c} has {len(ids)} slides; k={k} needs at least {need} "
                f"({test_per_class} test + {val_per_class} val + {k} train)")
        test_rng = np.random.default_rng(np.random.SeedSequence([dataset_seed, _TEST_TAG, c]))
        order = list(test_rng.permutation(len(ids)))
        test_ids = [ids[i] for i in order[:test_per_class]]
        pool = [ids[i] for i in order[test_per_class:]]
        fold_rng = np.random.default_rng(np.random.SeedSequence([fold_seed, _FOLD_TAG, c]))
        pool_order = list(fold_rng.permutation(len(pool)))
        train_ids = [pool[i] for i in pool_order[:k]]
        val_ids = [pool[i] for i in pool_order[k:k + val_per_class]]
        train.extend(sorted(train_ids))
        val.extend(sorted(val_ids))
        test.extend(sorted(test_ids))
    return SplitPlan(k=k, train=sorted(train), val=sorted(val), test=sorted(test))
