import json

import numpy as np
import pytest

from textmil.data import GeneratorSpec, build_dataset, kshot_split, load_dataset, write_dataset
from textmil.errors import ConfigError, DataError


def small_spec(**kw):
    args = dict(seed=3, dim=16, slides_per_class=10, regions_min=2, regions_max=3,
                instances_min=4, instances_max=6, region_tokens=2, slide_tokens=2,
                test_per_class=3, val_per_class=2)
    args.update(kw)
    return GeneratorSpec(**args)


# ---------------------------------------------------------------------------
# generator


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(tumor_region_fraction=0.0)
    with pytest.raises(ConfigError):
        small_spec(noise_std=0.0)
    with pytest.raises(ConfigError):
        small_spec(prompt_alignment=1.5)
    with pytest.raises(ConfigError):
        small_spec(regions_min=4, regions_max=2)
    with pytest.raises(ConfigError):
        small_spec(normal_class=7)


@pytest.mark.parametrize("field,value", [
    ("dim", 1), ("slides_per_class", 0), ("region_tokens", 0), ("slide_tokens", 0),
    ("test_per_class", -1), ("val_per_class", -1), ("slides_per_class", 5)])
def test_spec_rejects_counts_out_of_range(field, value):
    # small_spec holds out 3 test and 2 validation slides per class
    with pytest.raises(ConfigError, match=f"generator.{field} must"):
        small_spec(**{field: value})
    small_spec(slides_per_class=6)
    small_spec(slides_per_class=1, test_per_class=0, val_per_class=0)


def test_generated_structure_and_mask_density():
    spec = small_spec(tumor_region_fraction=0.5, tumor_instance_fraction=0.5)
    ds = build_dataset(spec)
    assert len(ds.bags) == 20
    for bag in ds.bags:
        assert bag.has_mask()
        n_regions = bag.n_regions
        assert spec.regions_min <= n_regions <= spec.regions_max
        if bag.label == spec.normal_class:
            assert bag.flat_mask().sum() == 0
            continue
        tumor_regions = [r for r in bag.regions if r.mask.sum() > 0]
        assert len(tumor_regions) == max(1, round(spec.tumor_region_fraction * n_regions))
        for r in tumor_regions:
            assert int(r.mask.sum()) == max(1, round(spec.tumor_instance_fraction * r.n_instances))


def test_infeasible_fraction_rounds_up_to_one():
    spec = small_spec(tumor_region_fraction=0.01, tumor_instance_fraction=0.01)
    ds = build_dataset(spec)
    for bag in ds.bags:
        if bag.label != spec.normal_class:
            assert bag.flat_mask().sum() >= 1


def test_zero_noise_full_alignment_hits_prototypes():
    spec = small_spec(noise_std=1e-12, prompt_alignment=1.0)
    ds = build_dataset(spec)
    protos = ds.prototypes
    for bag in ds.bags:
        for region in bag.regions:
            for j in range(region.n_instances):
                target = protos[bag.label] if region.mask[j] else ds.background
                assert np.abs(region.embeddings[j] - target).max() <= 1e-9
    for c in ds.prompts.classes:
        for row in np.vstack([c.region_tokens, c.slide_tokens]):
            assert np.abs(row - protos[c.class_id]).max() <= 1e-9


def test_prototype_separation():
    spec = small_spec(n_classes=5, normal_class=None)
    ds = build_dataset(spec)
    protos = ds.prototypes
    for i in range(5):
        assert np.linalg.norm(protos[i]) == pytest.approx(1.0, abs=1e-12)
        for j in range(i + 1, 5):
            assert abs(float(protos[i] @ protos[j])) <= 0.5


def test_binary_tumor_class_designation():
    ds = build_dataset(small_spec())
    assert ds.prompts.tumor_class == 1
    ds5 = build_dataset(small_spec(n_classes=5, normal_class=None))
    assert ds5.prompts.tumor_class is None


def test_generator_deterministic_bytes(tmp_path):
    spec = small_spec()
    write_dataset(build_dataset(spec), tmp_path / "a")
    write_dataset(build_dataset(spec), tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.json"))
    assert files_a == files_b and len(files_a) > 2
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_dataset_round_trip(tmp_path):
    spec = small_spec()
    ds = build_dataset(spec)
    write_dataset(ds, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert loaded.spec == spec
    assert loaded.labels() == ds.labels()
    some = ds.bags[0]
    assert np.array_equal(loaded.select([some.slide_id])[0].regions[0].embeddings,
                          some.regions[0].embeddings)
    assert loaded.prompts.tumor_class == ds.prompts.tumor_class


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_load_dataset_rejects_manifest_label_mismatch(tmp_path):
    write_dataset(build_dataset(small_spec()), tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["slides"][-1]
    entry["label"] = 1 - entry["label"]
    manifest_path.write_text(json.dumps(manifest))
    loaded = load_dataset(tmp_path / "d")  # bag files are read when a slide is selected
    with pytest.raises(DataError, match=f"slide {entry['id']} with label {entry['label']}"):
        loaded.select([entry["id"]])


def test_load_dataset_reads_each_selected_bag_once(tmp_path, monkeypatch):
    from textmil import data
    ds = build_dataset(small_spec())
    write_dataset(ds, tmp_path / "d")
    read = []
    monkeypatch.setattr(data, "load_bag", lambda path: read.append(path.stem) or
                        ds.select([path.stem])[0])
    loaded = load_dataset(tmp_path / "d")
    assert read == [] and loaded.labels() == ds.labels()
    ids = sorted(ds.labels())
    assert loaded.select(ids[3:5]) == ds.select(ids[3:5])
    assert loaded.select(ids[4:6]) == ds.select(ids[4:6])
    assert read == ids[3:6]
    assert [b.slide_id for b in loaded.bags] == list(ds.labels()) and sorted(read) == ids


def test_load_dataset_rejects_a_repeated_slide_id(tmp_path):
    write_dataset(build_dataset(small_spec()), tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["slides"].append(manifest["slides"][0])
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=rf"slides\[{len(manifest['slides']) - 1}\]\.id repeats"):
        load_dataset(tmp_path / "d")


def test_select_keeps_order_and_names_missing_slide():
    ds = build_dataset(small_spec())
    ids = [ds.bags[2].slide_id, ds.bags[0].slide_id]
    assert [b.slide_id for b in ds.select(ids)] == ids
    with pytest.raises(DataError, match="no slide slide_c9_000"):
        ds.select(ids + ["slide_c9_000"])


# ---------------------------------------------------------------------------
# k-shot split


def labels_of(spec):
    return {b.slide_id: b.label for b in build_dataset(spec).bags}


def test_split_counts():
    labels = labels_of(small_spec())
    plan = kshot_split(labels, 1, 0, dataset_seed=3, test_per_class=3, val_per_class=2)
    assert len(plan.train) == 2  # k per class, two classes
    assert len(plan.val) == 4
    assert len(plan.test) == 6
    plan16 = kshot_split(labels, 5, 0, dataset_seed=3, test_per_class=3, val_per_class=2)
    assert len(plan16.train) == 10


def test_split_disjoint_and_stratified():
    labels = labels_of(small_spec())
    plan = kshot_split(labels, 3, 11, dataset_seed=3, test_per_class=3, val_per_class=2)
    groups = [set(plan.train), set(plan.val), set(plan.test)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not groups[i] & groups[j]
    for part, per_class in (("train", 3), ("val", 2), ("test", 3)):
        ids = getattr(plan, part)
        counts = {}
        for sid in ids:
            counts[labels[sid]] = counts.get(labels[sid], 0) + 1
        assert counts == {0: per_class, 1: per_class}


def test_test_partition_fixed_across_k_and_folds():
    spec = small_spec(slides_per_class=30, test_per_class=5, val_per_class=3)
    labels = labels_of(spec)
    tests = set()
    for k in (1, 2, 4, 8, 16):
        for fold in (0, 1, 2):
            plan = kshot_split(labels, k, fold, dataset_seed=spec.seed,
                               test_per_class=5, val_per_class=3)
            tests.add(tuple(plan.test))
    assert len(tests) == 1


def test_different_folds_different_train():
    labels = labels_of(small_spec())
    a = kshot_split(labels, 2, 0, dataset_seed=3, test_per_class=3, val_per_class=2)
    b = kshot_split(labels, 2, 1, dataset_seed=3, test_per_class=3, val_per_class=2)
    assert a.test == b.test
    assert a.train != b.train


def test_split_sixteen_shot_five_classes():
    spec = small_spec(n_classes=5, normal_class=None, slides_per_class=20,
                      test_per_class=2, val_per_class=2)
    labels = labels_of(spec)
    plan = kshot_split(labels, 16, 0, dataset_seed=spec.seed,
                       test_per_class=2, val_per_class=2)
    assert len(plan.train) == 80


def test_split_insufficient_slides():
    labels = labels_of(small_spec())
    with pytest.raises(DataError):
        kshot_split(labels, 6, 0, dataset_seed=3, test_per_class=3, val_per_class=2)


def test_split_rejects_bad_k():
    labels = labels_of(small_spec())
    with pytest.raises(ConfigError):
        kshot_split(labels, 0, 0, dataset_seed=3, test_per_class=3, val_per_class=2)
