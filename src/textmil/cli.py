"""Command-line entry point.

Subcommands: generate, train, eval, localize, gradcheck, merge, params.
Every subcommand writes a machine-readable JSON artifact (with the full
config echoed into it) and prints a short human summary. Exit codes:
0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_overrides, load_config
from .data import build_dataset, load_dataset, write_dataset
from .errors import ConfigError, DataError, NumericError
from .gradcheck import run_gradcheck
from .hierpool import attention_record, save_attention_record
from .metrics import evaluate
from .model import load_checkpoint, merge_model, save_checkpoint
from .ssf import SITES_PER_BLOCK, count_trainable
from .train import run_kshot


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    return apply_overrides(cfg, seed=args.seed, shots=args.k, depth=args.d_s,
                           factor=getattr(args, "lambda"), threshold=args.alpha)


def _checkpoint_bags(args):
    """The checkpoint's model and the dataset's bags of its `args.split` split."""
    model, _, split = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    if not isinstance(split, dict) or args.split not in split:
        raise DataError(f"checkpoint carries no {args.split} split; cannot select bags")
    return model, model.check_bags(dataset.select(split[args.split]))


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.generator
    if args.seed is not None:
        from dataclasses import replace
        spec = replace(spec, seed=args.seed)
    ds = build_dataset(spec)
    out = write_dataset(ds, args.out)
    n_masked = sum(1 for b in ds.bags if b.flat_mask().sum() > 0)
    print(f"generated {len(ds.bags)} slides ({spec.n_classes} classes, "
          f"{n_masked} with planted signal) into {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    dataset = load_dataset(args.data)
    model, result, plan = run_kshot(cfg, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.json", history=result.history,
                    split=plan.to_dict())
    with (out / "training_log.jsonl").open("w") as fh:
        for row in result.history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"trained {len(result.history)} epochs; best val AUC "
          f"{result.best_val_auc:.4f} at epoch {result.best_epoch}; "
          f"checkpoint -> {out / 'checkpoint.json'}")
    return 0


def _eval_single(args) -> int:
    model, bags = _checkpoint_bags(args)
    result = evaluate(model, bags)
    payload = {
        "config": model.config.to_dict(),
        "checkpoint": Path(args.checkpoint).name,
        "split": args.split,
        "n_slides": len(bags),
        **result.to_dict(),
    }
    out = Path(args.out)
    _write_json(out / "metrics.json", payload)
    print(f"eval[{args.split}] AUC {result.auc:.4f} over {len(bags)} slides "
          f"-> {out / 'metrics.json'}")
    return 0


def _eval_sweep(args) -> int:
    cfg = _load_run_config(args)
    dataset = load_dataset(args.data)
    results = []
    for fold in range(args.folds):
        for s in range(args.seeds):
            run_cfg = apply_overrides(cfg, seed=cfg.train.seed + 1000 * s)
            model, fit_res, plan = run_kshot(run_cfg, dataset, fold_seed=cfg.train.seed + fold)
            res = evaluate(model, model.check_bags(dataset.select(plan.test)))
            results.append({"fold": fold, "seed": run_cfg.train.seed,
                            "auc": res.auc, "best_epoch": fit_res.best_epoch})
    aucs = np.array([r["auc"] for r in results])
    payload = {
        "config": cfg.to_dict(),
        "folds": args.folds,
        "seeds_per_fold": args.seeds,
        "results": results,
        "auc_mean": float(aucs.mean()),
        "auc_std": float(aucs.std()),
    }
    out = Path(args.out)
    _write_json(out / "sweep.json", payload)
    print(f"sweep over {args.folds} folds x {args.seeds} seeds: "
          f"AUC {aucs.mean():.4f} +/- {aucs.std():.4f} -> {out / 'sweep.json'}")
    return 0


def cmd_eval(args) -> int:
    if args.sweep:
        return _eval_sweep(args)
    if args.checkpoint is None:
        raise ConfigError("eval needs --checkpoint (or --sweep with --config)")
    return _eval_single(args)


def cmd_localize(args) -> int:
    model, bags = _checkpoint_bags(args)
    loc = model.config.localization
    result = evaluate(model, bags, with_localization=True,
                      saliency_mode=loc.saliency, threshold=loc.threshold)
    out = Path(args.out)
    attn_dir = out / "attention"
    attn_dir.mkdir(parents=True, exist_ok=True)
    embs = model.class_embeddings()
    guidance = model.guidance(embs)
    for bag in sorted(bags, key=lambda b: b.slide_id):
        _, bag_out = model.bag_forward(bag, embs, guidance)
        save_attention_record(attention_record(bag, bag_out, loc.saliency),
                              attn_dir / f"{bag.slide_id}.json")
    payload = {
        "config": model.config.to_dict(),
        "split": args.split,
        "saliency": loc.saliency,
        "threshold": loc.threshold,
        "auc": result.auc,
        "dice_mean": result.dice_mean,
        "dice_per_slide": result.dice_per_slide,
    }
    _write_json(out / "localization.json", payload)
    dice_str = "n/a" if result.dice_mean is None else f"{result.dice_mean:.4f}"
    print(f"localize[{args.split}] dice {dice_str} over "
          f"{len(result.dice_per_slide or [])} masked slides -> {out / 'localization.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(seed=args.seed if args.seed is not None else 0)
    out = Path(args.out)
    _write_json(out / "gradcheck.json", report)
    print(f"gradcheck max rel error {report['max_rel_error']:.3e} "
          f"(through {report['through-score']:.3e}, detached {report['detached']:.3e}, "
          f"margin {report['branch_margin']:.3f}) -> {out / 'gradcheck.json'}")
    return 0


def cmd_merge(args) -> int:
    model, history, split = load_checkpoint(args.checkpoint)
    if model.merged:
        raise DataError("checkpoint is already merged")
    merged = merge_model(model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(merged, out / "checkpoint_merged.json", history=history, split=split)
    print(f"merged {sum(1 for s in model.sites if s.trainable)} trainable adapter sites "
          f"into the backbone -> {out / 'checkpoint_merged.json'}")
    return 0


def cmd_params(args) -> int:
    cfg = _load_run_config(args)
    counts = [count_trainable(cfg.encoder.dim, cfg.train.depth, cfg.encoder.attn_hidden,
                              cfg.encoder.dim, sites_per_block=n) for n in (SITES_PER_BLOCK, 0)]
    payload = {"config": cfg.to_dict(), "trainable": counts[0],
               "adapters": counts[0] - counts[1], "attention": counts[1]}
    if args.out is not None:
        _write_json(Path(args.out) / "params.json", payload)
    print(json.dumps(payload if args.verbose else
                     {k: payload[k] for k in ("trainable", "adapters", "attention")},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textmil",
        description="Few-shot weakly-supervised slide classification on embedding bags")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument("--k", type=int, default=None, help="shots per class override")
    common.add_argument("--d-s", dest="d_s", type=int, default=None,
                        help="adapter depth (trailing trainable blocks)")
    common.add_argument("--lambda", type=float, default=None,
                        help="refinement factor override")
    common.add_argument("--alpha", type=float, default=None,
                        help="refinement threshold override")

    p = sub.add_parser("generate", parents=[common], help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common], help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint or sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--sweep", action="store_true",
                   help="train+eval over a fold x seed grid instead of a single checkpoint")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("localize", parents=[common],
                       help="dice + attention exports for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="verify tape gradients against finite differences on a "
                            "dedicated small problem (both refinement-gradient modes)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("merge", parents=[common],
                       help="fold adapters into the backbone")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("params", parents=[common], help="trainable-parameter count")
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
