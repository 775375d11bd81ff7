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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config
from .data import build_dataset, load_dataset, write_dataset
from .errors import ConfigError, DataError, NumericError, strict_dumps, write_json
from .gradcheck import run_gradcheck
from .metrics import evaluate
from .model import load_checkpoint, merge_model, save_checkpoint
from .ssf import count_trainable
from .train import run_kshot


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
    spec = load_config(args.config, args.set).generator
    ds = build_dataset(spec)
    out = write_dataset(ds, args.out)
    n_masked = sum(1 for b in ds.bags if b.flat_mask().sum() > 0)
    print(f"generated {len(ds.bags)} slides ({spec.n_classes} classes, "
          f"{n_masked} with planted signal) into {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    dataset = load_dataset(args.data)
    model, result, plan = run_kshot(cfg, dataset)
    out = Path(args.out)
    log = "".join(strict_dumps(row, out / "training_log.jsonl") + "\n" for row in result.history)
    save_checkpoint(model, out / "checkpoint.json", history=result.history,
                    split=plan.to_dict())
    (out / "training_log.jsonl").write_text(log)
    print(f"trained {len(result.history)} epochs; best val AUC "
          f"{result.best_val_auc:.4f} at epoch {result.best_epoch}; "
          f"checkpoint -> {out / 'checkpoint.json'}")
    return 0


def _eval_single(args) -> int:
    args.split = args.split or "test"
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
    write_json(out / "metrics.json", payload, indent=1)
    print(f"eval[{args.split}] AUC {result.auc:.4f} over {len(bags)} slides "
          f"-> {out / 'metrics.json'}")
    return 0


def _eval_sweep(args) -> int:
    folds = 3 if args.folds is None else args.folds
    seeds = 5 if args.seeds is None else args.seeds
    for flag, count in (("--folds", folds), ("--seeds", seeds)):
        if count < 1:
            raise ConfigError(f"{flag} must be >= 1, got {count}")
    cfg = load_config(args.config, args.set)
    dataset = load_dataset(args.data)
    results = []
    for fold in range(folds):
        for s in range(seeds):
            run_cfg = replace(cfg, train=replace(cfg.train, seed=cfg.train.seed + 1000 * s))
            model, fit_res, plan = run_kshot(run_cfg, dataset, fold_seed=cfg.train.seed + fold)
            res = evaluate(model, model.check_bags(dataset.select(plan.test)))
            results.append({"fold": fold, "seed": run_cfg.train.seed,
                            "auc": res.auc, "best_epoch": fit_res.best_epoch})
    aucs = np.array([r["auc"] for r in results])
    payload = {
        "config": cfg.to_dict(),
        "folds": folds,
        "seeds_per_fold": seeds,
        "results": results,
        "auc_mean": float(aucs.mean()),
        "auc_std": float(aucs.std()),
    }
    out = Path(args.out)
    write_json(out / "sweep.json", payload, indent=1)
    print(f"sweep over {folds} folds x {seeds} seeds: "
          f"AUC {aucs.mean():.4f} +/- {aucs.std():.4f} -> {out / 'sweep.json'}")
    return 0


def cmd_eval(args) -> int:
    if not args.sweep and args.checkpoint is None:
        raise ConfigError("eval needs --checkpoint (or --sweep)")
    other = ({"--checkpoint": args.checkpoint, "--split": args.split} if args.sweep else
             {"--config": args.config, "--set": args.set or None, "--folds": args.folds,
              "--seeds": args.seeds})  # the flags of the mode not chosen
    given = [flag for flag, value in other.items() if value is not None]
    if given:
        mode = "--sweep" if args.sweep else "--checkpoint"
        raise ConfigError(f"eval {mode} takes no {' or '.join(given)}")
    return _eval_sweep(args) if args.sweep else _eval_single(args)


def cmd_localize(args) -> int:
    model, bags = _checkpoint_bags(args)
    loc = model.config.localization
    result = evaluate(model, bags, with_localization=True, attention=True)
    out = Path(args.out)
    for record in result.attention:
        write_json(out / "attention" / f"{record['slide_id']}.json", record, indent=1)
    payload = {
        "config": model.config.to_dict(),
        "split": args.split,
        "saliency": loc.saliency,
        "threshold": loc.threshold,
        "auc": result.auc,
        "dice_mean": result.dice_mean,
        "dice_per_slide": result.dice_per_slide,
    }
    write_json(out / "localization.json", payload, indent=1)
    dice_str = "n/a" if result.dice_mean is None else f"{result.dice_mean:.4f}"
    print(f"localize[{args.split}] dice {dice_str} over "
          f"{len(result.dice_per_slide or [])} masked slides -> {out / 'localization.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    report = run_gradcheck(seed=args.seed)
    out = Path(args.out)
    write_json(out / "gradcheck.json", report, indent=1)
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
    save_checkpoint(merged, out / "checkpoint_merged.json", history=history, split=split)
    print(f"merged {len(model.sites)} trainable adapter sites "
          f"into the backbone -> {out / 'checkpoint_merged.json'}")
    return 0


def cmd_params(args) -> int:
    cfg = load_config(args.config, args.set)
    counts = [count_trainable(cfg.encoder.dim, cfg.train.depth, hidden, cfg.encoder.dim)
              for hidden in (cfg.encoder.attn_hidden, 0)]
    payload = {"config": cfg.to_dict(), "trainable": counts[0],
               "adapters": counts[1], "attention": counts[0] - counts[1]}
    if args.out is not None:
        write_json(Path(args.out) / "params.json", payload, indent=1)
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

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="JSON config file")
    config.add_argument("--set", action="append", default=[], metavar="SECTION.FIELD=VALUE",
                        help="set one config field after --config (repeatable); "
                             "VALUE is JSON text or a plain string")

    p = sub.add_parser("generate", parents=[config], help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[config], help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[config], help="evaluate a checkpoint or sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--split", choices=("train", "val", "test"), default=None)
    p.add_argument("--sweep", action="store_true",
                   help="train+eval over a fold x seed grid instead of a single checkpoint")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("localize", help="dice + attention exports for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("gradcheck",
                       help="verify tape gradients against finite differences on a "
                            "dedicated small problem (both refinement-gradient modes)")
    p.add_argument("--seed", type=int, default=0, help="toy-problem seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("merge", help="fold adapters into the backbone")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("params", parents=[config], help="trainable-parameter count")
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
