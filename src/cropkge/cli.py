"""Command-line entry point for reproducible runs.

Subcommands: train (med/dt/bkd), crop, eval (metrics and optional ARR),
importance (value/loss, optional apply), stats, dump. Every
artifact-producing run records a manifest with the resolved configuration,
seed, dataset checksum, and output paths; identical configuration, seed,
and dataset reproduce identical checkpoints, logs, and reports.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .baselines import (
    distill_bkd,
    importance_by_loss,
    importance_by_value,
    train_dt,
    write_importance,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import SPLIT_FILES, load_dataset, resolve_dataset, write_stats
from .evaluate import arr, emit_report, link_prediction, write_arr_matrix
from .model import ScoreFunction, crop_model, param_count, reorder_dimensions, with_schedule
from .train import TrainConfig, train_med

ABLATION_FLAGS = ("noMLM", "noEIM", "noDLW")


def parse_dims(spec: str) -> tuple[int, ...]:
    """Parse `start:stop:step` (stop inclusive when aligned), a comma list,
    or a single integer. The result must be strictly increasing and >= 1."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"dims range must be start:stop:step, got {spec!r}")
        start, stop, step = (int(p) for p in parts)
        if step < 1:
            raise ValueError("dims range step must be >= 1")
        dims = tuple(range(start, stop + 1, step))
        if not dims:
            raise ValueError(f"empty dims range {spec!r}")
    elif "," in spec:
        dims = tuple(int(p) for p in spec.split(",") if p.strip())
    else:
        dims = (int(spec),)
    if not dims or dims[0] < 1 or any(a >= b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dims must be strictly increasing and >= 1, got {spec!r}")
    return dims


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` config text; `#` starts a comment line.

    Keys are normalized to underscore form, so `batch-size` and
    `batch_size` are the same setting.
    """
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def dataset_checksum(directory: Path) -> str:
    digest = hashlib.sha256()
    for fname in SPLIT_FILES:
        digest.update(fname.encode())
        digest.update(b"\0")
        digest.update((directory / fname).read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def write_manifest(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _merged(args: argparse.Namespace, config: dict[str, str], key: str, default, cast):
    """CLI flag wins over config file wins over default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in config:
        return cast(config[key])
    return default


def _parse_lr(text: str):
    return None if text == "search" else float(text)


def _parse_ablate(text: str) -> tuple[str, ...]:
    flags = tuple(f for f in (p.strip() for p in text.split(",")) if f)
    for f in flags:
        if f not in ABLATION_FLAGS:
            raise ValueError(f"unknown ablation flag {f!r}; expected subset of {ABLATION_FLAGS}")
    return flags


def _build_train_config(args) -> tuple[TrainConfig, dict]:
    config_file = parse_config_file(args.config) if args.config else {}
    get = lambda key, default, cast: _merged(args, config_file, key, default, cast)

    method = get("method", "med", str)
    if method not in ("med", "dt", "bkd"):
        raise ValueError(f"unknown method {method!r}; expected med, dt, or bkd")
    dims_spec = get("dims", None, str)
    if dims_spec is None:
        raise ValueError("--dims is required (flag or config file)")
    dims = parse_dims(dims_spec) if isinstance(dims_spec, str) else dims_spec
    score_fn = ScoreFunction(kind=get("score_fn", "transe", str), norm=get("norm", "l2", str))
    ablate = get("ablate", (), _parse_ablate)
    if isinstance(ablate, str):
        ablate = _parse_ablate(ablate)
    probe = get("probe_dims", None, parse_dims)
    cfg = TrainConfig(
        score_fn=score_fn,
        dims=dims,
        batch_size=get("batch_size", 1024, int),
        neg_per_pos=get("neg_per_pos", 64, int),
        max_epochs=get("max_epochs", 3000, int),
        lr=get("lr", None, _parse_lr),
        validate_every=get("validate_every", 10, int),
        patience=get("patience", 5, int),
        probe_dims=probe,
        seed=get("seed", 42, int),
        no_mlm="noMLM" in ablate,
        no_eim="noEIM" in ablate,
        no_dlw="noDLW" in ablate,
        ei_mode=get("ei_input", "sigmoid", str),
        pair_mode=get("pair_mode", "single", str),
        eval_threads=get("threads", 1, int),
        init_range=get("init_range", None, float),
    )
    extra = {
        "method": method,
        "teacher": get("teacher", None, str),
        "temperature": get("temperature", 1.0, float),
        "alpha": get("alpha", 0.5, float),
    }
    return cfg, extra


def _config_snapshot(cfg: TrainConfig, extra: dict) -> dict:
    snap = {
        "score_fn": cfg.score_fn.kind,
        "norm": cfg.score_fn.norm,
        "dims": list(cfg.dims),
        "batch_size": cfg.batch_size,
        "neg_per_pos": cfg.neg_per_pos,
        "max_epochs": cfg.max_epochs,
        "lr": cfg.lr,
        "validate_every": cfg.validate_every,
        "patience": cfg.patience,
        "probe_dims": list(cfg.resolved_probe_dims()),
        "seed": cfg.seed,
        "ablate": [
            f for f, on in zip(ABLATION_FLAGS, (cfg.no_mlm, cfg.no_eim, cfg.no_dlw)) if on
        ],
        "ei_input": cfg.ei_mode,
        "pair_mode": cfg.pair_mode,
        "threads": cfg.eval_threads,
        "init_range": cfg.init_range,
    }
    snap.update({k: v for k, v in extra.items() if k != "teacher" or v is not None})
    return snap


def cmd_train(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg, extra = _build_train_config(args)
    dataset_dir = resolve_dataset(args.dataset)
    dataset = load_dataset(dataset_dir)

    if extra["method"] == "dt" and len(cfg.dims) != 1:
        raise ValueError("--method dt needs exactly one dimension in --dims")
    if extra["method"] == "bkd":
        if len(cfg.dims) != 1:
            raise ValueError("--method bkd needs exactly one dimension in --dims")
        if not extra["teacher"]:
            raise ValueError("--method bkd requires --teacher CHECKPOINT")

    manifest_path = out / "manifest.json"
    manifest = {
        "command": "train",
        "version": __version__,
        "seed": cfg.seed,
        "config": _config_snapshot(cfg, extra),
        "dataset": {"path": str(dataset_dir), "sha256": dataset_checksum(dataset_dir),
                    "stats": dataset.stats()},
        "outputs": {"checkpoint": "model.ckpt", "log": "train_log.jsonl"},
        "status": "running",
    }
    write_manifest(manifest_path, manifest)
    t0 = time.monotonic()

    if extra["method"] == "med":
        result = train_med(dataset, cfg)
    elif extra["method"] == "dt":
        result = train_dt(dataset, cfg.dims[0], cfg)
    else:
        teacher = load_checkpoint(extra["teacher"])
        result = distill_bkd(
            teacher, dataset, cfg.dims[0], cfg,
            temperature=extra["temperature"], alpha=extra["alpha"],
        )

    save_checkpoint(result.model, out / "model.ckpt")
    with open(out / "train_log.jsonl", "w", encoding="utf-8") as fh:
        for record in result.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    manifest["status"] = "ok"
    manifest["wall_clock_sec"] = round(time.monotonic() - t0, 3)
    manifest["result"] = {
        "lr": result.lr,
        "lr_search": result.lr_search,
        "epochs_run": result.epochs_run,
        "stopped_early": result.stopped_early,
        "best_epoch": result.best_epoch,
        "best_probe_mrr": result.best_probe_mrr,
        "clamped_teacher_scores": result.clamped,
    }
    write_manifest(manifest_path, manifest)
    best = "none" if result.best_probe_mrr is None else f"{result.best_probe_mrr:.4f}"
    print(f"trained {extra['method']} dims={list(cfg.dims)} lr={result.lr} "
          f"epochs={result.epochs_run} best_probe_mrr={best}")
    print(f"wrote {out / 'model.ckpt'}")
    return 0


def cmd_crop(args) -> int:
    model = load_checkpoint(args.checkpoint)
    cropped = crop_model(model, args.dim)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(cropped, out)
    write_manifest(out.with_suffix(out.suffix + ".manifest.json"), {
        "command": "crop",
        "version": __version__,
        "checkpoint": str(args.checkpoint),
        "dim": args.dim,
        "outputs": {"checkpoint": str(out)},
        "status": "ok",
    })
    print(f"cropped to dim={args.dim}, params={param_count(cropped)}")
    print(f"wrote {out}")
    return 0


def cmd_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.checkpoint)
    dataset_dir = resolve_dataset(args.dataset)
    dataset = load_dataset(dataset_dir)
    if dataset.num_entities != model.num_entities or dataset.num_relations != model.num_relations:
        raise ValueError(
            f"checkpoint expects {model.num_entities} entities / {model.num_relations} relations, "
            f"dataset has {dataset.num_entities} / {dataset.num_relations}"
        )
    if args.dims and args.dims != "all":
        dims = tuple(sorted(set(parse_dims(args.dims))))
        model = with_schedule(model, dims)
    threads = args.threads if args.threads else (os.cpu_count() or 1)

    manifest_path = out / "manifest.json"
    manifest = {
        "command": "eval",
        "version": __version__,
        "checkpoint": str(args.checkpoint),
        "dataset": {"path": str(dataset_dir), "sha256": dataset_checksum(dataset_dir),
                    "stats": dataset.stats()},
        "split": args.split,
        "dims": list(model.dims),
        "arr": bool(args.arr),
        "outputs": {"csv": "report.csv", "json": "report.json"},
        "status": "running",
    }
    write_manifest(manifest_path, manifest)
    t0 = time.monotonic()

    reports = [
        link_prediction(model, i, dataset, split=args.split, threads=threads)
        for i in range(1, model.n + 1)
    ]
    emit_report(reports, out / "report.csv", fmt="csv")
    emit_report(reports, out / "report.json", fmt="json")

    if args.arr:
        result = arr(model, dataset, split=args.split, threads=threads,
                     include_vacuous=args.arr_include_vacuous)
        with open(out / "arr.json", "w", encoding="utf-8") as fh:
            json.dump({
                "arr": result.value,
                "dims": list(result.dims),
                "num_with_correct": result.num_with_correct,
                "include_vacuous": result.include_vacuous,
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_arr_matrix(result, out / "arr_matrix.tsv")
        manifest["outputs"]["arr"] = "arr.json"
        manifest["outputs"]["arr_matrix"] = "arr_matrix.tsv"
        print(f"arr={result.value:.4f} over dims={list(result.dims)}")

    manifest["status"] = "ok"
    manifest["wall_clock_sec"] = round(time.monotonic() - t0, 3)
    write_manifest(manifest_path, manifest)
    for report in reports:
        print(f"dim={report.dim} mrr={report.mrr:.4f} hit10={report.hit_at[10]:.4f} "
              f"params={report.param_count}")
    print(f"wrote {out / 'report.csv'}")
    return 0


def cmd_importance(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.checkpoint)
    if args.mode == "value":
        vec = importance_by_value(model)
    else:
        if not args.dataset:
            raise ValueError("--mode loss requires --dataset (validation split)")
        dataset = load_dataset(resolve_dataset(args.dataset))
        vec = importance_by_loss(model, dataset)
    write_importance(vec, out / "importance.tsv")
    outputs = {"importance": "importance.tsv"}
    if args.apply:
        reordered = reorder_dimensions(model, vec.scores)
        save_checkpoint(reordered, out / "reordered.ckpt")
        outputs["checkpoint"] = "reordered.ckpt"
        print(f"wrote {out / 'reordered.ckpt'}")
    write_manifest(out / "manifest.json", {
        "command": "importance",
        "version": __version__,
        "checkpoint": str(args.checkpoint),
        "mode": args.mode,
        "outputs": outputs,
        "status": "ok",
    })
    print(f"wrote {out / 'importance.tsv'}")
    return 0


def cmd_stats(args) -> int:
    dataset = load_dataset(resolve_dataset(args.dataset))
    if args.out:
        write_stats(dataset, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(dataset.stats(), indent=2, sort_keys=True))
    return 0


def cmd_dump(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.table not in model.tables:
        raise ValueError(f"unknown table {args.table!r}; checkpoint has {list(model.tables)}")
    d = args.dim or model.dim
    if not 1 <= d <= model.dim:
        raise ValueError(f"dump dim {d} out of range 1..{model.dim}")
    table = model.tables[args.table][:, :d]
    with open(args.out, "w", encoding="utf-8") as fh:
        for row_id, row in enumerate(table):
            values = "\t".join(repr(float(v)) for v in row)
            fh.write(f"{row_id}\t{values}\n")
    print(f"wrote {args.out} ({table.shape[0]} rows x {d} columns)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cropkge",
        description="croppable knowledge-graph embeddings: train once, crop any configured size",
    )
    parser.add_argument("--version", action="version", version=f"cropkge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model (med, dt, or bkd)")
    p.add_argument("--dataset", required=True, help="dataset directory or name")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--method", choices=["med", "dt", "bkd"])
    p.add_argument("--score-fn", dest="score_fn", choices=["transe", "simple", "rotate", "pairre"])
    p.add_argument("--norm", choices=["l2", "l1"])
    p.add_argument("--dims", help="start:stop:step, comma list, or single value")
    p.add_argument("--lr", type=_parse_lr, default=None, help="learning rate, or `search`")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--neg-per-pos", dest="neg_per_pos", type=int)
    p.add_argument("--epochs", dest="max_epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--ablate", type=_parse_ablate, help="comma subset of noMLM,noEIM,noDLW")
    p.add_argument("--ei-input", dest="ei_input", choices=["sigmoid", "raw"])
    p.add_argument("--pair-mode", dest="pair_mode", choices=["single", "pair"])
    p.add_argument("--validate-every", dest="validate_every", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--probe-dims", dest="probe_dims")
    p.add_argument("--threads", type=int, help="evaluation threads during validation")
    p.add_argument("--teacher", help="teacher checkpoint for --method bkd")
    p.add_argument("--temperature", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--init-range", dest="init_range", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("crop", help="crop a checkpoint to a schedule dimension")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_crop)

    p = sub.add_parser("eval", help="filtered link-prediction metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dims", help="`all` (default), or dims to evaluate (prefix widths)")
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p.add_argument("--arr", action="store_true", help="also compute the ability-retention ratio")
    p.add_argument("--arr-include-vacuous", action="store_true",
                   help="count never-correct triples as retained")
    p.add_argument("--threads", type=int, default=0, help="0 = all cores")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("importance", help="per-column importance of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", required=True, choices=["value", "loss"])
    p.add_argument("--dataset", help="needed for --mode loss")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--apply", action="store_true", help="also write the reordered checkpoint")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("stats", help="dataset statistics as JSON")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dump", help="dump one embedding table as TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        message = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
