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
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable

from . import __version__
from .atomic import atomic_write, write_json
from .baselines import (
    bkd_loss,
    distill_bkd,
    importance_by_loss,
    importance_by_value,
    train_dt,
    write_importance,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import SPLIT_FILES, load_dataset, resolve_dataset, write_stats
from .evaluate import arr_from_reports, emit_report, link_prediction, write_arr_matrix
from .losses import EI_MODES, PAIR_MODES
from .model import (
    NORMS, SCORE_KINDS, ScoreFunction, check_schedule, crop_model, param_count, reorder_dimensions, with_schedule,
)
from .train import TrainConfig, train_med

# ablation flag -> the TrainConfig switch it sets
ABLATIONS = {"noMLM": "no_mlm", "noEIM": "no_eim", "noDLW": "no_dlw"}


def parse_dims(spec: str) -> tuple[int, ...]:
    """Parse `start:stop:step` (stop inclusive when aligned), a comma list,
    or a single integer, into a schedule that passes `check_schedule`."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"dims range must be start:stop:step, got {spec!r}")
        start, stop, step = (int(p) for p in parts)
        return check_schedule(range(start, stop + 1, step))
    return check_schedule(int(p) for p in spec.split(",") if p.strip())


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` config text; `#` starts a comment line.

    Keys are normalized to underscore form, so `batch-size` and
    `batch_size` are the same setting; a key set twice is an error.
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
            key = key.strip().replace("-", "_")
            if key in out:
                raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
            out[key] = value.strip()
    return out


def dataset_checksum(directory: Path) -> str:
    digest = hashlib.sha256()
    for fname in SPLIT_FILES:
        digest.update(fname.encode())
        digest.update(b"\0")
        digest.update((directory / fname).read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__


@contextmanager
def recorded_run(path: Path, manifest: dict):
    """Write `manifest` to `path` as "running"; when the block ends, rewrite
    it as "ok" with the wall time, or as "failed" with the error's first
    line (the error still propagates)."""
    manifest["status"] = "running"
    write_json(path, manifest)
    t0 = time.monotonic()
    try:
        yield
    except BaseException as exc:
        manifest.update(status="failed", error=_first_line(exc))
        write_json(path, manifest)
        raise
    manifest.update(status="ok", wall_clock_sec=round(time.monotonic() - t0, 3))
    write_json(path, manifest)


def _parse_lr(text: str):
    return None if text == "search" else float(text)


def _parse_ablate(text: str) -> tuple[str, ...]:
    flags = tuple(f for f in (p.strip() for p in text.split(",")) if f)
    for f in flags:
        if f not in ABLATIONS:
            raise ValueError(f"unknown ablation flag {f!r}; expected subset of {tuple(ABLATIONS)}")
    return flags


@dataclass(frozen=True)
class Setting:
    """One `train` setting: flag `--name` (with dashes), config-file and
    manifest key `name`. `field` is the TrainConfig field it sets, or
    `score_fn.<f>` / `bkd_loss.<option>`; cmd_train reads the rest itself.
    A setting given nowhere is not passed on, so its default lives there."""

    name: str
    parse: Callable[[str], object] = str
    choices: tuple[str, ...] | None = None
    help: str | None = None
    field: str | None = None

    def value(self, text: str, where: str):
        """`text` parsed; a bad value is a ValueError naming `where`."""
        if self.choices and text not in self.choices:
            raise ValueError(f"{where}: {text!r} is not one of {', '.join(self.choices)}")
        try:
            return self.parse(text)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


TRAIN_SETTINGS = {s.name: s for s in (
    Setting("method", choices=("med", "dt", "bkd")),
    Setting("score_fn", choices=SCORE_KINDS, field="score_fn.kind"),
    Setting("norm", choices=NORMS, field="score_fn.norm"),
    Setting("dims", parse_dims, help="start:stop:step, comma list, or single value", field="dims"),
    Setting("lr", _parse_lr, help="learning rate, or `search`", field="lr"),
    Setting("batch_size", int, field="batch_size"),
    Setting("neg_per_pos", int, field="neg_per_pos"),
    Setting("epochs", int, field="max_epochs"),
    Setting("seed", int, field="seed"),
    Setting("ablate", _parse_ablate, help="comma subset of noMLM,noEIM,noDLW"),
    Setting("ei_input", choices=EI_MODES, field="ei_mode"),
    Setting("pair_mode", choices=PAIR_MODES, field="pair_mode"),
    Setting("validate_every", int, field="validate_every"),
    Setting("patience", int, field="patience"),
    Setting("probe_dims", parse_dims, field="probe_dims"),
    Setting("threads", int, help="evaluation threads during validation", field="eval_threads"),
    Setting("teacher", help="teacher checkpoint for --method bkd"),
    Setting("temperature", float, field="bkd_loss.temperature"),
    Setting("alpha", float, field="bkd_loss.alpha"),
    Setting("init_range", float, field="init_range"),
)}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _given_settings(args) -> dict[str, object]:
    """The train settings set by flag or config file (a flag beats the file).

    An unknown file key is a ValueError naming the file and the key.
    """
    given = {}
    if args.config:
        for key, text in parse_config_file(args.config).items():
            if key not in TRAIN_SETTINGS:
                raise ValueError(f"{args.config}: unknown key {key!r}")
            given[key] = TRAIN_SETTINGS[key].value(text, f"{args.config}: key {key!r}")
    for name, setting in TRAIN_SETTINGS.items():
        if getattr(args, name) is not None:
            given[name] = setting.value(getattr(args, name), _flag(name))
    return given


def _train_config(given: dict) -> tuple[TrainConfig, dict]:
    """The TrainConfig and the bkd_loss options the given settings feed."""
    if "dims" not in given:
        raise ValueError("--dims is required (flag or config file)")
    routed = {"": {}, "score_fn": {}, "bkd_loss": {}}  # "": TrainConfig's own fields
    for name, value in given.items():
        if TRAIN_SETTINGS[name].field:
            owner, _, field = TRAIN_SETTINGS[name].field.rpartition(".")
            routed[owner][field] = value
    if "ablate" in given:
        routed[""].update({field: flag in given["ablate"] for flag, field in ABLATIONS.items()})
    cfg = TrainConfig(score_fn=ScoreFunction(**routed["score_fn"]), **routed[""])
    return cfg, routed["bkd_loss"]


def _config_block(cfg: TrainConfig, given: dict, bkd_options: dict) -> dict:
    """The manifest's `config`: the resolved value of every setting."""
    block = {name: attrgetter(s.field)(cfg) for name, s in TRAIN_SETTINGS.items()
             if s.field and not s.field.startswith("bkd_loss.")}
    block.update(bkd_loss.__kwdefaults__, **bkd_options)  # bkd_loss holds the option defaults
    block.update(
        method=given["method"],
        probe_dims=cfg.resolved_probe_dims(),
        ablate=[flag for flag, field in ABLATIONS.items() if getattr(cfg, field)],
    )
    if "teacher" in given:
        block["teacher"] = given["teacher"]
    return block


def cmd_train(args) -> int:
    given = _given_settings(args)
    method = given.setdefault("method", "med")
    cfg, bkd_options = _train_config(given)
    if method in ("dt", "bkd") and len(cfg.dims) != 1:
        raise ValueError(f"--method {method} needs exactly one dimension in --dims")
    if method == "bkd" and "teacher" not in given:
        raise ValueError("--method bkd requires --teacher CHECKPOINT")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset_dir = resolve_dataset(args.dataset)
    dataset = load_dataset(dataset_dir)

    manifest = {
        "command": "train",
        "version": __version__,
        "seed": cfg.seed,
        "config": _config_block(cfg, given, bkd_options),
        "dataset": {"path": str(dataset_dir), "sha256": dataset_checksum(dataset_dir),
                    "stats": dataset.stats()},
        "outputs": {"checkpoint": "model.ckpt", "log": "train_log.jsonl"},
    }
    with recorded_run(out / "manifest.json", manifest):
        if method == "med":
            result = train_med(dataset, cfg)
        elif method == "dt":
            result = train_dt(dataset, cfg.dims[0], cfg)
        else:
            teacher = load_checkpoint(given["teacher"])
            result = distill_bkd(teacher, dataset, cfg.dims[0], cfg, **bkd_options)
        save_checkpoint(result.model, out / "model.ckpt")
        with atomic_write(out / "train_log.jsonl") as fh:
            for record in result.log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        manifest["result"] = {
            "lr": result.lr,
            "lr_search": result.lr_search,
            "epochs_run": result.epochs_run,
            "stopped_early": result.stopped_early,
            "best_epoch": result.best_epoch,
            "best_probe_mrr": result.best_probe_mrr,
            "clamped_teacher_scores": result.clamped,
        }
    best = "none" if result.best_probe_mrr is None else f"{result.best_probe_mrr:.4f}"
    print(f"trained {method} dims={list(cfg.dims)} lr={result.lr} "
          f"epochs={result.epochs_run} best_probe_mrr={best}")
    print(f"wrote {out / 'model.ckpt'}")
    return 0


def cmd_crop(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": "crop",
        "version": __version__,
        "checkpoint": str(args.checkpoint),
        "dim": args.dim,
        "outputs": {"checkpoint": str(out)},
    }
    with recorded_run(out.with_suffix(out.suffix + ".manifest.json"), manifest):
        cropped = crop_model(load_checkpoint(args.checkpoint), args.dim)
        save_checkpoint(cropped, out)
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
    }
    with recorded_run(out / "manifest.json", manifest):
        reports = [
            link_prediction(model, i, dataset, split=args.split, threads=threads)
            for i in range(1, model.n + 1)
        ]
        emit_report(reports, out / "report.csv", fmt="csv")
        emit_report(reports, out / "report.json", fmt="json")
        if args.arr:
            result = arr_from_reports(reports, include_vacuous=args.arr_include_vacuous)
            write_json(out / "arr.json", {
                "arr": result.value,
                "dims": list(result.dims),
                "num_with_correct": result.num_with_correct,
                "include_vacuous": result.include_vacuous,
            })
            write_arr_matrix(result, out / "arr_matrix.tsv")
            manifest["outputs"]["arr"] = "arr.json"
            manifest["outputs"]["arr_matrix"] = "arr_matrix.tsv"
            print(f"arr={result.value:.4f} over dims={list(result.dims)}")

    for report in reports:
        print(f"dim={report.dim} mrr={report.mrr:.4f} hit10={report.hit_at[10]:.4f} "
              f"params={report.param_count}")
    print(f"wrote {out / 'report.csv'}")
    return 0


def cmd_importance(args) -> int:
    if args.mode == "loss" and not args.dataset:
        raise ValueError("--mode loss requires --dataset (validation split)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": "importance",
        "version": __version__,
        "checkpoint": str(args.checkpoint),
        "mode": args.mode,
        "outputs": {"importance": "importance.tsv"},
    }
    with recorded_run(out / "manifest.json", manifest):
        model = load_checkpoint(args.checkpoint)
        if args.mode == "value":
            vec = importance_by_value(model)
        else:
            vec = importance_by_loss(model, load_dataset(resolve_dataset(args.dataset)))
        write_importance(vec, out / "importance.tsv")
        if args.apply:
            reordered = reorder_dimensions(model, vec.scores)
            save_checkpoint(reordered, out / "reordered.ckpt")
            manifest["outputs"]["checkpoint"] = "reordered.ckpt"
            print(f"wrote {out / 'reordered.ckpt'}")
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
    d = model.dim if args.dim is None else args.dim
    if not 1 <= d <= model.dim:
        raise ValueError(f"dump dim {d} out of range 1..{model.dim}")
    table = model.tables[args.table][:, :d]
    with atomic_write(args.out) as fh:
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
    for setting in TRAIN_SETTINGS.values():
        p.add_argument(_flag(setting.name), choices=setting.choices, help=setting.help)
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
        print(f"error: {_first_line(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
