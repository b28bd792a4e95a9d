"""Timing spans around cropkge's layer boundaries, for the traced run only.

Each wrapper is installed on the name in the module where callers look it
up (`losses` imports `gather_slots` and `_kernel` into its own namespace,
`train` imports `sample_negatives` and `total_loss`, `evaluate` imports
`one_vs_all_scores` and `prefix_tables64`). Where a layer has only a private
entry point (`_kernel`, `_Evaluator.rank`, `GradBuffer.finalized`) that
function is wrapped. A name that no longer exists is recorded as missing and
the metrics that need it are reported absent.

Spans live in memory until the run ends. A span holds its name, start, end,
parent and an optional count; a span opened on a worker thread with no open
span of its own takes the main thread's innermost open span as its parent.
"""
from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.info = None


def _gather_mb(args, kwargs, result):
    return sum(v.nbytes for v in result[0].values()) / 1e6


def _scatter_rows(args, kwargs, result):
    contribs = getattr(args[0], "_contribs", None)
    rows_in = None if contribs is None else sum(len(ids) for c in contribs.values() for ids, _ in c)
    return rows_in, sum(len(uids) for uids, _ in result.values())


def _adam_cells(args, kwargs, result):
    grads = args[2] if len(args) > 2 else kwargs["table_grads"]
    return sum(g.size for _, g in grads.values())


def _step_index(args, kwargs, result):
    return getattr(result, "index", None)


# (module, attribute path, span name, info callback)
WRAPPED = (
    ("data", "load_dataset", "data.load_dataset", None),
    ("data", "build_filter_index", "data.build_filter_index", None),
    ("train", "sample_negatives", "data.sample_negatives", None),
    ("scoring", "gather_slots", "scoring.gather_slots", _gather_mb),
    ("losses", "gather_slots", "scoring.gather_slots", _gather_mb),
    ("scoring", "_kernel", "scoring.kernel", None),
    ("losses", "_kernel", "scoring.kernel", None),
    ("evaluate", "one_vs_all_scores", "scoring.one_vs_all", None),
    ("evaluate", "prefix_tables64", "scoring.prefix_tables64", None),
    ("losses", "ei_loss", "losses.ei_loss", None),
    ("losses", "mutual_learning_loss", "losses.mutual_learning_loss", None),
    ("train", "total_loss", "losses.total_loss", None),
    ("losses", "GradBuffer.finalized", "losses.scatter", _scatter_rows),
    ("optim", "Adam.apply", "optim.adam", _adam_cells),
    ("train", "train_step", "train.step", _step_index),
    ("train", "run_training_loop", "train.loop", None),
    ("train", "train_med", "train.train_med", None),
    ("evaluate", "_Evaluator.rank", "evaluate.rank", None),
    ("evaluate", "link_prediction", "evaluate.link_prediction", None),
    ("evaluate", "arr", "evaluate.arr", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", None),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("model", "crop_model", "model.crop", None),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[Span], Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return stack, span

    @contextmanager
    def span(self, name: str):
        stack, span = self._open(name)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _wrap(self, func, name, info):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack, span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except Exception:  # a changed return shape must not break the traced program
                    span.info = None
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every layer boundary of an imported cropkge package.

        A span name counts as missing only when none of its names exists.
        """
        installed = set()
        for module_name, path, name, info in WRAPPED:
            owner = getattr(package, module_name, None)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            func = getattr(owner, attr, None)
            if func is not None:
                setattr(owner, attr, self._wrap(func, name, info))
                installed.add(name)
        self.missing = {name for _, _, name, _ in WRAPPED} - installed

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: id, parent id, name, start, end, info."""
        ids = {id(s): j for j, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for j, s in enumerate(self.spans):
                parent = None if s.parent is None else ids[id(s.parent)]
                fh.write(json.dumps([j, parent, s.name, s.start, s.end, s.info]) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, keyed by id(span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in sorted(children.get(id(s), ())):
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[id(s)] = (s.end - s.start) - covered
    return out


def _ancestor(span: Span, names: tuple[str, ...]) -> Span | None:
    p = span.parent
    while p is not None and p.name not in names:
        p = p.parent
    return p


# metric -> (unit, span names it needs)
LAYER_METRICS = {
    "data.load_dataset.s": ("s", ("data.load_dataset",)),
    "data.build_filter_index.s": ("s", ("data.build_filter_index",)),
    "data.sample_negatives.ms_per_step": ("ms", ("train.step", "data.sample_negatives")),
    "scoring.gather_slots.calls_per_step": ("count", ("train.step", "scoring.gather_slots")),
    "scoring.gather_slots.calls_per_step_i2plus": ("count", ("train.step", "scoring.gather_slots")),
    "scoring.gather_slots.mb_per_step": ("MB", ("train.step", "scoring.gather_slots")),
    "scoring.gather_slots.ms_per_step": ("ms", ("train.step", "scoring.gather_slots")),
    "scoring.kernel.ms_per_step": ("ms", ("train.step", "scoring.kernel")),
    "losses.ei_loss.ms_per_step": ("ms", ("train.step", "losses.ei_loss")),
    "losses.mutual_learning_loss.ms_per_step": ("ms", ("train.step", "losses.mutual_learning_loss")),
    "losses.total_loss.ms_per_step": ("ms", ("train.step", "losses.total_loss")),
    "losses.scatter.ms_per_step": ("ms", ("train.step", "losses.scatter")),
    "losses.scatter.rows_in_per_step": ("count", ("train.step", "losses.scatter")),
    "losses.scatter.rows_out_per_step": ("count", ("train.step", "losses.scatter")),
    "optim.adam.ms_per_step": ("ms", ("train.step", "optim.adam")),
    "optim.adam.cells_per_step": ("count", ("train.step", "optim.adam")),
    "train.step.ms_per_step": ("ms", ("train.step",)),
    "train.loop.self_ms_per_step": ("ms", ("train.step", "train.loop")),
    "train.validation.share": ("fraction", ("train.train_med", "train.loop", "evaluate.link_prediction")),
    "scoring.one_vs_all.ms_per_side": ("ms", ("scoring.one_vs_all",)),
    "evaluate.rank.self_ms_per_side": ("ms", ("evaluate.rank",)),
    "evaluate.link_prediction.ms_per_side": ("ms", ("evaluate.link_prediction",)),
    "evaluate.arr.ms_per_cell": ("ms", ("evaluate.arr",)),
    "scoring.prefix_tables64.calls": ("count", ("scoring.prefix_tables64",)),
    "scoring.prefix_tables64.ms": ("ms", ("scoring.prefix_tables64",)),
    "evaluate.thread_speedup": ("ratio", ("evaluate.link_prediction",)),
    "checkpoint.load.ms": ("ms", ("checkpoint.load",)),
    "checkpoint.save.ms": ("ms", ("checkpoint.save",)),
    "model.crop.ms": ("ms", ("model.crop",)),
}

ROUND_STAGES = ("bench.train", "bench.crop", "bench.eval", "bench.arr")


def layer_metrics(tracer: Tracer, rounds: int, repeats: int, sides: int, cells: int, speedup: float) -> dict:
    """Per-layer metrics from the recorded spans.

    sides and cells are the ranked sides and ARR cells of one link-prediction
    pass and one ARR pass; repeats is the number of those passes in the run.
    "calls" and "ms" of prefix_tables64 are per round, "per step" metrics
    divide by the number of training steps.
    """
    spans = [s for s in tracer.spans if s.end is not None]
    selfs = _self_times(spans)
    stage_of = {id(s): _ancestor(s, ROUND_STAGES + ("bench.setup", "bench.threads", "bench.check")) for s in spans}
    stage = {k: (v.name if v is not None else None) for k, v in stage_of.items()}
    steps = [s for s in spans if s.name == "train.step"]
    step_of = {id(s): _ancestor(s, ("train.step",)) for s in spans}
    ms = 1000.0

    def in_steps(name):
        return [s for s in spans if s.name == name and step_of[id(s)] is not None]

    def dur(items):
        return sum(s.end - s.start for s in items)

    def per_step(amount):
        return amount / len(steps) if steps and amount is not None else None

    gathers = in_steps("scoring.gather_slots")
    index_of = {id(s): s.info for s in steps}
    i2 = [s for s in steps if index_of[id(s)] not in (None, 1)]
    gathers_i2 = sum(1 for g in gathers if index_of[id(step_of[id(g)])] not in (None, 1))
    scatter = in_steps("losses.scatter")
    rows = [s.info or (None, None) for s in scatter]
    ranked = [s for s in spans if stage[id(s)] in ("bench.eval", "bench.arr")]
    sides_spans = [s for s in ranked if s.name == "evaluate.rank"]
    one_vs_all = [s for s in ranked if s.name == "scoring.one_vs_all"]
    lp_eval = [s for s in spans if s.name == "evaluate.link_prediction" and stage[id(s)] == "bench.eval"]
    arr_spans = [s for s in spans if s.name == "evaluate.arr" and stage[id(s)] == "bench.arr"]
    prefix = [s for s in spans if s.name == "scoring.prefix_tables64" and stage[id(s)] in ROUND_STAGES]
    validation = [
        s for s in spans
        if s.name == "evaluate.link_prediction" and s.parent is not None and s.parent.name == "train.loop"
    ]
    loops = [s for s in spans if s.name == "train.loop"]
    train_meds = [s for s in spans if s.name == "train.train_med"]

    def total(values):
        values = list(values)
        return None if None in values else sum(values)

    def mean_ms(items):
        return ms * dur(items) / len(items) if items else None

    values = {
        "data.load_dataset.s": dur(s for s in spans if s.name == "data.load_dataset" and stage[id(s)] == "bench.setup"),
        "data.build_filter_index.s": dur(
            s for s in spans if s.name == "data.build_filter_index" and stage[id(s)] == "bench.setup"
        ),
        "data.sample_negatives.ms_per_step": per_step(ms * dur(in_steps("data.sample_negatives"))),
        "scoring.gather_slots.calls_per_step": per_step(len(gathers)),
        "scoring.gather_slots.calls_per_step_i2plus": gathers_i2 / len(i2) if i2 else None,
        "scoring.gather_slots.mb_per_step": per_step(total(s.info for s in gathers)),
        "scoring.gather_slots.ms_per_step": per_step(ms * dur(gathers)),
        "scoring.kernel.ms_per_step": per_step(ms * dur(in_steps("scoring.kernel"))),
        "losses.ei_loss.ms_per_step": per_step(ms * sum(selfs[id(s)] for s in in_steps("losses.ei_loss"))),
        "losses.mutual_learning_loss.ms_per_step": per_step(
            ms * sum(selfs[id(s)] for s in in_steps("losses.mutual_learning_loss"))
        ),
        "losses.total_loss.ms_per_step": per_step(ms * sum(selfs[id(s)] for s in in_steps("losses.total_loss"))),
        "losses.scatter.ms_per_step": per_step(ms * dur(scatter)),
        "losses.scatter.rows_in_per_step": per_step(total(r[0] for r in rows)),
        "losses.scatter.rows_out_per_step": per_step(total(r[1] for r in rows)),
        "optim.adam.ms_per_step": per_step(ms * dur(in_steps("optim.adam"))),
        "optim.adam.cells_per_step": per_step(total(s.info for s in in_steps("optim.adam"))),
        "train.step.ms_per_step": mean_ms(steps),
        "train.loop.self_ms_per_step": per_step(ms * sum(selfs[id(s)] for s in loops)),
        "train.validation.share": dur(validation) / dur(train_meds) if train_meds else None,
        "scoring.one_vs_all.ms_per_side": mean_ms(one_vs_all),
        "evaluate.rank.self_ms_per_side": (
            ms * sum(selfs[id(s)] for s in sides_spans) / len(sides_spans) if sides_spans else None
        ),
        "evaluate.link_prediction.ms_per_side": ms * dur(lp_eval) / (sides * repeats) if lp_eval else None,
        "evaluate.arr.ms_per_cell": ms * dur(arr_spans) / (cells * repeats) if arr_spans else None,
        "scoring.prefix_tables64.calls": len(prefix) / rounds,
        "scoring.prefix_tables64.ms": ms * dur(prefix) / rounds,
        "evaluate.thread_speedup": speedup,
        "checkpoint.load.ms": mean_ms([s for s in spans if s.name == "checkpoint.load"]),
        "checkpoint.save.ms": mean_ms([s for s in spans if s.name == "checkpoint.save"]),
        "model.crop.ms": mean_ms([s for s in spans if s.name == "model.crop"]),
    }
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        value = values[name]
        if value is None or tracer.missing.intersection(needs):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": float(value), "unit": unit}
    return out
