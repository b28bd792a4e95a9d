"""One measured workload run, in a process of its own.

Started by run.py once the inputs exist. Loads the inputs (the set-up),
runs whole rounds of train -> save/load -> crop -> link prediction -> ARR
while the next round fits in --seconds, reads the peak memory, checks the
outputs, and prints the result as its last line. With --trace 1 the layer boundaries are
wrapped with timing spans and the per-layer metrics are reported instead.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEEDUP_THREADS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    score_fn: str
    dims: tuple[int, ...]
    epochs: int
    validate_every: int
    init_range: float | None
    # large-eval ranks an input checkpoint; synth-train ranks what it trained
    eval_checkpoint: bool
    # link prediction and ARR run this many times per round
    eval_repeats: int


WORKLOADS = {
    "synth-train": Workload("transe", (8, 16, 32, 64), epochs=40, validate_every=10, init_range=0.25,
                            eval_checkpoint=False, eval_repeats=8),
    "large-eval": Workload("rotate", tuple(range(8, 129, 8)), epochs=2, validate_every=1000, init_range=None,
                           eval_checkpoint=True, eval_repeats=1),
}


def train_config(train, model, spec: Workload):
    return train.TrainConfig(
        score_fn=model.ScoreFunction(spec.score_fn),
        dims=spec.dims,
        batch_size=1024,
        neg_per_pos=32,
        max_epochs=spec.epochs,
        lr=1e-2,
        init_range=spec.init_range,
        validate_every=spec.validate_every,
        patience=6,
        eval_threads=1,
        seed=0,
    )


@dataclass
class Round:
    train_s: float
    eval_s: list[float]
    arr_s: list[float]
    wall_s: float
    epochs: int
    ops: int
    digests: set[str]
    result: object = None
    loaded: object = None
    evaluated: object = None
    reports: list = field(default_factory=list)
    arr: object = None


def model_digest(m) -> str:
    h = hashlib.sha256(repr((m.score_fn, m.dims, m.num_entities, m.num_relations, m.w1, m.w2, m.w3)).encode())
    for name in sorted(m.tables):
        h.update(name.encode())
        h.update(m.tables[name].tobytes())
    return h.hexdigest()


def run_round(ck, spec, cfg, ds, input_model, work: Path, span) -> Round:
    """One whole round; the package modules are looked up at call time."""
    checkpoint, evaluate, model, train = ck.checkpoint, ck.evaluate, ck.model, ck.train
    begin = time.perf_counter()
    with span("bench.train"):
        result = train.train_med(ds, cfg)
        train_s = time.perf_counter() - begin
    with span("bench.crop"):
        path = work / "trained.ckpt"
        checkpoint.save_checkpoint(result.model, path)
        loaded = checkpoint.load_checkpoint(path)
        evaluated = input_model if spec.eval_checkpoint else loaded
        for d in evaluated.dims:
            model.crop_model(evaluated, d)
    n = evaluated.n
    trained = model_digest(result.model)
    eval_s, arr_s, digests = [], [], set()
    for _ in range(spec.eval_repeats):
        with span("bench.eval"):
            t = time.perf_counter()
            reports = [evaluate.link_prediction(evaluated, i, ds, "test", threads=1) for i in range(1, n + 1)]
            eval_s.append(time.perf_counter() - t)
        with span("bench.arr"):
            t = time.perf_counter()
            arr = evaluate.arr(evaluated, ds, "test", threads=1)
            arr_s.append(time.perf_counter() - t)
        outputs = repr([(r.dim, r.mrr, r.hit_at) for r in reports]) + arr.matrix.tobytes().hex()
        digests.add(trained + hashlib.sha256(outputs.encode()).hexdigest())
    return Round(
        train_s, eval_s, arr_s, wall_s=time.perf_counter() - begin, epochs=result.epochs_run,
        ops=1 + 2 + n + spec.eval_repeats * (n + 1), digests=digests,
        result=result, loaded=loaded, evaluated=evaluated, reports=reports, arr=arr,
    )


def check(ck, spec, cfg, ds, first: Round, rounds: list[Round], data_dir: Path) -> list[str]:
    """Independent checks of the first round's outputs; returns the failures."""
    import numpy as np

    import oracle

    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    trained, loaded, evaluated = first.result.model, first.loaded, first.evaluated

    expect(len(set().union(*(r.digests for r in rounds))) == 1,
           "repeated training or ranking gave different bytes: the run is not deterministic")

    same = (
        loaded.score_fn == trained.score_fn and loaded.dims == trained.dims
        and loaded.num_entities == trained.num_entities and loaded.num_relations == trained.num_relations
        and (loaded.w1, loaded.w2, loaded.w3) == (trained.w1, trained.w2, trained.w3)
        and set(loaded.tables) == set(trained.tables)
        and all(loaded.tables[k].dtype == trained.tables[k].dtype
                and loaded.tables[k].tobytes() == trained.tables[k].tobytes() for k in trained.tables)
    )
    expect(same, "load_checkpoint(save_checkpoint(m)) is not bitwise equal to m")

    for m, what in ((trained, "trained"), (evaluated, "evaluated")):
        finite = all(np.isfinite(t).all() for t in m.tables.values()) and np.isfinite([m.w1, m.w2, m.w3]).all()
        expect(finite, f"{what} model has non-finite parameters")

    rng = np.random.default_rng(1234)
    for m, what in ((trained, "trained"), (evaluated, "evaluated")):
        sample = np.stack([rng.integers(0, m.num_entities, 2048), rng.integers(0, m.num_relations, 2048),
                           rng.integers(0, m.num_entities, 2048)], axis=1)
        for i, d in enumerate(m.dims, 1):
            full = ck.scoring.batch_score(m, i, sample)
            crop = ck.scoring.batch_score(ck.model.crop_model(m, d), i, sample)
            expect(full.tobytes() == crop.tobytes(), f"{what} sub-model {d} scores differ from crop_model({d})")

    graph = oracle.read_graph(data_dir)
    expect(graph.entity_ids == ds.entity_ids and graph.relation_ids == ds.relation_ids,
           "entity or relation ids do not follow first-seen order")
    test = graph.splits["test"]
    ent, rel = evaluated.tables["entity"], evaluated.tables["relation"]
    n = evaluated.n
    # every width where that is cheap, else the first and the last
    cheap = len(test) * graph.num_entities * sum(evaluated.dims) <= 100_000_000
    checked = range(1, n + 1) if cheap else (1, n)
    oracle_matrix = {}
    random_level = None
    for i in checked:
        d = evaluated.dims[i - 1]
        ref = oracle.transe_ranks(ent, rel, d, test, graph)
        if random_level is None:
            random_level = oracle.random_mrr(ref.kept_head, ref.kept_tail)
        report = first.reports[i - 1]
        got = {"mrr": report.mrr, **{f"hit{k}": v for k, v in report.hit_at.items()}}
        want = oracle.summary(ref.mean)
        expect(got == want, f"dim {d}: program metrics {got} != oracle {want}")
        oracle_matrix[i] = ref.mean <= 10.0
        expect(np.array_equal(first.arr.matrix[:, i - 1], oracle_matrix[i]), f"dim {d}: ARR column differs from oracle")
        if i in (1, n):
            outcomes = ck.evaluate.rank_outcomes(evaluated, i, ds, "test")
            heads = np.array([o.rank_head for o in outcomes])
            tails = np.array([o.rank_tail for o in outcomes])
            expect(np.array_equal(heads, ref.head) and np.array_equal(tails, ref.tail),
                   f"dim {d}: per-side ranks differ from oracle")
            expect(bool(np.all((heads >= 1) & (heads <= ref.kept_head) & (tails >= 1) & (tails <= ref.kept_tail))),
                   f"dim {d}: a rank lies outside 1..kept candidates")
    expect(first.arr.value == oracle.retention(first.arr.matrix), "ARR value differs from the retention rule")
    if len(oracle_matrix) == n:
        expect(first.arr.value == oracle.retention(np.stack([oracle_matrix[i] for i in range(1, n + 1)], axis=1)),
               "ARR value differs from the oracle's")

    for r in first.reports:
        h1, h3, h10 = r.hit_at[1], r.hit_at[3], r.hit_at[10]
        expect(h1 <= h3 <= h10 <= 1.0 and r.mrr >= h1 and 0.0 < r.mrr <= 1.0, f"dim {r.dim}: impossible metrics")
        expect(r.mrr > random_level, f"dim {r.dim}: MRR {r.mrr:.4f} not above random ranking {random_level:.4f}")

    if not spec.eval_checkpoint:
        log = first.result.log
        expect(log[-1]["loss"]["total"] < log[0]["loss"]["total"], "epoch-mean loss did not fall")
    else:
        init = ck.model.init_model(cfg.score_fn, cfg.dims, ds.num_entities, ds.num_relations,
                                   np.random.default_rng(cfg.seed), dtype=cfg.dtype, init_range=cfg.init_range)
        batch = graph.splits["train"][rng.choice(len(graph.splits["train"]), 1024, replace=False)]
        neg = np.repeat(batch, 8, axis=0)
        side = rng.integers(0, 2, len(neg))
        neg[np.arange(len(neg)), 2 * side] = rng.integers(0, graph.num_entities, len(neg))
        for d in cfg.dims:
            before = oracle.bce(oracle.rotate_scores(init.tables, d, batch), oracle.rotate_scores(init.tables, d, neg))
            after = oracle.bce(oracle.rotate_scores(trained.tables, d, batch),
                               oracle.rotate_scores(trained.tables, d, neg))
            expect(after < before, f"dim {d}: BCE {after:.4f} on a fixed batch not below the initial {before:.4f}")
    return failures


def untraced(name: str):
    return contextlib.nullcontext()


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import cropkge
    import cropkge.checkpoint
    import cropkge.data
    import cropkge.evaluate
    import cropkge.model
    import cropkge.scoring
    import cropkge.train

    src = Path(cropkge.__file__).resolve().parent
    if src != ROOT / "src" / "cropkge":
        raise SystemExit(f"imported cropkge from {src}, not from this checkout")
    return cropkge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--checkpoint", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--t0", type=float, required=True, help="time.time() when the process was started")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    ck = import_package()
    tracer = None
    span = untraced
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(ck)
        span = tracer.span

    with span("bench.setup"):
        ds = ck.data.load_dataset(args.data)
        input_model = ck.checkpoint.load_checkpoint(args.checkpoint) if spec.eval_checkpoint else None
    setup_s = time.time() - args.t0
    cfg = train_config(ck.train, ck.model, spec)

    rounds: list[Round] = []
    start = time.perf_counter()
    # another round only if it fits in --seconds, judged by the last one
    while not rounds or time.perf_counter() - start + rounds[-1].wall_s <= args.seconds:
        r = run_round(ck, spec, cfg, ds, input_model, args.work, span)
        if rounds:  # keep only the first round's objects
            r.result = r.loaded = r.evaluated = r.arr = None
            r.reports = []
        rounds.append(r)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = rounds[0]
    n, t = first.evaluated.n, len(ds.test)

    speedup = None
    if tracer is not None:
        with span("bench.threads"):
            times = {}
            for threads in (1, SPEEDUP_THREADS):
                t0 = time.perf_counter()
                ck.evaluate.link_prediction(first.evaluated, n, ds, "test", threads=threads)
                times[threads] = time.perf_counter() - t0
        speedup = times[1] / times[SPEEDUP_THREADS]

    with span("bench.check"):
        try:
            failures = check(ck, spec, cfg, ds, first, rounds, args.data)
        except Exception as exc:  # a check that cannot finish marks the outputs incorrect
            traceback.print_exc()
            failures = [f"check raised {exc!r}"]
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    mrrs = [r.mrr for r in first.reports]
    metrics = {
        "setup_s": (setup_s, "s"),
        "train_triples_per_s": (statistics.median(len(ds.train) * r.epochs / r.train_s for r in rounds),
                                "triples/s"),
        "eval_sides_per_s": (statistics.median(2 * t * n / s for r in rounds for s in r.eval_s), "sides/s"),
        "arr_cells_per_s": (statistics.median(t * n / s for r in rounds for s in r.arr_s), "cells/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "test_mrr_first": (mrrs[0], "MRR"),
        "test_mrr_mean": (sum(mrrs) / len(mrrs), "MRR"),
    }
    e2e = {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}
    print(f"workload {args.workload}: {len(rounds)} rounds, {n} widths, {t} test triples, "
          f"{len(ds.train)} training triples, ARR {first.arr.value:.4f}")
    for name, m in e2e.items():
        print(f"{name} {m['value']:.6g} {m['unit']}{' (traced)' if tracer else ''}")

    if tracer is not None:
        import spans

        repeats = len(rounds) * spec.eval_repeats
        out = spans.layer_metrics(tracer, len(rounds), repeats, sides=2 * t * n, cells=t * n, speedup=speedup)
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        out = e2e
    attempted = sum(r.ops for r in rounds)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
