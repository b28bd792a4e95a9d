"""Benchmark inputs: triple files and a checkpoint, made from a workload seed.

Every graph comes from `cropkge.synth.generate`. The program under test only
ever sees the files written here. Split sizes never depend on the seed: the
trainer's random draws then come in the same order for every seed, so the
sequence of sampled sub-model indices, which sets the cost of each step,
is the same in every run.

- synth-train: the bundled synth graph (made by the generator with its
  default settings); the seed re-splits its held-out triples into valid
  and test.
- large-eval: one 3000-entity graph of ~120k triples, generated once from a
  fixed seed and cached under `.cache/`. The 1000 ranked test triples are a
  fixed sample. The workload seed picks the 6144 triples of the training
  stage and the noise and tied rows of the transe checkpoint that is
  ranked. Every other triple is written to valid.txt, so the filter covers
  the whole graph.

The checkpoint plants the generator's latent translation structure (the
generator draws entity and relation latents first, from its own seed) into
a 128-wide transe table through a fixed projection, adds noise, and then
copies the rows of some gold entities onto other entities, so that exact
score ties reach the ranking code. The fixed test sample and projection
keep the checkpoint's MRR within ~2% across seeds.
"""
from __future__ import annotations

import hashlib
import inspect
import os
import shutil
from pathlib import Path

import numpy as np

from oracle import read_graph

SPLITS = ("train", "valid", "test")

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "cropkge" / "data" / "synth"

LARGE_GRAPH = dict(num_entities=3000, num_relations=10, latent_dim=12, per_pair=4, seed=11)
LARGE_TEST = 1000
LARGE_TRAIN = 6144
LARGE_DIMS = tuple(range(16, 129, 16))
LARGE_NOISE = 0.1
LARGE_TIES = 40


def _read(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().split("\n") if line]


def _write_dataset(out: Path, splits: dict[str, list[str]]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name in SPLITS:
        (out / f"{name}.txt").write_text("".join(line + "\n" for line in splits[name]), encoding="utf-8")


def synth_dataset(out: Path, seed: int) -> None:
    """The bundled synth graph with its held-out triples re-split by seed.

    train.txt is the bundled one, unchanged; valid.txt and test.txt are a
    seeded split of the bundled valid and test triples, at their sizes.
    Every entity and relation occurs in train.txt, so ids and the training
    run itself do not depend on the seed; the probed and ranked triples do.
    """
    splits = {name: _read(BUNDLED / f"{name}.txt") for name in SPLITS}
    held = splits["valid"] + splits["test"]
    order = np.random.default_rng([seed, 1]).permutation(len(held))
    n_valid = len(splits["valid"])
    splits["valid"] = [held[j] for j in order[:n_valid]]
    splits["test"] = [held[j] for j in order[n_valid:]]
    _write_dataset(out, splits)


def _large_graph(cache: Path) -> Path:
    """Generate (once per generator version) and cache the large graph."""
    from cropkge import synth

    key = hashlib.sha256(inspect.getsource(synth).encode() + repr(sorted(LARGE_GRAPH.items())).encode())
    target = cache / f"large-{key.hexdigest()[:16]}"
    if not (target / "test.txt").is_file():
        tmp = cache / f".tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        synth.generate(tmp, **LARGE_GRAPH)
        try:
            os.replace(tmp, target)
        except OSError:  # another run cached it first
            shutil.rmtree(tmp)
            if not (target / "test.txt").is_file():
                raise
    return target


def large_inputs(out: Path, checkpoint: Path, cache: Path, seed: int) -> None:
    """Dataset directory plus the transe checkpoint ranked by large-eval."""
    from cropkge.checkpoint import save_checkpoint
    from cropkge.model import CroppableModel, ScoreFunction

    base = _large_graph(cache)
    graph = {name: _read(base / f"{name}.txt") for name in SPLITS}
    test_pick = np.random.default_rng(LARGE_GRAPH["seed"]).choice(len(graph["test"]), size=LARGE_TEST, replace=False)
    rng = np.random.default_rng([seed, 2])
    train_pick = rng.choice(len(graph["train"]), size=LARGE_TRAIN, replace=False)
    test = [graph["test"][j] for j in np.sort(test_pick)]
    train = [graph["train"][j] for j in np.sort(train_pick)]
    test_rest = np.ones(len(graph["test"]), dtype=bool)
    test_rest[test_pick] = False
    train_rest = np.ones(len(graph["train"]), dtype=bool)
    train_rest[train_pick] = False
    valid = (
        [line for line, keep in zip(graph["train"], train_rest) if keep]
        + graph["valid"]
        + [line for line, keep in zip(graph["test"], test_rest) if keep]
    )
    splits = {"train": train, "valid": valid, "test": test}
    _write_dataset(out, splits)

    # the generator's first draws are the entity and relation latents
    g = LARGE_GRAPH
    latent_rng = np.random.default_rng(g["seed"])
    scale = np.sqrt(g["latent_dim"])
    z = latent_rng.normal(0.0, 1.0, size=(g["num_entities"], g["latent_dim"])) / scale
    o = latent_rng.normal(0.0, 1.0, size=(g["num_relations"], g["latent_dim"])) / scale

    written = read_graph(out)  # the ids the program will assign
    ents, rels = written.entity_ids, written.relation_ids
    ent_latent = z[[int(name[1:]) for name in ents]]
    rel_latent = o[[int(name[1:]) for name in rels]]
    width = LARGE_DIMS[-1]
    proj = latent_rng.normal(0.0, 1.0, size=(g["latent_dim"], width))
    # the first latent_dim columns are an exact (scaled) rotation of the latents
    q, _ = np.linalg.qr(proj[:, : g["latent_dim"]])
    proj[:, : g["latent_dim"]] = q * np.sqrt(g["latent_dim"])
    entity = ent_latent @ proj + LARGE_NOISE * rng.normal(0.0, 1.0, size=(len(ents), width))
    relation = rel_latent @ proj + LARGE_NOISE * rng.normal(0.0, 1.0, size=(len(rels), width))

    # exact ties: some gold entities of ranked triples get a twin row
    gold_names = sorted({part for line in test for part in line.split("\t")[::2]})
    golds = rng.choice(len(gold_names), size=LARGE_TIES, replace=False)
    twins = rng.choice(len(ents), size=LARGE_TIES, replace=False)
    for gi, twin in zip(golds, twins):
        src = ents[gold_names[gi]]
        if src != twin:
            entity[twin] = entity[src]

    model = CroppableModel(
        score_fn=ScoreFunction("transe"),
        dims=LARGE_DIMS,
        num_entities=len(ents),
        num_relations=len(rels),
        tables={"entity": entity.astype(np.float32), "relation": relation.astype(np.float32)},
    )
    save_checkpoint(model, checkpoint)
