"""Triple dataset loading, encoding, filter indexing, and negative sampling.

Datasets are directories of three TSV files (train.txt, valid.txt, test.txt),
one `head<TAB>relation<TAB>tail` string triple per line. Ids are dense
integers assigned in first-seen order scanning train, then valid, then test;
entities or relations that only occur in valid/test are still admitted to the
vocabulary (transductive link prediction).
"""
from __future__ import annotations

import importlib.resources
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_json

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")
SPLIT_NAMES = ("train", "valid", "test")

DATA_DIR_ENV = "CROPKGE_DATA_DIR"


class FilterIndex:
    """Known-true candidate index over all splits, for filtered ranking.

    heads(r, t) is every head h with (h, r, t) true in any split, and
    tails(h, r) every tail likewise. Each side is a pair of int64 arrays,
    the distinct (key, candidate) pairs sorted by key and then candidate,
    where the key of (a, b) is a * base + b and base exceeds every id.
    """

    def __init__(self, triples: np.ndarray):
        self.base = int(triples.max()) + 1 if len(triples) else 1
        h, r, t = triples.T
        self._heads = _sorted_pairs(r * self.base + t, h)
        self._tails = _sorted_pairs(h * self.base + r, t)

    def _lookup(self, pairs, a: int, b: int) -> np.ndarray:
        keys, values = pairs
        key = a * self.base + b if 0 <= b < self.base else -1  # b outside 0..base-1 aliases another key
        return values[keys.searchsorted(key) : keys.searchsorted(key, "right")]

    def heads(self, relation: int, tail: int) -> np.ndarray:
        """All known-true heads for (?, relation, tail), sorted and unique."""
        return self._lookup(self._heads, relation, tail)

    def tails(self, head: int, relation: int) -> np.ndarray:
        """All known-true tails for (head, relation, ?), sorted and unique."""
        return self._lookup(self._tails, head, relation)


def _sorted_pairs(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (key, value) pairs, sorted by key and then by value."""
    order = np.lexsort((values, keys))
    keys, values = keys[order], values[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (values[1:] != values[:-1])
    return keys[new], values[new]


def build_filter_index(triples: np.ndarray) -> FilterIndex:
    """Build a FilterIndex from an (N, 3) array of encoded triples."""
    return FilterIndex(np.asarray(triples, dtype=np.int64).reshape(-1, 3))


@dataclass
class Dataset:
    """Encoded triple splits plus vocabularies and the filter index."""

    entity_ids: dict[str, int]
    relation_ids: dict[str, int]
    entity_names: list[str]
    relation_names: list[str]
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    filter: FilterIndex = field(init=False, repr=False)

    def __post_init__(self):
        for name in SPLIT_NAMES:
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.int64).reshape(-1, 3))
            setattr(self, name, arr)
        self._check()
        self.filter = build_filter_index(self.all_triples())

    def _check(self):
        ne, nr = self.num_entities, self.num_relations
        splits = [getattr(self, name) for name in SPLIT_NAMES]
        for name, arr in zip(SPLIT_NAMES, splits):
            if arr.size == 0:
                continue
            if arr[:, [0, 2]].min() < 0 or arr[:, [0, 2]].max() >= ne:
                raise ValueError(f"{name} split contains an out-of-range entity id")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= nr:
                raise ValueError(f"{name} split contains an out-of-range relation id")
        # a later split's first triple, in file order, that an earlier split holds
        keys = [(arr[:, 0] * nr + arr[:, 1]) * ne + arr[:, 2] for arr in splits]
        for later in (1, 2):
            clash = np.isin(keys[later], np.concatenate(keys[:later]))
            if clash.any():
                j = int(np.argmax(clash))
                prev = next(SPLIT_NAMES[s] for s in range(later) if keys[later][j] in keys[s])
                raise ValueError(
                    f"triple {tuple(splits[later][j].tolist())} appears in both {prev} and "
                    f"{SPLIT_NAMES[later]}; splits must be disjoint"
                )

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def split(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}; expected one of {SPLIT_NAMES}")
        return getattr(self, name)

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test], axis=0)

    def stats(self) -> dict:
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "train": int(len(self.train)),
            "valid": int(len(self.valid)),
            "test": int(len(self.test)),
        }


def make_dataset(train, valid, test, num_entities: int | None = None, num_relations: int | None = None) -> Dataset:
    """Build a Dataset from already-encoded triple arrays, inventing names.

    Convenience for tests and synthetic data; vocabulary sizes default to
    1 + the largest id seen.
    """
    splits = [np.asarray(s, dtype=np.int64).reshape(-1, 3) for s in (train, valid, test)]
    stacked = np.concatenate(splits, axis=0)
    if num_entities is None:
        num_entities = int(stacked[:, [0, 2]].max()) + 1 if len(stacked) else 0
    if num_relations is None:
        num_relations = int(stacked[:, 1].max()) + 1 if len(stacked) else 0
    ents = [f"e{i}" for i in range(num_entities)]
    rels = [f"r{i}" for i in range(num_relations)]
    return Dataset(
        entity_ids={n: i for i, n in enumerate(ents)},
        relation_ids={n: i for i, n in enumerate(rels)},
        entity_names=ents,
        relation_names=rels,
        train=splits[0],
        valid=splits[1],
        test=splits[2],
    )


def _read_triples(path: Path) -> list[tuple[str, str, str]]:
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            triples.append((parts[0], parts[1], parts[2]))
    return triples


def load_dataset(directory: str | Path) -> Dataset:
    """Load and encode a triple dataset directory.

    Ids are assigned in first-seen order over train, then valid, then test.
    Raises ValueError for a missing file, a malformed line, or triples
    duplicated across splits.
    """
    directory = Path(directory)
    raw = {}
    for fname, sname in zip(SPLIT_FILES, SPLIT_NAMES):
        path = directory / fname
        if not path.is_file():
            raise ValueError(f"missing dataset file: {path}")
        raw[sname] = _read_triples(path)

    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}

    def ent(name: str) -> int:
        if name not in entity_ids:
            entity_ids[name] = len(entity_ids)
        return entity_ids[name]

    def rel(name: str) -> int:
        if name not in relation_ids:
            relation_ids[name] = len(relation_ids)
        return relation_ids[name]

    encoded = {}
    for sname in SPLIT_NAMES:
        rows = [(ent(h), rel(r), ent(t)) for h, r, t in raw[sname]]
        encoded[sname] = np.array(rows, dtype=np.int64).reshape(-1, 3)

    return Dataset(
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        entity_names=list(entity_ids),
        relation_names=list(relation_ids),
        train=encoded["train"],
        valid=encoded["valid"],
        test=encoded["test"],
    )


def resolve_dataset(name_or_path: str) -> Path:
    """Resolve a dataset argument to a directory.

    Tries, in order: the literal path; $CROPKGE_DATA_DIR/<name>; the data
    directory bundled with the package.
    """
    p = Path(name_or_path)
    if p.is_dir():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        candidate = Path(root) / name_or_path
        if candidate.is_dir():
            return candidate
    bundled = importlib.resources.files("cropkge") / "data" / name_or_path
    try:
        if bundled.is_dir():
            return Path(str(bundled))
    except OSError:
        pass
    raise ValueError(f"dataset not found: {name_or_path!r} (checked path, ${DATA_DIR_ENV}, bundled data)")


def write_stats(dataset: Dataset, path: str | Path) -> None:
    """Dump dataset statistics as JSON."""
    write_json(path, dataset.stats())


@dataclass
class NegativeBatch:
    """k corrupted triples per positive; slot marks which side was replaced.

    heads/rels/tails are (B, k) id arrays; slot is (B, k) with 0 where the
    head was corrupted and 1 where the tail was.
    """

    heads: np.ndarray
    rels: np.ndarray
    tails: np.ndarray
    slot: np.ndarray

    @property
    def per_positive(self) -> int:
        return self.heads.shape[1]

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten to three (B*k,) id vectors."""
        return self.heads.ravel(), self.rels.ravel(), self.tails.ravel()


def sample_negatives(positives: np.ndarray, k: int, num_entities: int, rng: np.random.Generator) -> NegativeBatch:
    """Corrupt each positive k times by replacing its head or tail.

    The corrupted slot is chosen uniformly; the replacement entity is uniform
    over all entities except the original one in that slot. Replacements may
    accidentally form other true triples (false negatives are permitted).
    """
    if k < 1:
        raise ValueError("need at least one negative per positive")
    if num_entities < 2:
        raise ValueError("cannot corrupt triples with fewer than 2 entities")
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    b = len(positives)
    h = positives[:, 0][:, None]
    r = positives[:, 1][:, None]
    t = positives[:, 2][:, None]
    slot = rng.integers(0, 2, size=(b, k), dtype=np.int64)
    draw = rng.integers(0, num_entities - 1, size=(b, k), dtype=np.int64)
    original = np.where(slot == 0, h, t)
    replacement = draw + (draw >= original)
    heads = np.where(slot == 0, replacement, h)
    tails = np.where(slot == 1, replacement, t)
    rels = np.broadcast_to(r, (b, k)).copy()
    return NegativeBatch(heads=heads, rels=rels, tails=tails, slot=slot)
