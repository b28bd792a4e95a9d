"""Shared builders for randomized-but-seeded test inputs."""
import numpy as np
import pytest

from cropkge.data import Dataset, make_dataset, sample_negatives
from cropkge.model import SCORE_KINDS, CroppableModel, ScoreFunction, init_model

ALL_KINDS = SCORE_KINDS

# PASS/FAIL lines of the acceptance criteria, printed after the run so they
# show in plain output, where pytest captures what a test prints
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def rand_model(
    kind: str,
    dims=(2, 4),
    num_entities: int = 6,
    num_relations: int = 3,
    seed: int = 0,
    norm: str = "l2",
    dtype=np.float64,
    init_range=None,
) -> CroppableModel:
    rng = np.random.default_rng(seed)
    return init_model(
        ScoreFunction(kind, norm=norm), dims, num_entities, num_relations, rng,
        dtype=dtype, init_range=init_range,
    )


def rand_triples(rng, count, num_entities, num_relations):
    h = rng.integers(0, num_entities, size=count)
    r = rng.integers(0, num_relations, size=count)
    t = rng.integers(0, num_entities, size=count)
    return np.stack([h, r, t], axis=1).astype(np.int64)


def rand_dataset(seed=0, num_entities=8, num_relations=3, n_train=30, n_valid=6, n_test=6) -> Dataset:
    """Random dataset with disjoint splits; train covers the vocabulary."""
    assert num_entities + num_relations <= n_train
    rng = np.random.default_rng(seed)
    seen: set[tuple] = set()
    rows: list[tuple] = []

    def add(trip):
        if trip not in seen:
            seen.add(trip)
            rows.append(trip)

    for e in range(num_entities):
        add((e, e % num_relations, (e + 1) % num_entities))
    for r in range(num_relations):
        add((0, r, (r + 2) % num_entities))
    while len(rows) < n_train + n_valid + n_test:
        add(tuple(int(x) for x in rand_triples(rng, 1, num_entities, num_relations)[0]))
    arr = np.array(rows, dtype=np.int64)
    return make_dataset(
        arr[:n_train], arr[n_train : n_train + n_valid], arr[n_train + n_valid :],
        num_entities=num_entities, num_relations=num_relations,
    )


def rand_batch(rng, model, batch=5, k=3):
    """Positives plus a sampled NegativeBatch for a model-sized vocabulary."""
    pos = rand_triples(rng, batch, model.num_entities, model.num_relations)
    neg = sample_negatives(pos, k, model.num_entities, rng)
    return pos, neg


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
