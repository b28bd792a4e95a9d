"""Croppable embedding parameter store.

One set of full-width tables serves a whole family of nested sub-models:
sub-model i uses only the first dims[i-1] columns of every table. Cropping
is column truncation, so sub-model scores survive cropping bit-exactly.

Table layouts per score function (all tables share width d_n):
  transe : entity, relation
  simple : entity_head, entity_tail, relation, relation_inv
  rotate : entity_re, entity_im, relation_phase  (d counts complex dims;
           relations are unit-modulus by construction via the phase)
  pairre : entity, relation_head, relation_tail
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

ENTITY = "entity-rows"
RELATION = "relation-rows"

# table name -> row domain, in canonical (wire) order
LAYOUTS: dict[str, tuple[tuple[str, str], ...]] = {
    "transe": (("entity", ENTITY), ("relation", RELATION)),
    "simple": (
        ("entity_head", ENTITY),
        ("entity_tail", ENTITY),
        ("relation", RELATION),
        ("relation_inv", RELATION),
    ),
    "rotate": (
        ("entity_re", ENTITY),
        ("entity_im", ENTITY),
        ("relation_phase", RELATION),
    ),
    "pairre": (
        ("entity", ENTITY),
        ("relation_head", RELATION),
        ("relation_tail", RELATION),
    ),
}

SCORE_KINDS = tuple(LAYOUTS)
NORMS = ("l2", "l1")

SCALARS = ("w1", "w2", "w3")


@dataclass(frozen=True)
class ScoreFunction:
    """Score function selector: kind plus distance norm.

    The norm applies to transe/rotate/pairre; simple ignores it.
    """

    kind: str = "transe"
    norm: str = "l2"

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score function {self.kind!r}; expected one of {SCORE_KINDS}")
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; expected one of {NORMS}")


def table_rows(score_fn: ScoreFunction, num_entities: int, num_relations: int) -> dict[str, int]:
    """Row count of every table, in wire order: one row per entity or per relation."""
    rows = {ENTITY: num_entities, RELATION: num_relations}
    return {name: rows[domain] for name, domain in LAYOUTS[score_fn.kind]}


def check_schedule(dims) -> tuple[int, ...]:
    """Validate a crop schedule: positive whole numbers, strictly increasing."""
    dims = tuple(dims)
    for d in dims:
        if not isinstance(d, (int, np.integer)) and not float(d).is_integer():
            raise ValueError(f"dimension {d!r} is not a whole number")
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dimension schedule is empty")
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be >= 1, got {dims}")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dimension schedule must be strictly increasing, got {dims}")
    return dims


@dataclass
class CroppableModel:
    """Full-width parameter tables plus schedule and learnable scalars."""

    score_fn: ScoreFunction
    dims: tuple[int, ...]
    num_entities: int
    num_relations: int
    tables: dict[str, np.ndarray]
    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0

    def __post_init__(self):
        self.dims = check_schedule(self.dims)
        expected = table_rows(self.score_fn, self.num_entities, self.num_relations)
        if set(self.tables) != set(expected):
            raise ValueError(f"tables {sorted(self.tables)} do not match layout {sorted(expected)}")
        for name, rows in expected.items():
            if self.tables[name].shape != (rows, self.dim):
                raise ValueError(
                    f"table {name!r} has shape {self.tables[name].shape}, expected {(rows, self.dim)}"
                )

    @property
    def n(self) -> int:
        """Number of sub-models."""
        return len(self.dims)

    @property
    def dim(self) -> int:
        """Full table width d_n."""
        return self.dims[-1]

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self.tables.values())).dtype

    def width(self, i: int) -> int:
        """d_i, the width of sub-model i; indices run from 1 to n."""
        if not (isinstance(i, (int, np.integer)) and 1 <= i <= self.n):
            raise ValueError(f"sub-model index {i} out of range 1..{self.n}")
        return self.dims[i - 1]

    def scalars(self) -> dict[str, float]:
        return {"w1": self.w1, "w2": self.w2, "w3": self.w3}

    def copy(self) -> "CroppableModel":
        return replace(self, tables={k: v.copy() for k, v in self.tables.items()})


def init_model(
    score_fn: ScoreFunction,
    dims,
    num_entities: int,
    num_relations: int,
    rng: np.random.Generator,
    dtype=np.float32,
    init_range: float | None = None,
) -> CroppableModel:
    """Initialize a croppable model.

    Real-valued tables are uniform in [-b, +b] with b = init_range or
    1/sqrt(d_n); rotate phase tables are uniform in [0, 2*pi). Scalars
    w1 = w2 = w3 = 1. Draw order follows the layout's table order, so a
    fixed seed reproduces the same model.
    """
    dims = check_schedule(dims)
    if num_entities < 1 or num_relations < 1:
        raise ValueError("need at least one entity and one relation")
    width = dims[-1]
    bound = init_range if init_range is not None else 1.0 / np.sqrt(width)
    tables = {}
    for name, rows in table_rows(score_fn, num_entities, num_relations).items():
        if name == "relation_phase":
            tables[name] = rng.uniform(0.0, 2.0 * np.pi, size=(rows, width)).astype(dtype)
        else:
            tables[name] = rng.uniform(-bound, bound, size=(rows, width)).astype(dtype)
    return CroppableModel(
        score_fn=score_fn,
        dims=dims,
        num_entities=num_entities,
        num_relations=num_relations,
        tables=tables,
    )


def crop_model(model: CroppableModel, d: int) -> CroppableModel:
    """Crop to a schedule dimension: new model of width d, schedule <= d."""
    if d not in model.dims:
        raise ValueError(f"dimension {d} not in schedule {model.dims}")
    return with_schedule(model, model.dims[: model.dims.index(d) + 1])


def with_schedule(model: CroppableModel, dims) -> CroppableModel:
    """Copy of the model reinterpreted under a different crop schedule.

    The largest requested dimension must not exceed the table width; the
    tables are truncated to it.
    """
    dims = check_schedule(dims)
    top = dims[-1]
    if top > model.dim:
        raise ValueError(f"schedule top {top} exceeds table width {model.dim}")
    return replace(
        model, dims=dims, tables={k: np.ascontiguousarray(v[:, :top]) for k, v in model.tables.items()}
    )


def reorder_dimensions(model: CroppableModel, importance) -> CroppableModel:
    """Permute every table's columns by descending importance.

    The same permutation is applied to every table, so paired columns
    (rotate's re/im/phase) move together. Stable sort: ties keep their
    original order.
    """
    importance = np.asarray(importance, dtype=np.float64).ravel()
    if importance.shape != (model.dim,):
        raise ValueError(f"importance length {importance.shape[0]} != width {model.dim}")
    if not np.all(np.isfinite(importance)):
        raise ValueError("importance contains non-finite values")
    order = np.argsort(-importance, kind="stable")
    return replace(model, tables={k: np.ascontiguousarray(v[:, order]) for k, v in model.tables.items()})


def param_count(model: CroppableModel, i: int | None = None) -> int:
    """Embedding parameters of sub-model i (default: the full model).

    Counts table cells only; the three scalars are training artifacts and
    excluded.
    """
    d = model.dim if i is None else model.width(i)
    return param_count_for(model.score_fn, model.num_entities, model.num_relations, d)


def param_count_for(score_fn: ScoreFunction, num_entities: int, num_relations: int, d: int) -> int:
    """Parameter count arithmetic without materializing a model."""
    return d * sum(table_rows(score_fn, num_entities, num_relations).values())
