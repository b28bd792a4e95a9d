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


def check_schedule(dims) -> tuple[int, ...]:
    """Validate a crop schedule: positive ints, strictly increasing."""
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
        expected = dict(LAYOUTS[self.score_fn.kind])
        if set(self.tables) != set(expected):
            raise ValueError(f"tables {sorted(self.tables)} do not match layout {sorted(expected)}")
        for name, domain in expected.items():
            rows = self.num_entities if domain == ENTITY else self.num_relations
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

    def table_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in LAYOUTS[self.score_fn.kind])

    def rows_of(self, name: str) -> int:
        domain = dict(LAYOUTS[self.score_fn.kind])[name]
        return self.num_entities if domain == ENTITY else self.num_relations

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
    for name, domain in LAYOUTS[score_fn.kind]:
        rows = num_entities if domain == ENTITY else num_relations
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


@dataclass
class PrefixView:
    """Read/write view of the first d_i columns of every table.

    The arrays alias the model's storage: writes through the view mutate
    the model.
    """

    index: int
    dim: int
    tables: dict[str, np.ndarray]


def prefix_view(model: CroppableModel, i: int) -> PrefixView:
    """View of sub-model i (1-based index into the schedule)."""
    if not 1 <= i <= model.n:
        raise ValueError(f"sub-model index {i} out of range 1..{model.n}")
    d = model.dims[i - 1]
    return PrefixView(index=i, dim=d, tables={k: v[:, :d] for k, v in model.tables.items()})


def _truncate(model: CroppableModel, d: int) -> CroppableModel:
    """Copy of the model truncated to width d; d joins the schedule if absent."""
    dims = tuple(x for x in model.dims if x < d) + (d,)
    return replace(
        model,
        dims=dims,
        tables={k: np.ascontiguousarray(v[:, :d]) for k, v in model.tables.items()},
    )


def crop_model(model: CroppableModel, d: int) -> CroppableModel:
    """Crop to a schedule dimension: new model of width d, schedule <= d."""
    if d not in model.dims:
        raise ValueError(f"dimension {d} not in schedule {model.dims}")
    return _truncate(model, d)


def with_schedule(model: CroppableModel, dims) -> CroppableModel:
    """Copy of the model reinterpreted under a different crop schedule.

    The largest requested dimension must not exceed the table width; the
    tables are truncated to it.
    """
    dims = check_schedule(dims)
    if dims[-1] > model.dim:
        raise ValueError(f"schedule top {dims[-1]} exceeds table width {model.dim}")
    out = _truncate(model, dims[-1])
    return replace(out, dims=dims)


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
    d = model.dim if i is None else model.dims[i - 1]
    return param_count_for(model.score_fn, model.num_entities, model.num_relations, d)


def param_count_for(score_fn: ScoreFunction, num_entities: int, num_relations: int, d: int) -> int:
    """Parameter count arithmetic without materializing a model."""
    total = 0
    for _, domain in LAYOUTS[score_fn.kind]:
        total += (num_entities if domain == ENTITY else num_relations) * d
    return total
