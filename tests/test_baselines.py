"""Fixed-dim training, extraction with importance, score distillation."""
import numpy as np
import pytest

from cropkge.baselines import (
    ImportanceVector,
    bkd_loss,
    distill_bkd,
    ext_crop,
    importance_by_loss,
    importance_by_value,
    read_importance,
    train_dt,
    write_importance,
)
from cropkge.checkpoint import save_checkpoint
from cropkge.data import make_dataset, sample_negatives
from cropkge.losses import kge_loss
from cropkge.model import ScoreFunction, reorder_dimensions
from cropkge.scoring import batch_score
from cropkge.train import TrainConfig, train_med

from conftest import dense_grads, rand_batch, rand_dataset, rand_model


def cfg_for(dims, **over):
    base = dict(
        score_fn=ScoreFunction("transe"),
        dims=dims,
        batch_size=8,
        neg_per_pos=4,
        max_epochs=8,
        lr=1e-2,
        validate_every=5,
        patience=3,
        seed=11,
    )
    base.update(over)
    return TrainConfig(**base)


def ckpt_bytes(model, tmp_path, tag):
    path = tmp_path / f"{tag}.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes()


def test_dt_is_single_dim_fully_ablated_med(tmp_path):
    ds = rand_dataset(seed=41)
    dt = train_dt(ds, 4, cfg_for((2, 4)))
    med = train_med(ds, cfg_for((4,), no_mlm=True, no_eim=True, no_dlw=True))
    assert ckpt_bytes(dt.model, tmp_path, "dt") == ckpt_bytes(med.model, tmp_path, "med")
    assert dt.model.dims == (4,)


def test_importance_by_value_oracle():
    m = rand_model("transe", dims=(2, 4), seed=42)
    got = importance_by_value(m)
    stacked = np.concatenate(
        [m.tables["entity"].astype(np.float64), m.tables["relation"].astype(np.float64)]
    )
    np.testing.assert_allclose(got.scores, np.abs(stacked).mean(axis=0), rtol=1e-12)
    assert got.method == "value"
    assert got.scores.shape == (4,)


def test_importance_by_loss_matches_inline_recomputation():
    ds = rand_dataset(seed=43)
    m = rand_model("transe", dims=(2, 4), num_entities=ds.num_entities,
                   num_relations=ds.num_relations, seed=43)
    got = importance_by_loss(m, ds)
    assert got.method == "loss"
    ones = np.ones(len(ds.valid), dtype=np.int64)
    base = kge_loss(batch_score(m, m.n, ds.valid), ones)
    for j in range(m.dim):
        probe = m.copy()
        for t in probe.tables.values():
            t[:, j] = 0
        want = kge_loss(batch_score(probe, probe.n, ds.valid), ones) - base
        assert got.scores[j] == pytest.approx(want, rel=1e-12)
    # the probe must not mutate the input model
    m2 = rand_model("transe", dims=(2, 4), num_entities=ds.num_entities,
                    num_relations=ds.num_relations, seed=43)
    for name in m.tables:
        np.testing.assert_array_equal(m.tables[name], m2.tables[name])


def test_importance_by_loss_needs_validation():
    tr = np.array([[0, 0, 1], [1, 0, 2]])
    ds = make_dataset(tr, tr[:0], tr[:0])
    m = rand_model("transe", num_entities=3, num_relations=1)
    with pytest.raises(ValueError, match="validation"):
        importance_by_loss(m, ds)


def test_importance_tsv_roundtrip(tmp_path):
    vec = ImportanceVector(scores=np.array([0.25, -1.5, 3.0e-17, 2.0]), method="loss")
    path = tmp_path / "imp.tsv"
    write_importance(vec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# method: loss"
    assert lines[1].split("\t") == ["0", "0.25"]
    back = read_importance(path)
    np.testing.assert_array_equal(back.scores, vec.scores)  # repr() round-trips
    assert back.method == "loss"


def test_ext_crop_plain_truncation():
    m = rand_model("simple", dims=(2, 4), seed=44)
    for d in (1, 2, 3, 4):
        sub = ext_crop(m, d)
        for name in m.tables:
            np.testing.assert_array_equal(sub.tables[name], m.tables[name][:, :d])
        assert sub.dim == d
    assert ext_crop(m, 3).dims == (2, 3)
    assert ext_crop(m, 2).dims == (2,)
    with pytest.raises(ValueError, match="out of range"):
        ext_crop(m, 0)
    with pytest.raises(ValueError, match="out of range"):
        ext_crop(m, 5)


def test_ext_crop_with_importance_reorders_first():
    m = rand_model("pairre", dims=(2, 4), seed=45)
    vec = ImportanceVector(scores=np.array([0.1, 3.0, 0.2, 1.5]), method="value")
    sub = ext_crop(m, 2, importance=vec)
    manual = reorder_dimensions(m, vec.scores)
    for name in m.tables:
        np.testing.assert_array_equal(sub.tables[name], manual.tables[name][:, :2])
    # best two columns by importance are original columns 1 and 3 in order
    np.testing.assert_array_equal(sub.tables["entity"],
                                  m.tables["entity"][:, [1, 3]])


def test_bkd_loss_value_oracle(rng):
    student = rand_model("transe", dims=(2,), seed=46)
    teacher = rand_model("transe", dims=(2, 4), seed=47)
    pos, neg = rand_batch(rng, student, batch=5, k=3)
    T, alpha = 2.0, 0.3
    breakdown, _ = bkd_loss(student, teacher, pos, neg, temperature=T, alpha=alpha)
    nh, nr, nt = neg.flat()
    negs = np.stack([nh, nr, nt], axis=1)
    s_pos = batch_score(student, student.n, pos)
    s_neg = batch_score(student, student.n, negs).reshape(5, 3)
    t_pos = batch_score(teacher, teacher.n, pos)
    t_neg = batch_score(teacher, teacher.n, negs).reshape(5, 3)
    bce = float(np.mean(np.log1p(np.exp(-s_pos))) + np.mean(np.log1p(np.exp(s_neg))))

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    p = softmax(np.column_stack([t_pos, t_neg]) / T)
    q = softmax(np.column_stack([s_pos, s_neg]) / T)
    kl = float(np.mean(np.sum(p * np.log(p / q), axis=1)))
    assert kl >= 0.0
    assert breakdown.kl == pytest.approx(kl, rel=1e-12)
    assert breakdown.ei[student.n] == pytest.approx(bce, rel=1e-12)
    assert breakdown.total == pytest.approx(alpha * bce + (1 - alpha) * T * T * kl,
                                            rel=1e-12)


def test_bkd_alpha_one_is_plain_bce(rng):
    student = rand_model("transe", dims=(3,), seed=48)
    teacher = rand_model("transe", dims=(3,), seed=49)
    pos, neg = rand_batch(rng, student, batch=4, k=2)
    breakdown, _ = bkd_loss(student, teacher, pos, neg, alpha=1.0)
    nh, nr, nt = neg.flat()
    scores = np.concatenate([batch_score(student, 1, pos),
                             batch_score(student, 1, np.stack([nh, nr, nt], axis=1))])
    labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                             np.zeros(len(nh), dtype=np.int64)])
    assert breakdown.total == kge_loss(scores, labels)  # bitwise


def test_bkd_student_grads_vs_fd(rng):
    student = rand_model("transe", dims=(2,), num_entities=5, num_relations=2,
                         seed=50, init_range=0.6)
    teacher = rand_model("transe", dims=(4,), num_entities=5, num_relations=2,
                         seed=51, init_range=0.6)
    pos, neg = rand_batch(rng, student, batch=4, k=2)
    T, alpha = 1.5, 0.4
    _, buf = bkd_loss(student, teacher, pos, neg, temperature=T, alpha=alpha)
    dense = dense_grads(buf, {n: t.shape for n, t in student.tables.items()})
    h = 1e-6
    for name, table in student.tables.items():
        for idx in np.ndindex(table.shape):
            saved = table[idx]
            table[idx] = saved + h
            up, _ = bkd_loss(student, teacher, pos, neg, temperature=T, alpha=alpha)
            table[idx] = saved - h
            down, _ = bkd_loss(student, teacher, pos, neg, temperature=T, alpha=alpha)
            table[idx] = saved
            fd = (up.total - down.total) / (2 * h)
            assert dense[name][idx] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_bkd_identical_models_have_zero_kl(rng):
    m = rand_model("transe", dims=(2, 4), seed=52)
    pos, neg = rand_batch(rng, m, batch=4, k=3)
    breakdown, _ = bkd_loss(m, m, pos, neg, temperature=1.0, alpha=0.5)
    assert breakdown.kl == pytest.approx(0.0, abs=1e-12)


def test_distill_bkd_runs_and_guards():
    ds = rand_dataset(seed=53)
    teacher_res = train_dt(ds, 4, cfg_for((4,), max_epochs=12))
    student = distill_bkd(teacher_res.model, ds, 2, cfg_for((4,), max_epochs=6))
    assert student.model.dims == (2,)
    assert student.model.score_fn.kind == "transe"
    # the distillation log carries the KL component
    assert any(rec["loss"].get("kl") is not None for rec in student.log)
    with pytest.raises(ValueError, match="out of range"):
        distill_bkd(teacher_res.model, ds, 9, cfg_for((4,)))
    with pytest.raises(ValueError, match="out of range"):
        distill_bkd(teacher_res.model, ds, 0, cfg_for((4,)))
