"""Training loop: determinism, early stopping, divergence, lr policy."""
import numpy as np
import pytest

from cropkge.model import ScoreFunction
from cropkge.train import (
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    init_state,
    run_with_lr_policy,
    train_med,
    train_step,
)
from cropkge.data import make_dataset
from cropkge.evaluate import rank_triple

from conftest import rand_dataset


def small_cfg(**over):
    base = dict(
        score_fn=ScoreFunction("transe"),
        dims=(2, 4),
        batch_size=8,
        neg_per_pos=4,
        max_epochs=20,
        lr=1e-2,
        validate_every=10,
        patience=5,
        seed=9,
    )
    base.update(over)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        small_cfg(batch_size=0)
    with pytest.raises(ValueError, match="neg_per_pos"):
        small_cfg(neg_per_pos=0)
    with pytest.raises(ValueError, match="max_epochs"):
        small_cfg(max_epochs=0)
    with pytest.raises(ValueError, match="validate_every"):
        small_cfg(validate_every=0)
    with pytest.raises(ValueError, match="probe_dims"):
        small_cfg(probe_dims=(3,))
    with pytest.raises(ValueError, match="strictly increasing"):
        small_cfg(dims=(4, 2))
    with pytest.raises(ValueError, match="ei_mode 'sigmod'"):
        small_cfg(ei_mode="sigmod", dims=(4,))
    with pytest.raises(ValueError, match="pair_mode 'pairs'"):
        small_cfg(pair_mode="pairs")


def test_resolved_probe_dims():
    assert small_cfg(dims=(8, 16, 32, 64)).resolved_probe_dims() == (8, 16, 64)
    assert small_cfg(dims=(2, 4, 8, 16, 32)).resolved_probe_dims() == (2, 8, 32)
    assert small_cfg(dims=(4,)).resolved_probe_dims() == (4,)
    assert small_cfg(dims=(2, 4)).resolved_probe_dims() == (2, 4)
    assert small_cfg(dims=(8, 16), probe_dims=(16,)).resolved_probe_dims() == (16,)


def test_same_seed_reproduces_bitwise():
    ds = rand_dataset(seed=21)
    a = train_med(ds, small_cfg(max_epochs=12))
    b = train_med(ds, small_cfg(max_epochs=12))
    for name in a.model.tables:
        np.testing.assert_array_equal(a.model.tables[name], b.model.tables[name])
    assert (a.model.w1, a.model.w2, a.model.w3) == (b.model.w1, b.model.w2, b.model.w3)
    assert a.log == b.log
    assert (a.epochs_run, a.best_epoch, a.best_probe_mrr) == (
        b.epochs_run, b.best_epoch, b.best_probe_mrr)


def test_different_seed_differs():
    ds = rand_dataset(seed=21)
    a = train_med(ds, small_cfg(seed=1, max_epochs=5))
    b = train_med(ds, small_cfg(seed=2, max_epochs=5))
    assert any(
        not np.array_equal(a.model.tables[n], b.model.tables[n]) for n in a.model.tables
    )


def test_memorizes_tiny_graph():
    # chain under r0 plus a jump-back r1 edge; exactly representable, so
    # enough steps should rank every gold triple first on both sides
    triples = np.array([[0, 0, 1], [1, 0, 2], [2, 1, 0]])
    ds = make_dataset(triples, np.array([[1, 1, 0]]), np.array([[0, 1, 2]]))
    cfg = small_cfg(dims=(2, 4), batch_size=4, neg_per_pos=2,
                    max_epochs=300, lr=5e-2, validate_every=100, patience=3, seed=3)
    res = train_med(ds, cfg)
    ranks = []
    for t in triples:
        ranks.append(rank_triple(res.model, res.model.n, t, ds, side="tail"))
        ranks.append(rank_triple(res.model, res.model.n, t, ds, side="head"))
    assert ranks == [1.0] * len(ranks)


def test_zero_lr_stops_early_with_first_snapshot():
    ds = rand_dataset(seed=22)
    cfg = small_cfg(lr=0.0, max_epochs=500, validate_every=10, patience=5)
    res = train_med(ds, cfg)
    # probe MRR never improves after the first check (strict > comparison)
    assert res.best_epoch == 10
    assert res.stopped_early
    assert res.epochs_run == 60  # first check + patience more checks
    vals = [rec["mean_probe_mrr"] for rec in res.log if "mean_probe_mrr" in rec]
    assert len(vals) == 6
    assert all(v == vals[0] for v in vals)


def test_best_snapshot_is_restored():
    from cropkge.evaluate import link_prediction

    ds = rand_dataset(seed=23)
    cfg = small_cfg(max_epochs=200, validate_every=10, patience=3, seed=5, lr=5e-2)
    res = train_med(ds, cfg)
    vals = [r["mean_probe_mrr"] for r in res.log if "mean_probe_mrr" in r]
    assert res.stopped_early
    assert res.best_probe_mrr == max(vals)
    assert res.best_epoch == 10 * (vals.index(max(vals)) + 1)  # first maximum
    # the run degraded after its best check, so a restored snapshot is
    # distinguishable from the final state by recomputing the probes
    assert vals[-1] < res.best_probe_mrr
    probe_indices = [cfg.dims.index(d) + 1 for d in cfg.resolved_probe_dims()]
    recomputed = float(np.mean([
        link_prediction(res.model, idx, ds, split="valid", threads=1).mrr
        for idx in probe_indices
    ]))
    assert recomputed == pytest.approx(res.best_probe_mrr, rel=1e-12)


def test_submodel_index_frequencies_and_rng_order():
    from cropkge.data import sample_negatives

    ds = rand_dataset(seed=24, n_train=64)
    cfg = small_cfg(dims=(2, 3, 4), batch_size=64, max_epochs=1, neg_per_pos=2)
    state = init_state(ds, cfg, lr=1e-3)
    batch = ds.train[:4]
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(3000):
        before = state.rng.bit_generator.state
        train_step(state, batch)
        after = state.rng.bit_generator.state
        # replay the documented draw order: negatives first, then the index
        probe = np.random.default_rng()
        probe.bit_generator.state = before
        sample_negatives(batch, cfg.neg_per_pos, ds.num_entities, probe)
        idx = int(probe.integers(1, 4))
        counts[idx] += 1
        assert probe.bit_generator.state == after
    total = sum(counts.values())
    for idx in counts:
        assert abs(counts[idx] / total - 1 / 3) < 0.05


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_aborts_with_batch_attached():
    ds = rand_dataset(seed=25)
    cfg = small_cfg()
    state = init_state(ds, cfg, lr=1e-2)
    state.model.tables["entity"][0, 0] = np.inf
    with pytest.raises(TrainingDiverged) as exc:
        for _ in range(50):
            train_step(state, ds.train[:8])
    assert exc.value.batch.shape[1] == 3
    assert "non-finite" in str(exc.value)


def test_lr_policy_explicit_skips_search():
    ds = rand_dataset(seed=26)
    calls = []

    def run(lr):
        calls.append(lr)
        return TrainResult(model=None, log=[], lr=lr, epochs_run=1,
                           stopped_early=False, best_probe_mrr=0.5,
                           best_epoch=1, clamped=0)

    cfg = small_cfg(lr=3e-3)
    res = run_with_lr_policy(ds, cfg, run)
    assert calls == [3e-3]
    assert res.lr_search is None


def test_lr_policy_search_first_wins_ties():
    ds = rand_dataset(seed=27)
    scores = {1e-4: 0.3, 5e-4: 0.7, 1e-3: 0.7, 1e-2: 0.1}

    def run(lr):
        return TrainResult(model=None, log=[], lr=lr, epochs_run=1,
                           stopped_early=False, best_probe_mrr=scores[lr],
                           best_epoch=1, clamped=0)

    res = run_with_lr_policy(ds, small_cfg(lr=None), run)
    assert res.lr == 5e-4  # ties broken by candidate order
    assert res.lr_search == scores


def test_lr_policy_requires_validation():
    triples = np.array([[0, 0, 1], [1, 0, 2]])
    no_valid = make_dataset(triples[:1], triples[:0], triples[1:])

    def run(lr):
        raise AssertionError("search must fail before training")

    with pytest.raises(ValueError, match="validation split"):
        run_with_lr_policy(no_valid, small_cfg(lr=None), run)

    ds = rand_dataset(seed=28)

    def run_no_probe(lr):
        return TrainResult(model=None, log=[], lr=lr, epochs_run=1,
                           stopped_early=False, best_probe_mrr=None,
                           best_epoch=None, clamped=0)

    with pytest.raises(ValueError, match="validation epochs"):
        run_with_lr_policy(ds, small_cfg(lr=None), run_no_probe)


def test_empty_train_split_rejected():
    triples = np.array([[0, 0, 1], [1, 0, 2]])
    ds = make_dataset(triples[:0], triples[:1], triples[1:])
    with pytest.raises(ValueError, match="empty training split"):
        train_med(ds, small_cfg())


def test_log_records_have_expected_shape():
    ds = rand_dataset(seed=29)
    res = train_med(ds, small_cfg(max_epochs=10, validate_every=5))
    assert res.epochs_run == 10
    plain = [r for r in res.log if "mean_probe_mrr" not in r]
    probed = [r for r in res.log if "mean_probe_mrr" in r]
    assert len(probed) == 2
    rec = res.log[0]
    assert set(rec) >= {"epoch", "lr", "loss", "scalars"}
    assert set(rec["loss"]) >= {"total", "ei", "lambda", "ml"}
    assert set(rec["scalars"]) == {"w1", "w2", "w3"}
    # probe dims for a 2-dim schedule are both dims
    assert set(probed[0]["probe_mrr"]) == {"2", "4"}
