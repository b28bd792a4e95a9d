"""Loss values against hand oracles; gradients against finite differences."""
import numpy as np
import pytest

from cropkge import losses
from cropkge.data import sample_negatives
from cropkge.losses import (
    GradBuffer,
    LossBreakdown,
    ei_loss,
    ei_weights_neg,
    ei_weights_pos,
    huber,
    huber_grad,
    kge_loss,
    mutual_learning_loss,
    segment_sum,
    sigmoid,
    softplus,
    total_loss,
)
from cropkge.model import NORMS, SCORE_KINDS
from cropkge.scoring import batch_score

from conftest import rand_batch, rand_model


def shapes_of(model):
    return {name: t.shape for name, t in model.tables.items()}


def table_fd(model, value_fn, h=1e-6):
    """Central finite differences of value_fn() over every table entry."""
    grads = {}
    for name, table in model.tables.items():
        g = np.zeros(table.shape, dtype=np.float64)
        for idx in np.ndindex(table.shape):
            saved = table[idx]
            table[idx] = saved + h
            up = value_fn()
            table[idx] = saved - h
            down = value_fn()
            table[idx] = saved
            g[idx] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def test_softplus_values_and_stability():
    assert softplus(0.0) == pytest.approx(np.log(2.0), rel=1e-15)
    assert softplus(-20.0) == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-13)
    assert softplus(-20.0) == pytest.approx(2.0611536e-9, rel=1e-6)
    assert softplus(1000.0) == 1000.0
    assert softplus(-1000.0) == 0.0
    np.testing.assert_allclose(softplus(np.array([-2.0, 3.0])),
                               np.log1p(np.exp(np.array([-2.0, 3.0]))), rtol=1e-13)


def test_sigmoid_values_and_stability():
    xs = np.array([-5.0, -0.5, 0.0, 0.5, 5.0])
    np.testing.assert_allclose(sigmoid(xs), 1.0 / (1.0 + np.exp(-xs)), rtol=1e-14)
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0


def test_huber_values_and_grad():
    assert huber(0.5) == pytest.approx(0.125)
    assert huber(1.0) == pytest.approx(0.5)
    assert huber(2.0) == pytest.approx(1.5)
    assert huber(-3.0) == pytest.approx(2.5)
    assert huber(3.0, delta=2.0) == pytest.approx(2.0 * (3.0 - 1.0))
    np.testing.assert_allclose(huber_grad(np.array([-3.0, -0.4, 0.0, 0.4, 3.0])),
                               [-1.0, -0.4, 0.0, 0.4, 1.0])
    # value continuous at the knee
    assert huber(1.0 - 1e-9) == pytest.approx(huber(1.0 + 1e-9), abs=1e-8)


def test_kge_loss_per_class_mean_oracle(rng):
    scores = rng.normal(0.0, 2.0, size=12)
    labels = (rng.random(12) < 0.5).astype(np.int64)
    labels[:2] = [1, 0]  # both classes present
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    want = np.mean(np.log1p(np.exp(-pos))) + np.mean(np.log1p(np.exp(neg)))
    assert kge_loss(scores, labels) == pytest.approx(want, rel=1e-12)


def test_kge_loss_single_class_and_validation():
    only_pos = kge_loss(np.array([0.0, 0.0]), np.array([1, 1]))
    assert only_pos == pytest.approx(np.log(2.0), rel=1e-14)
    with pytest.raises(ValueError, match="same length"):
        kge_loss(np.zeros(3), np.zeros(2))


def test_ei_weights_match_hand_example():
    s = np.array([0.0, 2.0])
    pos = ei_weights_pos(s, 1.0, i=2)
    neg = ei_weights_neg(s, 1.0, i=2)
    np.testing.assert_allclose(pos, [0.7037, 0.2963], atol=1e-4)
    np.testing.assert_allclose(neg, [0.4059, 0.5941], atol=1e-4)
    # independent recompute: softmax of w/sigma(s) and of w*sigma(s)
    g = 1.0 / (1.0 + np.exp(-s))
    ep = np.exp(1.0 / g)
    en = np.exp(g)
    np.testing.assert_allclose(pos, ep / ep.sum(), rtol=1e-12)
    np.testing.assert_allclose(neg, en / en.sum(), rtol=1e-12)


def test_ei_weights_uniform_at_first_index():
    s = np.array([3.0, -1.0, 0.5])
    np.testing.assert_array_equal(ei_weights_pos(s, 2.0, i=1), np.full(3, 1 / 3))
    np.testing.assert_array_equal(ei_weights_neg(s, 2.0, i=1), np.full(3, 1 / 3))


def test_ei_weights_properties(rng):
    for _ in range(50):
        s = rng.uniform(-5.0, 5.0, size=rng.integers(2, 30))
        w1 = float(rng.uniform(0.1, 3.0))
        w2 = float(rng.uniform(0.1, 3.0))
        pos = ei_weights_pos(s, w1, i=3)
        neg = ei_weights_neg(s, w2, i=3)
        for w in (pos, neg):
            assert np.all(w > 0)
            assert abs(w.sum() - 1.0) <= 1e-9
        order = np.argsort(s)
        # higher teacher score -> lower positive weight, higher negative weight
        assert np.all(np.diff(pos[order]) <= 1e-12)
        assert np.all(np.diff(neg[order]) >= -1e-12)


def test_ei_weights_raw_mode_clamps():
    s = np.array([0.0, 1e-9, -1e-9, 0.5])
    w = ei_weights_pos(s, 1.0, i=2, mode="raw")
    assert np.all(np.isfinite(w))
    g = np.where(np.abs(s) < 1e-6, np.where(s < 0, -1e-6, 1e-6), s)
    e = np.exp((1.0 / g) - (1.0 / g).max())
    np.testing.assert_allclose(w, e / e.sum(), rtol=1e-10)
    with pytest.raises(ValueError, match="mode"):
        ei_weights_pos(s, 1.0, i=2, mode="linear")


def test_ei_loss_value_oracle(rng):
    m = rand_model("transe", dims=(2, 4), seed=50)
    pos, neg = rand_batch(rng, m, batch=6, k=3)
    nh, nr, nt = neg.flat()
    negs = np.stack([nh, nr, nt], axis=1)
    for i in (1, 2):
        value, _ = ei_loss(m, i, pos, neg)
        s_pos = batch_score(m, i, pos)
        s_neg = batch_score(m, i, negs)
        if i == 1:
            wp = np.full(len(s_pos), 1.0 / len(s_pos))
            wn = np.full(len(s_neg), 1.0 / len(s_neg))
        else:
            wp = ei_weights_pos(batch_score(m, i - 1, pos), m.w1, i)
            wn = ei_weights_neg(batch_score(m, i - 1, negs), m.w2, i)
        want = float(np.sum(wp * softplus(-s_pos)) + np.sum(wn * softplus(s_neg)))
        assert value == pytest.approx(want, rel=1e-12)


def test_ei_loss_at_index_one_is_kge_loss_bitwise(rng):
    m = rand_model("simple", dims=(3, 5), seed=51)
    pos, neg = rand_batch(rng, m, batch=5, k=4)
    nh, nr, nt = neg.flat()
    value, _ = ei_loss(m, 1, pos, neg)
    scores = np.concatenate([batch_score(m, 1, pos),
                             batch_score(m, 1, np.stack([nh, nr, nt], axis=1))])
    labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                             np.zeros(len(nh), dtype=np.int64)])
    assert value == kge_loss(scores, labels)  # bitwise


def test_force_uniform_matches_index_one_weighting(rng):
    m = rand_model("pairre", dims=(2, 4), seed=52)
    pos, neg = rand_batch(rng, m, batch=4, k=2)
    forced, _ = ei_loss(m, 2, pos, neg, force_uniform=True)
    s_pos = batch_score(m, 2, pos)
    nh, nr, nt = neg.flat()
    s_neg = batch_score(m, 2, np.stack([nh, nr, nt], axis=1))
    labels = np.concatenate([np.ones(len(s_pos), dtype=np.int64),
                             np.zeros(len(s_neg), dtype=np.int64)])
    assert forced == kge_loss(np.concatenate([s_pos, s_neg]), labels)


@pytest.mark.parametrize("kind", ["transe", "simple", "rotate", "pairre"])
def test_ei_loss_embedding_grads_vs_frozen_weight_fd(kind, rng):
    m = rand_model(kind, dims=(2, 3), num_entities=5, num_relations=2,
                   seed=60, init_range=0.6)
    pos, neg = rand_batch(rng, m, batch=4, k=2)
    nh, nr, nt = neg.flat()
    negs = np.stack([nh, nr, nt], axis=1)
    i = 2
    # teacher weights captured once; the loss treats them as constants
    wp = ei_weights_pos(batch_score(m, i - 1, pos), m.w1, i)
    wn = ei_weights_neg(batch_score(m, i - 1, negs), m.w2, i)

    def frozen_value():
        s_pos = batch_score(m, i, pos)
        s_neg = batch_score(m, i, negs)
        return float(np.sum(wp * softplus(-s_pos)) + np.sum(wn * softplus(s_neg)))

    _, buf = ei_loss(m, i, pos, neg)
    analytic = buf.dense(shapes_of(m))
    fd = table_fd(m, frozen_value)
    for name in m.tables:
        np.testing.assert_allclose(analytic[name], fd[name], rtol=2e-5, atol=1e-8)


def test_ei_loss_scalar_grads_vs_fd(rng):
    m = rand_model("transe", dims=(2, 4), seed=61)
    pos, neg = rand_batch(rng, m, batch=5, k=3)
    _, buf = ei_loss(m, 2, pos, neg)
    h = 1e-6
    for name in ("w1", "w2"):
        saved = getattr(m, name)
        setattr(m, name, saved + h)
        up, _ = ei_loss(m, 2, pos, neg)
        setattr(m, name, saved - h)
        down, _ = ei_loss(m, 2, pos, neg)
        setattr(m, name, saved)
        fd = (up - down) / (2.0 * h)
        assert buf.w[name] == pytest.approx(fd, rel=1e-6, abs=1e-10)
    assert buf.w["w3"] == 0.0


def test_mutual_learning_value_and_grads(rng):
    m = rand_model("transe", dims=(2, 4), seed=62, init_range=0.7)
    pos, neg = rand_batch(rng, m, batch=3, k=2)
    nh, nr, nt = neg.flat()
    both = np.concatenate([pos, np.stack([nh, nr, nt], axis=1)])
    value, buf = mutual_learning_loss(m, 2, pos, neg)
    resid = batch_score(m, 1, both) - batch_score(m, 2, both)
    assert value == pytest.approx(float(np.mean(huber(resid))), rel=1e-12)

    def true_value():
        r = batch_score(m, 1, both) - batch_score(m, 2, both)
        return float(np.mean(huber(r)))

    analytic = buf.dense(shapes_of(m))
    fd = table_fd(m, true_value)
    for name in m.tables:
        np.testing.assert_allclose(analytic[name], fd[name], rtol=2e-5, atol=1e-8)
    with pytest.raises(ValueError, match="i >= 2"):
        mutual_learning_loss(m, 1, pos, neg)


def test_mutual_learning_huber_saturates_both_sides(rng):
    # push scores far apart so some residuals hit the linear region
    m = rand_model("transe", dims=(1, 8), seed=63, init_range=1.5)
    pos, neg = rand_batch(rng, m, batch=6, k=2)
    value, _ = mutual_learning_loss(m, 2, pos, neg)
    nh, nr, nt = neg.flat()
    both = np.concatenate([pos, np.stack([nh, nr, nt], axis=1)])
    resid = batch_score(m, 1, both) - batch_score(m, 2, both)
    assert np.abs(resid).max() > 1.0  # exercise the linear branch
    assert value == pytest.approx(float(np.mean(huber(resid))), rel=1e-12)


def test_total_loss_fully_ablated_is_plain_bce_bitwise(rng):
    m = rand_model("rotate", dims=(2, 3, 5), seed=64)
    pos, neg = rand_batch(rng, m, batch=4, k=3)
    nh, nr, nt = neg.flat()
    for index in (1, 2, 3):
        breakdown, _ = total_loss(m, index, pos, neg,
                                  no_mlm=True, no_eim=True, no_dlw=True)
        scores = np.concatenate([batch_score(m, index, pos),
                                 batch_score(m, index, np.stack([nh, nr, nt], axis=1))])
        labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                                 np.zeros(len(nh), dtype=np.int64)])
        assert breakdown.total == kge_loss(scores, labels)  # bitwise
        assert breakdown.lambdas[index] == 1.0
        assert breakdown.ml is None


def test_total_loss_lambda_values_and_w3_grad(rng):
    m = rand_model("transe", dims=(2, 4, 8), seed=65)
    m.w3 = 0.7
    pos, neg = rand_batch(rng, m, batch=4, k=2)
    index = 2
    breakdown, buf = total_loss(m, index, pos, neg)
    assert breakdown.lambdas[index] == pytest.approx(np.exp(0.7 * 4 / 8), rel=1e-14)
    h = 1e-6
    m.w3 = 0.7 + h
    up, _ = total_loss(m, index, pos, neg)
    m.w3 = 0.7 - h
    down, _ = total_loss(m, index, pos, neg)
    m.w3 = 0.7
    fd = (up.total - down.total) / (2.0 * h)
    assert buf.w["w3"] == pytest.approx(fd, rel=1e-6)


def test_total_loss_composition(rng):
    m = rand_model("transe", dims=(2, 4), seed=66)
    pos, neg = rand_batch(rng, m, batch=5, k=2)
    breakdown, buf = total_loss(m, 2, pos, neg)
    ei_value, ei_buf = ei_loss(m, 2, pos, neg)
    ml_value, ml_buf = mutual_learning_loss(m, 2, pos, neg)
    lam = breakdown.lambdas[2]
    assert breakdown.total == pytest.approx(lam * ei_value + ml_value, rel=1e-14)
    assert breakdown.ei[2] == ei_value
    assert breakdown.ml == ml_value
    dense = buf.dense(shapes_of(m))
    want = {
        name: lam * ei_buf.dense(shapes_of(m))[name] + ml_buf.dense(shapes_of(m))[name]
        for name in m.tables
    }
    for name in m.tables:
        np.testing.assert_allclose(dense[name], want[name], rtol=1e-12, atol=1e-15)
    # scalar grads: w1/w2 scaled by lambda, w3 from the dynamic weight
    assert buf.w["w1"] == pytest.approx(lam * ei_buf.w["w1"], rel=1e-12)
    assert buf.w["w2"] == pytest.approx(lam * ei_buf.w["w2"], rel=1e-12)


def test_total_loss_pair_mode_adds_previous_index(rng):
    m = rand_model("transe", dims=(2, 4, 6), seed=67)
    pos, neg = rand_batch(rng, m, batch=4, k=2)
    single, _ = total_loss(m, 3, pos, neg, pair_mode="single")
    pair, _ = total_loss(m, 3, pos, neg, pair_mode="pair")
    assert set(single.ei) == {3}
    assert set(pair.ei) == {2, 3}
    extra = pair.lambdas[2] * pair.ei[2]
    assert pair.total == pytest.approx(single.total + extra, rel=1e-12)
    # pair mode at index 1 has no previous sub-model
    first, _ = total_loss(m, 1, pos, neg, pair_mode="pair")
    assert set(first.ei) == {1}
    with pytest.raises(ValueError, match="pair mode"):
        total_loss(m, 1, pos, neg, pair_mode="both")
    with pytest.raises(ValueError, match="out of range"):
        total_loss(m, 9, pos, neg)


def test_no_mlm_drops_mutual_term(rng):
    m = rand_model("transe", dims=(2, 4), seed=68)
    pos, neg = rand_batch(rng, m, batch=4, k=2)
    ab, _ = total_loss(m, 2, pos, neg, no_mlm=True)
    assert ab.ml is None
    full, _ = total_loss(m, 2, pos, neg)
    assert full.ml is not None
    assert ab.total == pytest.approx(full.total - full.ml, rel=1e-12)


def test_no_dlw_pins_lambda_and_freezes_w3(rng):
    m = rand_model("transe", dims=(2, 4), seed=69)
    m.w3 = 2.5
    pos, neg = rand_batch(rng, m, batch=4, k=2)
    breakdown, buf = total_loss(m, 2, pos, neg, no_dlw=True)
    assert breakdown.lambdas[2] == 1.0
    assert buf.w["w3"] == 0.0


def test_gradbuffer_finalized_accumulates_by_row():
    buf = GradBuffer()
    buf.add("entity", np.array([2, 0, 2]), np.array([[1.0, 1.0], [2.0, 2.0], [10.0, 10.0]]))
    buf.add("entity", np.array([0]), np.array([[0.5, -0.5]]))
    ids, acc = buf.finalized()["entity"]
    np.testing.assert_array_equal(ids, [0, 2])
    np.testing.assert_allclose(acc, [[2.5, 1.5], [11.0, 11.0]])


def test_gradbuffer_pads_widths_and_merges():
    buf = GradBuffer()
    buf.add("entity", np.array([1]), np.array([[1.0]]))  # width-1 contribution
    buf.add("entity", np.array([1]), np.array([[2.0, 3.0]]))
    ids, acc = buf.finalized()["entity"]
    np.testing.assert_allclose(acc, [[3.0, 3.0]])

    buf.add("entity", np.array([0]), np.array([[4.0, 4.0]]))
    dense = buf.dense({"entity": (3, 2)})
    np.testing.assert_allclose(dense["entity"], [[4.0, 4.0], [3.0, 3.0], [0.0, 0.0]])


def test_loss_breakdown_finite_flags_nan():
    ok = LossBreakdown(index=1, total=1.0, ei={1: 1.0}, ml=0.5, lambdas={1: 1.0})
    assert ok.finite()
    bad = LossBreakdown(index=1, total=float("nan"), ei={1: 1.0}, ml=None, lambdas={1: 1.0})
    assert not bad.finite()
    bad_kl = LossBreakdown(index=1, total=1.0, ei={1: 1.0}, ml=None,
                           lambdas={1: 1.0}, kl=float("inf"))
    assert not bad_kl.finite()


def test_ei_loss_raw_mode_counts_clamped(rng):
    m = rand_model("transe", dims=(1, 2), num_entities=4, num_relations=2, seed=70)
    # zero tables -> all teacher scores are exactly 0 -> every score clamps
    for t in m.tables.values():
        t[:] = 0.0
    pos, neg = rand_batch(rng, m, batch=3, k=2)
    _, buf = ei_loss(m, 2, pos, neg, mode="raw")
    assert buf.clamped == len(pos) + 3 * 2


def reference_total_loss(m, index, pos, neg, no_mlm, no_eim, no_dlw, ei_mode, pair_mode):
    """total_loss composed from the one-pass-per-term reference losses."""
    shapes = shapes_of(m)
    dense = {name: np.zeros(shape) for name, shape in shapes.items()}
    rows = {name: set() for name in shapes}
    w = {"w1": 0.0, "w2": 0.0, "w3": 0.0}
    ei, lambdas, clamped, total = {}, {}, 0, 0.0
    terms = []
    for idx in [index] + ([index - 1] if pair_mode == "pair" and index >= 2 else []):
        value, buf = ei_loss(m, idx, pos, neg, mode=ei_mode, force_uniform=no_eim)
        ratio = m.dims[idx - 1] / m.dim
        lam = 1.0 if no_dlw else float(np.exp(m.w3 * ratio))
        dlam = 0.0 if no_dlw else ratio * lam
        terms.append((lam, buf))
        w["w1"] += lam * buf.w["w1"]
        w["w2"] += lam * buf.w["w2"]
        w["w3"] += dlam * value
        clamped += buf.clamped
        ei[idx], lambdas[idx] = value, lam
        total += lam * value
    ml = None
    if index >= 2 and not no_mlm:
        ml, buf = mutual_learning_loss(m, index, pos, neg)
        terms.append((1.0, buf))
        total += ml
    for scale, buf in terms:
        for name, (ids, _) in buf.finalized().items():
            rows[name].update(ids.tolist())
        for name, g in buf.dense(shapes).items():
            dense[name] += scale * g
    return LossBreakdown(index=index, total=total, ei=ei, ml=ml, lambdas=lambdas, clamped=clamped), dense, rows, w


ABLATIONS = ({}, {"no_mlm": True}, {"no_eim": True}, {"no_dlw": True})


@pytest.mark.parametrize("ei_mode", ["sigmoid", "raw"])
@pytest.mark.parametrize("ablation", ABLATIONS, ids=["full", "noMLM", "noEIM", "noDLW"])
@pytest.mark.parametrize("pair_mode", ["single", "pair"])
@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_one_pass_total_loss_matches_reference_terms(kind, norm, pair_mode, ablation, ei_mode):
    rng = np.random.default_rng(500 + SCORE_KINDS.index(kind))
    m = rand_model(kind, dims=(3, 8, 20), num_entities=8, num_relations=3, seed=71, norm=norm)
    m.w1, m.w2, m.w3 = 0.7, 1.3, 0.6
    pos, neg = rand_batch(rng, m, batch=6, k=4)
    # entity rows 0, 1 and relation row 0 are zero, so triple (0, 0, 1)
    # scores exactly 0 at every width and raw mode has something to clamp
    for name, table in m.tables.items():
        table[: 2 if m.rows_of(name) == m.num_entities else 1] = 0.0
    pos[0] = (0, 0, 1)
    flags = {"no_mlm": False, "no_eim": False, "no_dlw": False, **ablation}
    for index in range(1, m.n + 1):
        got, buf = total_loss(m, index, pos, neg, ei_mode=ei_mode, pair_mode=pair_mode, **flags)
        want, dense, rows, w = reference_total_loss(m, index, pos, neg, ei_mode=ei_mode,
                                                    pair_mode=pair_mode, **flags)
        assert got == want  # every breakdown value bitwise
        assert buf.clamped == want.clamped
        if ei_mode == "raw" and index >= 2 and not flags["no_eim"]:
            assert want.clamped > 0
        assert buf.w == w
        finals = buf.finalized()
        assert {name: set(ids.tolist()) for name, (ids, _) in finals.items()} == rows
        got_dense = buf.dense(shapes_of(m))
        for name in m.tables:
            # the summation order differs, so an entry that cancels to well
            # below the table's scale keeps only an absolute agreement
            scale = np.abs(dense[name]).max()
            np.testing.assert_allclose(got_dense[name], dense[name], rtol=1e-12, atol=1e-12 * scale)


def test_total_loss_gathers_once_and_scatters_once_per_table(rng, monkeypatch):
    m = rand_model("rotate", dims=(2, 3, 5), seed=72)
    pos, neg = rand_batch(rng, m, batch=4, k=3)
    calls = []

    def counting_gather(*args, **kwargs):
        calls.append(args[1])
        return gather(*args, **kwargs)

    gather = losses.gather_slots
    monkeypatch.setattr(losses, "gather_slots", counting_gather)
    _, buf = total_loss(m, 3, pos, neg, pair_mode="pair")
    assert calls == [3]
    n = len(pos) * 4
    # one block per slot, each covering the whole batch once
    assert {t: [len(ids) for ids, _ in c] for t, c in buf._contribs.items()} == {
        "entity_re": [n, n], "entity_im": [n, n], "relation_phase": [n]}


def test_segment_sum_matches_add_at_and_repeats_bytes():
    rng = np.random.default_rng(73)
    contribs = [
        (rng.integers(0, 9, size=500), rng.normal(size=(500, 7))),
        (rng.integers(3, 12, size=300), rng.normal(size=(300, 4))),  # narrower block
        (rng.integers(0, 12, size=200), rng.normal(size=(200, 7))),
    ]
    uids, sums = segment_sum(contribs)
    want_ids = np.unique(np.concatenate([ids for ids, _ in contribs]))
    np.testing.assert_array_equal(uids, want_ids)
    ref = np.zeros((12, 7))
    for ids, block in contribs:
        np.add.at(ref[:, : block.shape[1]], ids, block)
    np.testing.assert_allclose(sums, ref[want_ids], rtol=1e-12, atol=1e-12)
    again_ids, again = segment_sum([(ids.copy(), block.copy()) for ids, block in contribs])
    assert again_ids.tobytes() == uids.tobytes()
    assert again.tobytes() == sums.tobytes()
