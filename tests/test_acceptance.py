"""Acceptance suite: one test per criterion, one visible PASS line each.

Criteria 5 and 6 share a session fixture that trains the full comparison
grid (croppable, direct, and the two ablations, three seeds each) on the
bundled synthetic dataset, single-threaded.
"""
import statistics
import time

import numpy as np
import pytest

from cropkge.baselines import train_dt
from cropkge.checkpoint import load_checkpoint, save_checkpoint
from cropkge.cli import main as cli_main
from cropkge.data import Dataset, load_dataset, resolve_dataset
from cropkge.evaluate import arr, link_prediction, rank_triple
from cropkge.losses import (
    ei_loss,
    ei_weights_neg,
    ei_weights_pos,
    huber,
    kge_loss,
    mutual_learning_loss,
    sigmoid,
    softplus,
    total_loss,
)
from cropkge.model import SCORE_KINDS, ScoreFunction, crop_model, with_schedule
from cropkge.scoring import batch_score
from cropkge.train import TrainConfig, train_med

from conftest import CRITERION_LINES, rand_batch, rand_dataset, rand_model

SCHEDULE = (8, 16, 32, 64)
SEEDS = (0, 1, 2)
RUN_BUDGET_SEC = 600.0

ACCEPT_CFG = dict(
    score_fn=ScoreFunction("transe"),
    dims=SCHEDULE,
    batch_size=1024,
    neg_per_pos=32,
    max_epochs=400,
    lr=1e-2,
    init_range=0.25,
    validate_every=20,
    patience=6,
    eval_threads=1,
)


def report_line(criterion: int, detail: str) -> None:
    """One pass/fail line per criterion, printed in the run's summary."""
    CRITERION_LINES.append(f"criterion {criterion}: {detail}")


def rel_err(analytic: float, fd: float) -> float:
    # the floor absorbs finite-difference noise on near-zero gradients:
    # eps/h roundoff (~1e-12) plus h^2 truncation with large third derivs
    scale = max(abs(analytic), abs(fd), 1e-6)
    return abs(analytic - fd) / scale


# -- criterion 1: gradient suite ---------------------------------------------

def fd_tables(model, value_fn, h=1e-4):
    """Central differences plus a smoothness mask per coordinate.

    Where the forward and backward one-sided slopes disagree the value
    function has a kink inside the stencil (L1 norms); those coordinates
    are excluded from the comparison.
    """
    base = value_fn()
    grads, smooth = {}, {}
    for name, table in model.tables.items():
        g = np.zeros(table.shape)
        ok = np.ones(table.shape, dtype=bool)
        for idx in np.ndindex(table.shape):
            saved = table[idx]
            table[idx] = saved + h
            up = value_fn()
            table[idx] = saved - h
            down = value_fn()
            table[idx] = saved
            g[idx] = (up - down) / (2.0 * h)
            fwd = (up - base) / h
            bwd = (base - down) / h
            if abs(fwd - bwd) > 1e-2 * max(abs(fwd), abs(bwd), 1.0):
                ok[idx] = False
        grads[name] = g
        smooth[name] = ok
    return grads, smooth


def fd_scalar(model, name, value_fn, h=1e-4):
    saved = getattr(model, name)
    setattr(model, name, saved + h)
    up = value_fn()
    setattr(model, name, saved - h)
    down = value_fn()
    setattr(model, name, saved)
    return (up - down) / (2.0 * h)


def instance_max_err(trial: int) -> float | None:
    """One randomized gradient instance; None means a skipped L1 kink."""
    rng = np.random.default_rng(5000 + trial)
    kind = SCORE_KINDS[trial % 4]
    norm = "l1" if trial % 8 >= 4 else "l2"
    m = rand_model(kind, dims=(2, 3), num_entities=5, num_relations=2,
                   seed=6000 + trial, norm=norm, init_range=0.8)
    pos, neg = rand_batch(rng, m, batch=3, k=2)
    nh, nr, nt = neg.flat()
    negs = np.stack([nh, nr, nt], axis=1)
    both = np.concatenate([pos, negs])

    resid = batch_score(m, 1, both) - batch_score(m, 2, both)
    if np.min(np.abs(np.abs(resid) - 1.0)) < 1e-2:
        return None  # huber knee: value is C1 there, not C2

    worst = 0.0
    shapes = {n: t.shape for n, t in m.tables.items()}

    # evolutionary-improvement loss: weights are constants of the objective
    for i in (1, 2):
        value, buf = ei_loss(m, i, pos, neg)
        if i == 1:
            wp = np.full(len(pos), 1.0 / len(pos))
            wn = np.full(len(negs), 1.0 / len(negs))
        else:
            wp = ei_weights_pos(batch_score(m, i - 1, pos), m.w1, i)
            wn = ei_weights_neg(batch_score(m, i - 1, negs), m.w2, i)

        def ei_frozen(i=i, wp=wp, wn=wn):
            return float(np.sum(wp * softplus(-batch_score(m, i, pos)))
                         + np.sum(wn * softplus(batch_score(m, i, negs))))

        dense = buf.dense(shapes)
        fd, smooth = fd_tables(m, ei_frozen)
        for nme in shapes:
            for a, f, ok in zip(dense[nme].ravel(), fd[nme].ravel(),
                                smooth[nme].ravel()):
                if ok and (a != 0.0 or abs(f) > 1e-7):
                    worst = max(worst, rel_err(a, f))
        if i == 2:
            def ei_value(i=i):
                return ei_loss(m, i, pos, neg)[0]
            worst = max(worst, rel_err(buf.w["w1"], fd_scalar(m, "w1", ei_value)))
            worst = max(worst, rel_err(buf.w["w2"], fd_scalar(m, "w2", ei_value)))

    # mutual-learning loss: plain joint finite differences
    value, ml_buf = mutual_learning_loss(m, 2, pos, neg)

    def ml_value():
        r = batch_score(m, 1, both) - batch_score(m, 2, both)
        return float(np.mean(huber(r)))

    ml_dense = ml_buf.dense(shapes)
    fd, smooth = fd_tables(m, ml_value)
    for nme in shapes:
        for a, f, ok in zip(ml_dense[nme].ravel(), fd[nme].ravel(),
                            smooth[nme].ravel()):
            if ok and (a != 0.0 or abs(f) > 1e-7):
                worst = max(worst, rel_err(a, f))

    # per-step objective: scalar grads by direct differences, embedding
    # grads against the weighted sum of the term oracles
    breakdown, buf = total_loss(m, 2, pos, neg)

    def tot_value():
        return total_loss(m, 2, pos, neg)[0].total

    worst = max(worst, rel_err(buf.w["w3"], fd_scalar(m, "w3", tot_value)))
    worst = max(worst, rel_err(buf.w["w1"], fd_scalar(m, "w1", tot_value)))
    worst = max(worst, rel_err(buf.w["w2"], fd_scalar(m, "w2", tot_value)))
    lam = breakdown.lambdas[2]
    wp2 = ei_weights_pos(batch_score(m, 1, pos), m.w1, 2)
    wn2 = ei_weights_neg(batch_score(m, 1, negs), m.w2, 2)

    def term_sum(wp=wp2, wn=wn2, lam=lam):
        ei = float(np.sum(wp * softplus(-batch_score(m, 2, pos)))
                   + np.sum(wn * softplus(batch_score(m, 2, negs))))
        return lam * ei + ml_value()

    dense = buf.dense(shapes)
    fd, smooth = fd_tables(m, term_sum)
    for nme in shapes:
        for a, f, ok in zip(dense[nme].ravel(), fd[nme].ravel(),
                            smooth[nme].ravel()):
            if ok and (a != 0.0 or abs(f) > 1e-7):
                worst = max(worst, rel_err(a, f))
    return worst


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    done = 0
    trial = 0
    worst = 0.0
    while done < 100:
        err = instance_max_err(trial)
        trial += 1
        if err is None:
            continue
        worst = max(worst, err)
        done += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report_line(1, f"{'PASS' if ok else 'FAIL'} - gradient suite, 100 instances, "
                   f"max rel err {worst:.3g} (<=1e-4), {elapsed:.1f}s (<60s)")
    assert worst <= 1e-4
    assert elapsed < 60.0


# -- criterion 2: ranking oracle ---------------------------------------------

def test_criterion_2_ranking_oracle():
    t0 = time.monotonic()
    try:
        checked = _run_ranking_oracle()
    except AssertionError as e:
        report_line(2, f"FAIL - ranking oracle mismatch: {e}")
        raise
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    report_line(2, f"{'PASS' if ok else 'FAIL'} - ranking oracle, 20 KGs, "
                   f"{checked} ranks exact incl. ties, {elapsed:.1f}s (<60s)")
    assert elapsed < 60.0


def _run_ranking_oracle() -> int:
    checked = 0
    for kg in range(20):
        rng = np.random.default_rng(7000 + kg)
        num_entities = int(rng.integers(8, 51))
        num_relations = int(rng.integers(2, 5))
        ds = rand_dataset(seed=7100 + kg, num_entities=num_entities,
                          num_relations=num_relations,
                          n_train=max(num_entities + num_relations, 40),
                          n_valid=8, n_test=8)
        kind = SCORE_KINDS[kg % 4]
        m = rand_model(kind, dims=(2, 4), num_entities=num_entities,
                       num_relations=num_relations, seed=kg, init_range=0.5)
        if kg % 5 == 0:
            # quantize hard so score ties actually occur
            for t in m.tables.values():
                t[:] = np.round(t * 2.0) / 2.0
        for i in (1, 2):
            for trip in ds.test:
                h, r, t = (int(x) for x in trip)
                for side in ("head", "tail"):
                    if side == "tail":
                        known = set(ds.filter.tails(h, r).tolist())
                        cands = [c for c in range(num_entities)
                                 if c == t or c not in known]
                        triples = np.array([[h, r, c] for c in cands])
                        gold = cands.index(t)
                    else:
                        known = set(ds.filter.heads(r, t).tolist())
                        cands = [c for c in range(num_entities)
                                 if c == h or c not in known]
                        triples = np.array([[c, r, t] for c in cands])
                        gold = cands.index(h)
                    scores = batch_score(m, i, triples)
                    order = np.sort(scores)[::-1]
                    first = np.searchsorted(-order, -scores[gold], side="left") + 1
                    last = np.searchsorted(-order, -scores[gold], side="right")
                    want = (first + last) / 2.0
                    got = rank_triple(m, i, trip, ds, side=side)
                    assert got == want, (kg, i, trip.tolist(), side)
                    checked += 1
    return checked


# -- criterion 3: crop/checkpoint exactness ----------------------------------

def test_criterion_3_crop_and_checkpoint_exactness(tmp_path):
    rng = np.random.default_rng(31)
    try:
        for kind in SCORE_KINDS:
            m = rand_model(kind, dims=(2, 3, 5), num_entities=7, num_relations=3,
                           seed=800 + SCORE_KINDS.index(kind), dtype=np.float32)
            pos, neg = rand_batch(rng, m, batch=6, k=2)
            nh, nr, nt = neg.flat()
            trips = np.concatenate([pos, np.stack([nh, nr, nt], axis=1)])
            for i, d in enumerate(m.dims, start=1):
                sub = crop_model(m, d)
                np.testing.assert_array_equal(
                    batch_score(sub, sub.n, trips), batch_score(m, i, trips))
            path = tmp_path / f"{kind}.ckpt"
            save_checkpoint(m, path)
            back = load_checkpoint(path)
            for name in m.tables:
                np.testing.assert_array_equal(m.tables[name], back.tables[name])
            assert (m.w1, m.w2, m.w3) == (back.w1, back.w2, back.w3)
            path2 = tmp_path / f"{kind}2.ckpt"
            save_checkpoint(back, path2)
            assert path.read_bytes() == path2.read_bytes()
    except AssertionError as e:
        report_line(3, f"FAIL - crop/checkpoint exactness: {e}")
        raise
    report_line(3, "PASS - crop-score identity and save/load bit-exact, "
                   "all four score functions")


# -- criterion 4: reduction identities ---------------------------------------

def test_criterion_4_reduction_identities(tmp_path):
    try:
        _run_reduction_identities(tmp_path)
    except AssertionError as e:
        report_line(4, f"FAIL - reduction identity broken: {e}")
        raise
    report_line(4, "PASS - i=1 weighting == plain loss bitwise; n=1 croppable "
                   "== direct training bitwise; full ablation == plain loss")


def _run_reduction_identities(tmp_path):
    rng = np.random.default_rng(41)
    # ei at i=1 is exactly the plain loss, bitwise
    for kind in SCORE_KINDS:
        m = rand_model(kind, dims=(2, 4), seed=900 + SCORE_KINDS.index(kind))
        pos, neg = rand_batch(rng, m, batch=5, k=3)
        nh, nr, nt = neg.flat()
        negs = np.stack([nh, nr, nt], axis=1)
        value, _ = ei_loss(m, 1, pos, neg)
        scores = np.concatenate([batch_score(m, 1, pos), batch_score(m, 1, negs)])
        labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                                 np.zeros(len(negs), dtype=np.int64)])
        assert value == kge_loss(scores, labels)
        # fully ablated per-step objective equals the plain loss too
        breakdown, _ = total_loss(m, 2, pos, neg, no_mlm=True, no_eim=True,
                                  no_dlw=True)
        s2 = np.concatenate([batch_score(m, 2, pos), batch_score(m, 2, negs)])
        assert breakdown.total == kge_loss(s2, labels)

    # a one-dim croppable run and a direct run are the same computation
    ds = rand_dataset(seed=44)
    cfg = TrainConfig(score_fn=ScoreFunction("transe"), dims=(4,), batch_size=8,
                      neg_per_pos=4, max_epochs=10, lr=1e-2, validate_every=5,
                      patience=3, seed=13, no_mlm=True, no_eim=True, no_dlw=True)
    med = train_med(ds, cfg)
    dt = train_dt(ds, 4, cfg)
    p1, p2 = tmp_path / "med.ckpt", tmp_path / "dt.ckpt"
    save_checkpoint(med.model, p1)
    save_checkpoint(dt.model, p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- criteria 5 and 6: small-scale comparisons -------------------------------

def _train_grid_entry(ds: Dataset, seed: int, **ablate):
    cfg = TrainConfig(seed=seed, **ACCEPT_CFG, **ablate)
    t0 = time.monotonic()
    res = train_med(ds, cfg)
    wall = time.monotonic() - t0
    assert wall <= RUN_BUDGET_SEC, f"run exceeded budget: {wall:.0f}s"
    return res


@pytest.fixture(scope="session")
def comparison_grid():
    ds = load_dataset(resolve_dataset("synth"))
    grid = {"rows": []}
    for seed in SEEDS:
        t0 = time.monotonic()
        dt_cfg = TrainConfig(seed=seed, **ACCEPT_CFG)
        dt = train_dt(ds, SCHEDULE[-1], dt_cfg)
        wall_dt = time.monotonic() - t0
        assert wall_dt <= RUN_BUDGET_SEC
        med = _train_grid_entry(ds, seed)
        nomlm = _train_grid_entry(ds, seed, no_mlm=True)
        noeim = _train_grid_entry(ds, seed, no_eim=True)
        dt_sched = with_schedule(dt.model, SCHEDULE)
        grid["rows"].append({
            "seed": seed,
            "dt64": link_prediction(dt.model, 1, ds, "test", 1).mrr,
            "ext8": link_prediction(dt_sched, 1, ds, "test", 1).mrr,
            "med8": link_prediction(med.model, 1, ds, "test", 1).mrr,
            "med64": link_prediction(med.model, len(SCHEDULE), ds, "test", 1).mrr,
            "nomlm8": link_prediction(nomlm.model, 1, ds, "test", 1).mrr,
            "noeim64": link_prediction(noeim.model, len(SCHEDULE), ds, "test", 1).mrr,
            "arr_med": arr(med.model, ds, split="test", threads=1).value,
            "arr_ext": arr(dt_sched, ds, split="test", threads=1).value,
        })
    return grid


def _median(grid, key):
    return statistics.median(r[key] for r in grid["rows"])


@pytest.mark.slow
def test_criterion_5_small_scale_med_effect(comparison_grid):
    med8 = _median(comparison_grid, "med8")
    ext8 = _median(comparison_grid, "ext8")
    med64 = _median(comparison_grid, "med64")
    dt64 = _median(comparison_grid, "dt64")
    arr_med = _median(comparison_grid, "arr_med")
    arr_ext = _median(comparison_grid, "arr_ext")
    a = med8 >= 1.10 * ext8
    b = med64 >= 0.95 * dt64
    c = arr_med >= arr_ext
    ok = a and b and c
    report_line(5, f"{'PASS' if ok else 'FAIL'} - medians over 3 seeds: "
                   f"(a) {med8:.4f} vs 1.10x{ext8:.4f}={1.10 * ext8:.4f}; "
                   f"(b) {med64:.4f} vs 0.95x{dt64:.4f}={0.95 * dt64:.4f}; "
                   f"(c) retention {arr_med:.4f} >= {arr_ext:.4f}")
    assert a, f"MRR@8 {med8:.4f} < 1.10 * extracted {ext8:.4f}"
    assert b, f"MRR@64 {med64:.4f} < 0.95 * direct {dt64:.4f}"
    assert c, f"retention {arr_med:.4f} < extracted pipeline {arr_ext:.4f}"


@pytest.mark.slow
def test_criterion_6_ablation_directionality(comparison_grid):
    med8 = _median(comparison_grid, "med8")
    nomlm8 = _median(comparison_grid, "nomlm8")
    med64 = _median(comparison_grid, "med64")
    noeim64 = _median(comparison_grid, "noeim64")
    a = med8 >= nomlm8
    b = med64 >= noeim64
    ok = a and b
    report_line(6, f"{'PASS' if ok else 'FAIL'} - medians over 3 seeds: "
                   f"smallest dim {med8:.4f} >= {nomlm8:.4f} without mutual "
                   f"learning; largest dim {med64:.4f} >= {noeim64:.4f} "
                   f"without weighted loss")
    assert a, f"MRR@8 {med8:.4f} < {nomlm8:.4f} (mutual learning ablated)"
    assert b, f"MRR@64 {med64:.4f} < {noeim64:.4f} (weighted loss ablated)"


# -- criterion 7: determinism ------------------------------------------------

def test_criterion_7_byte_determinism(tmp_path):
    data_dir = str(resolve_dataset("synth"))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli_main(["train", "--dataset", data_dir, "--out", str(out),
                       "--dims", "8,16", "--epochs", "4", "--lr", "0.01",
                       "--batch-size", "256", "--neg-per-pos", "8",
                       "--validate-every", "2", "--patience", "2",
                       "--seed", "5"])
        assert rc == 0
        ev = tmp_path / f"eval_{tag}"
        rc = cli_main(["eval", "--checkpoint", str(out / "model.ckpt"),
                       "--dataset", data_dir, "--out", str(ev),
                       "--threads", "1", "--arr"])
        assert rc == 0
        outs.append((out, ev))
    (out_a, ev_a), (out_b, ev_b) = outs
    same_ckpt = (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    same_log = (out_a / "train_log.jsonl").read_bytes() == (out_b / "train_log.jsonl").read_bytes()
    same_csv = (ev_a / "report.csv").read_bytes() == (ev_b / "report.csv").read_bytes()
    same_json = (ev_a / "report.json").read_bytes() == (ev_b / "report.json").read_bytes()
    same_arr = (ev_a / "arr_matrix.tsv").read_bytes() == (ev_b / "arr_matrix.tsv").read_bytes()
    ok = same_ckpt and same_log and same_csv and same_json and same_arr
    report_line(7, f"{'PASS' if ok else 'FAIL'} - identical-manifest reruns: "
                   f"checkpoint, train log, reports, retention matrix all "
                   f"byte-identical")
    assert ok


# -- criterion 8: weight properties ------------------------------------------

def test_criterion_8_weight_properties():
    t0 = time.monotonic()
    try:
        lam_checks = _run_weight_properties()
    except AssertionError as e:
        report_line(8, f"FAIL - weight property violated: {e}")
        raise
    elapsed = time.monotonic() - t0
    report_line(8, f"PASS - 10k weight batches positive/normalized/monotone; "
                   f"dynamic weights strictly increasing over {lam_checks} "
                   f"random schedules ({elapsed:.1f}s)")


def _run_weight_properties() -> int:
    rng = np.random.default_rng(88)
    for _ in range(10_000):
        size = int(rng.integers(2, 21))
        s = np.clip(rng.normal(0.0, 1.5, size=size), -4.0, 4.0)
        w1 = float(rng.uniform(0.05, 3.0))
        w2 = float(rng.uniform(0.05, 3.0))
        pos = ei_weights_pos(s, w1, i=2)
        neg = ei_weights_neg(s, w2, i=2)
        assert np.all(pos > 0) and np.all(neg > 0)
        assert abs(pos.sum() - 1.0) <= 1e-9
        assert abs(neg.sum() - 1.0) <= 1e-9
        order = np.argsort(sigmoid(s), kind="stable")
        diffs = np.diff(sigmoid(s)[order])
        strict = diffs > 0
        assert np.all(np.diff(pos[order])[strict] < 0)
        assert np.all(np.diff(neg[order])[strict] > 0)
        assert np.allclose(np.diff(pos[order])[~strict], 0.0, atol=1e-15)

    lam_checks = 0
    for trial in range(200):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in
                     sorted(rng.choice(np.arange(1, 17), size=n, replace=False)))
        m = rand_model("transe", dims=dims, num_entities=4, num_relations=2,
                       seed=trial)
        m.w3 = float(rng.uniform(0.05, 3.0))
        pos, neg = rand_batch(rng, m, batch=2, k=1)
        lams = [total_loss(m, idx, pos, neg, no_mlm=True)[0].lambdas[idx]
                for idx in range(1, n + 1)]
        assert all(b > a for a, b in zip(lams, lams[1:])), (dims, m.w3, lams)
        lam_checks += 1
    return lam_checks
