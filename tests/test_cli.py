"""Command-line interface: parsing units and end-to-end subcommand runs."""
import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from cropkge import evaluate
from cropkge.checkpoint import load_checkpoint, save_checkpoint
from cropkge.cli import main, parse_config_file, parse_dims
from cropkge.data import load_dataset
from cropkge.evaluate import arr, write_arr_matrix
from cropkge.synth import generate

from conftest import rand_model


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    generate(root / "tiny", num_entities=30, num_relations=3, latent_dim=4,
             per_pair=2, noise_frac=0.05, seed=2)
    return str(root / "tiny")


def train_args(dataset, out, **extra):
    args = ["train", "--dataset", dataset, "--out", str(out),
            "--dims", "2,4", "--epochs", "6", "--lr", "0.01",
            "--batch-size", "16", "--neg-per-pos", "4",
            "--validate-every", "3", "--patience", "2", "--seed", "7"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_parse_dims_forms():
    assert parse_dims("8") == (8,)
    assert parse_dims("8,16,32") == (8, 16, 32)
    assert parse_dims("2:8:2") == (2, 4, 6, 8)
    got = parse_dims("10:640:10")
    assert len(got) == 64
    assert got[0] == 10 and got[-1] == 640
    with pytest.raises(ValueError):
        parse_dims("8,4")  # not increasing
    with pytest.raises(ValueError):
        parse_dims("abc")
    with pytest.raises(ValueError):
        parse_dims("4:2:1")


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nlr = 0.005\n\nbatch-size = 32\nmethod= dt\n")
    got = parse_config_file(cfg)
    assert got == {"lr": "0.005", "batch_size": "32", "method": "dt"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("lr = 0.005\nnonsense line\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        parse_config_file(bad)


def test_parse_config_file_rejects_a_repeated_key(tiny_dataset, tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    for text, where in (("epochs = 2\nepochs = 5\n", "twice.cfg:2: key 'epochs'"),
                        ("batch-size = 8\n# note\nbatch_size = 9\n", "twice.cfg:3: key 'batch_size'")):
        cfg.write_text(text)
        with pytest.raises(ValueError, match=re.escape(where + " is set twice")):
            parse_config_file(cfg)
    rc = main(train_args(tiny_dataset, tmp_path / "run") + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1
    assert "twice.cfg:3" in err and "batch_size" in err


def test_train_and_eval_end_to_end(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(tiny_dataset, out)) == 0
    model = load_checkpoint(out / "model.ckpt")
    assert model.dims == (2, 4)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["seed"] == 7
    assert manifest["config"]["method"] == "med"
    assert len(manifest["dataset"]["sha256"]) == 64
    assert manifest["result"]["epochs_run"] >= 1
    assert manifest["wall_clock_sec"] > 0

    log_lines = (out / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == manifest["result"]["epochs_run"]
    first = json.loads(log_lines[0])
    assert first["epoch"] == 1

    ev = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                 "--dataset", tiny_dataset, "--out", str(ev),
                 "--dims", "all", "--threads", "1", "--arr"]) == 0
    with open(ev / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["dim"] for r in rows] == ["2", "4"]
    rep_json = json.loads((ev / "report.json").read_text())
    assert [r["dim"] for r in rep_json] == [2, 4]
    arr_info = json.loads((ev / "arr.json").read_text())
    assert 0.0 <= arr_info["arr"] <= 1.0
    assert (ev / "arr_matrix.tsv").exists()


def test_eval_arr_ranks_each_width_once(tiny_dataset, tmp_path, monkeypatch):
    ds = load_dataset(tiny_dataset)
    model = rand_model("transe", dims=(2, 4, 8), num_entities=ds.num_entities,
                       num_relations=ds.num_relations, dtype=np.float32)
    save_checkpoint(model, tmp_path / "m.ckpt")
    sides = []
    score = evaluate.one_vs_all_scores

    def counted(tables, kind, norm, side, triple):
        sides.append(side)
        return score(tables, kind, norm, side, triple)

    monkeypatch.setattr(evaluate, "one_vs_all_scores", counted)
    ev = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--dataset", tiny_dataset,
                 "--out", str(ev), "--threads", "2", "--arr"]) == 0
    assert len(sides) == 2 * len(ds.test) * model.n  # link prediction alone; ARR re-ranks nothing
    monkeypatch.undo()
    alone = tmp_path / "alone.tsv"
    write_arr_matrix(arr(model, ds), alone)
    assert (ev / "arr_matrix.tsv").read_bytes() == alone.read_bytes()


def test_train_byte_determinism(tiny_dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(train_args(tiny_dataset, a)) == 0
    assert main(train_args(tiny_dataset, b)) == 0
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    assert (a / "train_log.jsonl").read_bytes() == (b / "train_log.jsonl").read_bytes()


def test_config_file_and_cli_precedence(tiny_dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 99\nbatch-size = 8\n")
    out = tmp_path / "run"
    args = train_args(tiny_dataset, out) + ["--config", str(cfg)]
    # CLI --seed 7 must beat the config's 99; batch-size comes from the file
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["batch_size"] == 16  # CLI wins there too
    out2 = tmp_path / "run2"
    args2 = ["train", "--dataset", tiny_dataset, "--out", str(out2),
             "--dims", "2,4", "--epochs", "4", "--lr", "0.01",
             "--config", str(cfg)]
    assert main(args2) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["seed"] == 99  # config beats the default
    assert manifest2["config"]["batch_size"] == 8


def test_dt_and_bkd_methods(tiny_dataset, tmp_path):
    dt_out = tmp_path / "dt"
    assert main(train_args(tiny_dataset, dt_out, method="dt", dims="4")) == 0
    dt_model = load_checkpoint(dt_out / "model.ckpt")
    assert dt_model.dims == (4,)

    bkd_out = tmp_path / "bkd"
    args = train_args(tiny_dataset, bkd_out, method="bkd", dims="2",
                      teacher=str(dt_out / "model.ckpt"))
    assert main(args) == 0
    student = load_checkpoint(bkd_out / "model.ckpt")
    assert student.dims == (2,)
    manifest = json.loads((bkd_out / "manifest.json").read_text())
    assert manifest["config"]["method"] == "bkd"
    assert manifest["config"]["teacher"].endswith("model.ckpt")


def test_crop_and_dump_and_stats(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(tiny_dataset, out)) == 0
    cropped_path = tmp_path / "small.ckpt"
    assert main(["crop", "--checkpoint", str(out / "model.ckpt"),
                 "--dim", "2", "--out", str(cropped_path)]) == 0
    small = load_checkpoint(cropped_path)
    assert small.dims == (2,)
    big = load_checkpoint(out / "model.ckpt")
    np.testing.assert_array_equal(small.tables["entity"],
                                  big.tables["entity"][:, :2])
    sidecar = json.loads((tmp_path / "small.ckpt.manifest.json").read_text())
    assert sidecar["dim"] == 2

    dump_path = tmp_path / "emb.tsv"
    assert main(["dump", "--checkpoint", str(cropped_path),
                 "--table", "entity", "--out", str(dump_path)]) == 0
    lines = dump_path.read_text().splitlines()
    assert len(lines) == small.num_entities  # one row per id, no header
    row = lines[0].split("\t")
    assert int(row[0]) == 0
    assert len(row) == 1 + small.dim
    np.testing.assert_array_equal(
        np.array([float(x) for x in row[1:]], dtype=np.float32),
        small.tables["entity"][0])  # repr round-trips float32 exactly

    assert main(["stats", "--dataset", tiny_dataset,
                 "--out", str(tmp_path / "stats.json")]) == 0
    st = json.loads((tmp_path / "stats.json").read_text())
    assert st["entities"] == 30


def test_importance_subcommand(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(tiny_dataset, out, method="dt", dims="4")) == 0
    imp_out = tmp_path / "imp"
    assert main(["importance", "--checkpoint", str(out / "model.ckpt"),
                 "--mode", "loss", "--dataset", tiny_dataset,
                 "--out", str(imp_out), "--apply"]) == 0
    lines = (imp_out / "importance.tsv").read_text().splitlines()
    assert lines[0] == "# method: loss"
    assert len(lines) == 1 + 4
    reordered = load_checkpoint(imp_out / "reordered.ckpt")
    assert reordered.dim == 4


def test_error_paths(tiny_dataset, tmp_path, capsys):
    # malformed dims
    rc = main(train_args(tiny_dataset, tmp_path / "x", dims="7,3"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" == err[-1] and err.count("\n") == 1  # single line

    # bkd without a teacher
    rc = main(train_args(tiny_dataset, tmp_path / "y", method="bkd", dims="2"))
    assert rc == 1
    assert "teacher" in capsys.readouterr().err

    # missing dataset directory
    rc = main(["stats", "--dataset", str(tmp_path / "nope")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_version_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cropkge.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cropkge" in proc.stdout


def test_crop_of_empty_schedule_checkpoint_is_one_line_error(tmp_path):
    m = rand_model("transe", dims=(2, 4), dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    raw = path.read_bytes()
    # n=0 and no dims bytes: the rest of the file is left as it was
    path.write_bytes(raw[:8] + b"\x00\x00" + raw[10 + 4 * m.n :])
    proc = subprocess.run(
        [sys.executable, "-m", "cropkge.cli", "crop", "--checkpoint", str(path),
         "--dim", "2", "--out", str(tmp_path / "small.ckpt")],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert proc.stderr.startswith("error:") and "n=0" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "small.ckpt").exists()


def test_config_file_epochs_sets_the_epoch_count(tiny_dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nbatch-size = 16\nneg_per_pos = 4\nvalidate-every = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--dataset", tiny_dataset, "--out", str(out),
                 "--dims", "2,4", "--lr", "0.01", "--config", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2
    assert "max_epochs" not in manifest["config"]
    assert manifest["result"]["epochs_run"] == 2
    assert len((out / "train_log.jsonl").read_text().splitlines()) == 2


@pytest.mark.parametrize("line, key", [
    ("batchsize = 64", "batchsize"),
    ("ei_input = sigmod", "ei_input"),
    ("batch-size = 1.5", "batch_size"),
])
def test_bad_config_key_or_value_is_one_line_error(tiny_dataset, tmp_path, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed = 3\n{line}\n")
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "cropkge.cli", "train", "--dataset", tiny_dataset,
         "--out", str(out), "--dims", "2,4", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert str(cfg) in proc.stderr and repr(key) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "manifest.json").exists()  # rejected before training


def test_failed_runs_are_marked_failed_in_their_manifest(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "bkd"
    missing = tmp_path / "missing.ckpt"
    assert main(train_args(tiny_dataset, out, method="bkd", dims="2", teacher=missing)) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "missing.ckpt" in manifest["error"]
    assert "missing.ckpt" in capsys.readouterr().err

    m = rand_model("transe", dims=(2, 4), num_entities=30, num_relations=3, dtype=np.float32)
    m.tables["entity"][:] = np.nan
    save_checkpoint(m, tmp_path / "nan.ckpt")
    ev = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(tmp_path / "nan.ckpt"), "--dataset", tiny_dataset,
                 "--out", str(ev), "--threads", "1"]) == 1
    manifest = json.loads((ev / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "dim 2" in manifest["error"] and "wall_clock_sec" not in manifest
    assert not (ev / "report.csv").exists()
