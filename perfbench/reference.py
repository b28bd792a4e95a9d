"""Quality reference figures at the synth-train settings (not a timed run).

    python3 perfbench/reference.py

Trains, on the bundled synth graph and for training seeds 0, 1 and 2: MED,
MED without mutual learning (noMLM), MED without the weighted loss (noEIM),
and direct training at d=64 (dt). Prints the medians that acceptance
criteria 5 and 6 compare, at the benchmark's 40 epochs instead of 400.
Takes about five minutes on two cores.
"""
from __future__ import annotations

import dataclasses
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from cropkge import baselines, data, evaluate, model, train

    from workload import WORKLOADS, train_config

    ds = data.load_dataset(data.resolve_dataset("synth"))
    base = train_config(train, model, WORKLOADS["synth-train"])
    last = len(base.dims)
    rows = []
    for seed in (0, 1, 2):
        cfg = dataclasses.replace(base, seed=seed)
        dt = baselines.train_dt(ds, base.dims[-1], cfg).model
        ext = model.with_schedule(dt, base.dims)
        med = train.train_med(ds, cfg).model
        nomlm = train.train_med(ds, dataclasses.replace(cfg, no_mlm=True)).model
        noeim = train.train_med(ds, dataclasses.replace(cfg, no_eim=True)).model
        rows.append({
            "med8": evaluate.link_prediction(med, 1, ds, "test").mrr,
            "ext8": evaluate.link_prediction(ext, 1, ds, "test").mrr,
            "med64": evaluate.link_prediction(med, last, ds, "test").mrr,
            "dt64": evaluate.link_prediction(dt, 1, ds, "test").mrr,
            "nomlm8": evaluate.link_prediction(nomlm, 1, ds, "test").mrr,
            "noeim64": evaluate.link_prediction(noeim, last, ds, "test").mrr,
            "arr_med": evaluate.arr(med, ds, "test").value,
            "arr_ext": evaluate.arr(ext, ds, "test").value,
        })
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.4f}" for k, v in rows[-1].items()), flush=True)
    print("medians: " + ", ".join(f"{k} {statistics.median(r[k] for r in rows):.4f}" for k in rows[0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
