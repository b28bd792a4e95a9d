"""The benchmark's traced run finds every layer it wraps in cropkge."""
import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cropkge

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    """Import perfbench/<name>.py by path, without a bytecode cache.

    It is registered under its own name for the test's duration, so a
    perfbench module that imports another (inputs imports oracle) finds it.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_span_resolves(monkeypatch):
    spans = load_perfbench("spans", monkeypatch)

    def resolves(module_name, path):
        owner = getattr(cropkge, module_name, None)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        return owner is not None

    found: dict[str, bool] = {}
    for module_name, path, name, _ in spans.WRAPPED:
        found[name] = found.get(name, False) or resolves(module_name, path)
    missing = sorted(name for name, ok in found.items() if not ok)
    assert not missing, f"spans whose wrapped names no longer exist in cropkge: {missing}"


@pytest.mark.slow
def test_traced_synth_train_round_reports_every_layer(tmp_path, monkeypatch):
    # a traced run whose spans miss a layer still exits 0, so read its last line
    load_perfbench("oracle", monkeypatch)
    inputs = load_perfbench("inputs", monkeypatch)
    data, work = tmp_path / "data", tmp_path / "work"
    inputs.synth_dataset(data, 1)
    work.mkdir()
    cmd = [sys.executable, "-B", str(PERFBENCH / "workload.py"), "--workload", "synth-train",
           "--data", str(data), "--work", str(work), "--seconds", "0", "--trace", "1",
           "--t0", repr(time.time())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    bad = {
        name: metric for name, metric in result["metrics"].items()
        if metric.get("absent") or not isinstance(metric["value"], (int, float))
        or not math.isfinite(metric["value"])
    }
    assert not bad, f"per-layer metrics absent or not finite: {bad}"
