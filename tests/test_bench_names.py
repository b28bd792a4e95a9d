"""The benchmark's traced run finds every layer it wraps in cropkge."""
import importlib.util
import sys
from pathlib import Path

import cropkge

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_span_resolves(monkeypatch):
    # spans.py imports only the standard library; load it without a bytecode cache
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

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
