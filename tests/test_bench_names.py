"""The traced benchmark times the pipeline by wrapping names it looks up on
``chunkfuse.fusion``; a renamed or removed name would leave a stage untimed."""

import importlib
import sys
from pathlib import Path

import chunkfuse.fusion as fusion

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_exist_on_fusion(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    harness = importlib.import_module("harness")
    names = [attr for attr, _span, _hook in harness.FUSION_CALLS]
    assert names, "FUSION_CALLS is empty"
    assert [name for name in names if not callable(getattr(fusion, name, None))] == []
