"""Every function the benchmark traces exists in the package, so that
deleting one fails here and not only in the benchmark's own suite."""

import importlib
import importlib.util
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.TRACED
    absent = []
    for name in run.TRACED:
        module, _, attr = name.partition(".")
        if not callable(getattr(importlib.import_module(f"dnagolay.{module}"), attr, None)):
            absent.append(name)
    assert absent == []
