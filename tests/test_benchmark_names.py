"""The benchmark in perfbench/ is kept unchanged between its own revisions and
reaches whitdim by name: this checks that every name it uses still exists."""

import importlib
import importlib.util
import re
from pathlib import Path

import whitdim
from whitdim import root_datum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    spans = _load_spans()
    missing = [f"{module}.{name}" for module, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"whitdim.{module}"),
                                       name, None))]
    missing += [f"root_datum.{name}" for name in spans.BUILDERS
                if not callable(getattr(root_datum, name, None))]
    assert not missing


def test_workload_names_exist():
    source = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bwd\.(\w+)", source))
    assert names
    assert sorted(name for name in names if not hasattr(whitdim, name)) == []
