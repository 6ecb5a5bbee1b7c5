"""The benchmark tracer's targets exist in the package.

perfbench/spans.py wraps each function it lists by looking it up with
getattr at install time, so a renamed or deleted function would only
surface when a traced benchmark run fails. The file is read, not
imported, so nothing is written next to it.
"""

import importlib
import runpy
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_bevlane_function():
    spans = runpy.run_path(str(SPANS))
    names = [
        (module, name)
        for table in (spans["TIMED"], spans["COUNTED"])
        for module, functions in table.items()
        for name in functions
    ]
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not isinstance(
            getattr(importlib.import_module(f"bevlane.{module}"), name, None), types.FunctionType
        )
    ]
    assert missing == []
