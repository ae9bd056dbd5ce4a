"""Every callable the benchmark's tracer wraps still resolves.

``perfbench/tracer.py`` wraps penergy functions by module and attribute
name, and the tests here do not run the benchmark, so without this check
a deleted or renamed traced name would surface only in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert targets
    unresolved = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
                  for name, owner, attr, _ in targets
                  if not callable(getattr(owner, attr, None))]
    assert not unresolved, unresolved
