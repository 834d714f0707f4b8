"""Every name the benchmark's traced run wraps must exist in the library.

``bench/worker.py`` lists them in ``TRACED``, and ``Tracer.install`` looks
each one up: ``cls.__dict__[attr]`` for a ``Class.method``, ``getattr`` for
a function.  A name that is gone makes ``bench/run.py --trace 1`` fail with
KeyError or AttributeError while the rest of the suite passes.  These tests
look each name up the same way and rebind nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return [(module, name) for module, names in worker.TRACED.items() for name in names]


NAMES = traced_names()


@pytest.mark.parametrize("module, qualname", NAMES, ids=[f"{m}.{q}" for m, q in NAMES])
def test_traced_name_resolves(module, qualname):
    mod = importlib.import_module(f"pipedreams.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        raw = getattr(mod, cls_name).__dict__[attr]
        assert callable(getattr(raw, "__func__", raw))
    else:
        assert callable(getattr(mod, qualname))
