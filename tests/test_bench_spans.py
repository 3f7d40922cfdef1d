"""The benchmark's span table still names real, distinct package objects.

``bench/spans.py`` wraps each ``SPANS`` entry by identity.  A name that no
longer resolves breaks traced benchmark runs, and two names bound to one
object would be wrapped twice and count its calls twice.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_span_table():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_every_span_resolves_to_a_distinct_object():
    seen = {}
    for _, module_name, attr, _ in load_span_table():
        assert module_name.split(".")[0] == "cmcrank"
        target = resolve(module_name, attr)
        name = f"{module_name}.{attr}"
        assert id(target) not in seen, f"{name} is the same object as {seen[id(target)]}"
        seen[id(target)] = name
