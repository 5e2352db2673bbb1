"""Every callable the benchmark's tracer wraps is still where it looks.

``bench/tracing.py`` replaces module and class attributes by name; one that
a refactor moved or dropped would only fail once a traced benchmark run
calls ``install``.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert missing == []
