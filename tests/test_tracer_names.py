"""The benchmark's tracer (``perfbench/tracer.py``) times rvrp by swapping
module and class attributes it names in ``PATCHES``. A renamed or removed
function would leave it timing nothing, so every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_patch_names_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    missing = []
    for module, cls, attr, *_ in tracer.PATCHES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []
