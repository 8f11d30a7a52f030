"""The benchmark's tracer hooks names of the package; they must all exist."""

import importlib.util
from pathlib import Path

from multicolor import permcolor

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attribute, _, _ in tracing.POINTS:
        assert hasattr(module, attribute), f"{module.__name__}.{attribute}"


def test_order_family_keeps_what_the_benchmark_reads():
    # the order_ranks counter reads k and id_space; certify-views calls select_mask
    fam = permcolor.OrderFamily(3, 4, seed=0)
    assert (fam.k, fam.id_space) == (3, 4)
    assert fam.select_mask(1, (2,)) >> 3 == 0
