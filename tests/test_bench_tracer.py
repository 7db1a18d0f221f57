import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    # the benchmark's tracer patches package names from outside; one that the
    # package drops or renames fails here rather than in every bench workload
    tracer = load_tracer()
    originals = [getattr(owner, attr) for _, owner, attr in tracer.TARGETS]
    with tracer.Tracer().patched():
        wrapped = [getattr(owner, attr) for _, owner, attr in tracer.TARGETS]
    restored = [getattr(owner, attr) for _, owner, attr in tracer.TARGETS]
    assert [w.__wrapped__ for w in wrapped] == originals
    assert all(r is o for r, o in zip(restored, originals))
