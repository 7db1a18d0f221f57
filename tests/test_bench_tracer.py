import importlib.util
import json
import sys
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


def test_bench_workloads_import_and_match_benchmark(monkeypatch):
    # the workloads import the package, tests/oracles.py and bench/ modules;
    # a change that breaks those imports fails here rather than in every
    # bench run
    bench = TRACER.parent
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    declared = json.loads((bench.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(module.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])
