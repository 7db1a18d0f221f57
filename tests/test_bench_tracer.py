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


def load_workloads(monkeypatch):
    bench = TRACER.parent
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_bench_workloads_import_and_match_benchmark(monkeypatch):
    # the workloads import the package, tests/oracles.py and bench/ modules;
    # a change that breaks those imports fails here rather than in every
    # bench run
    module = load_workloads(monkeypatch)
    declared = json.loads((TRACER.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(module.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])


def test_bench_anchors_match_their_references(monkeypatch, tmp_path):
    # each workload's anchor replays a few operations at its default seed
    # against the stored reference: a change to the transcript fields, the
    # CSV columns or the numbers the bench reads fails here
    module = load_workloads(monkeypatch)
    for name, workload in module.WORKLOADS.items():
        outcome = workload.anchor(tmp_path)
        assert outcome.ops > 0 and outcome.failed == 0, (name, outcome.messages)


def test_traced_games_call_each_row_function_once_per_round():
    # the bench's learners.*_pct shares time these three calls; an engine
    # that inlined their arithmetic would zero them and still pass its runs
    from graphbandit import harness
    from graphbandit.environments import EnvSpec, uninformed_separation_env
    from graphbandit.graph import catalog

    tracer = load_tracer()
    names = ("learners.exponential_weights", "learners.sample_index",
             "learners.importance_weighted_estimates")
    spec = harness.LearnerSpec(algorithm="exp3g", preset="manual", mode="informed")
    with tracer.Tracer().patched() as traced:  # one row: informed doubling on thm7
        harness.doubling_wrapper(None, spec, uninformed_separation_env(6, 50, seed=1), 2)
    assert [traced.totals[name][0] for name in names] == [50] * 3
    config = harness.SweepConfig(
        graph=catalog("loopy_star", 5), graph_name="loopy_star",
        learner=harness.LearnerSpec(algorithm="exp3g", preset="strong"),
        env=EnvSpec("bernoulli", {"mu": (0.3,) + (0.5,) * 4}), horizons=(32, 64), reps=1,
    )
    with tracer.Tracer().patched() as traced:  # two rows, then one: 64 lockstep rounds
        harness.sweep(config)
    assert [traced.totals[name][0] for name in names] == [64] * 3
