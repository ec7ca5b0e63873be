"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import json
import os
import shutil
import subprocess
import sys
import time
from math import prod

import pytest

import gen
import oracles
import run
import tracer
import workloads
from neroncalc.basechange import transform
from neroncalc.curves import parse_curve, serialize_curve, validate
from neroncalc.linalg import FiniteAbelianGroup

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture
def ctx():
    context = workloads.Context(run.ROOT, "test-%d" % os.getpid())
    yield context
    shutil.rmtree(os.path.join(run.ROOT, context.dir), ignore_errors=True)


def _files(context):
    root = os.path.join(run.ROOT, context.dir)
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def _describe(ops):
    return [(op.key, op.argv, op.call() if op.call else None) for op in ops]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, ctx):
    first = _describe(workloads.build(workload, 7, ctx))
    files = _files(ctx)
    shutil.rmtree(os.path.join(run.ROOT, ctx.dir))
    os.makedirs(os.path.join(run.ROOT, ctx.dir))
    assert _describe(workloads.build(workload, 7, ctx)) == first
    assert _files(ctx) == files
    other = [key for key, _, _ in _describe(workloads.build(workload, 8, ctx))]
    assert other != [key for key, _, _ in first]


def test_generated_curves_are_valid_and_match_the_library():
    fixtures = workloads.load_fixtures(run.ROOT)
    for name in gen.KODAIRA_SEEDS:
        doc = gen.blowup_closure(fixtures[name], 40, name, workloads.BLOWUP_CAP)
        assert validate(parse_curve(gen.dump(doc))).ok
        assert oracles.genus_of(doc) == oracles.FIXTURES[name][0]
    for sub in range(20):
        _, doc = gen.small_curve(fixtures, sub)
        assert len(doc["vertices"]) <= 12 and max(oracles.multiplicities(doc)) <= 12
        assert validate(parse_curve(gen.dump(doc))).ok
    for n, d in ((5, 7), (3, 11)):
        base = fixtures["I%d" % n]
        ours = parse_curve(gen.dump(gen.transformed_cycle_doc(base, d)))
        theirs, _ = transform(parse_curve(gen.dump(base)), d)
        assert serialize_curve(ours) == serialize_curve(theirs)
    for q in (5, 7):
        assert validate(parse_curve(gen.dump(gen.star_doc(q)))).ok


def _run_ops(ops, pinned):
    result = run.Pass()
    run.run_pass(ops, run.run_inprocess, pinned, result, set())
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_agree(workload, ctx):
    ops = workloads.build(workload, 3, ctx, smoke=True)
    pinned = run.load_pinned(workload)
    plain = _run_ops(ops, pinned)
    with tracer.Tracer() as tr:
        traced = _run_ops(ops, pinned)
    assert plain.failures == [] and traced.failures == []
    assert traced.digests == plain.digests
    assert tr.rec.calls["curves.parse_curve"] > 0


def _bindings():
    """Identity of every callable bound in the loaded ``neroncalc.*``
    modules and traced classes."""
    out = {}
    for n, m in list(sys.modules.items()):
        if m is not None and (n == tracer.PACKAGE or n.startswith(tracer.PACKAGE + ".")):
            for attr, obj in vars(m).items():
                if callable(obj):
                    out[(n, attr)] = id(obj)
    for (modname, clsname) in tracer.METHODS:
        cls = getattr(sys.modules["%s.%s" % (tracer.PACKAGE, modname)], clsname)
        for attr, obj in vars(cls).items():
            out[("%s.%s" % (modname, clsname), attr)] = id(obj)
    return out


def test_tracing_restores_every_binding(ctx):
    import neroncalc.basechange
    import neroncalc.cli

    before = _bindings()
    original = neroncalc.basechange.transform
    with tracer.Tracer():
        assert neroncalc.cli.transform is neroncalc.basechange.transform
        assert neroncalc.cli.transform is not original
        _run_ops(workloads.build("small_cli", 1, ctx, smoke=True), run.load_pinned("small_cli"))
    assert _bindings() == before
    assert neroncalc.cli.transform is original


def test_per_layer_metrics_match_benchmark_json(ctx):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["unit"] for m in bench["per_layer"]] == list(tracer.PER_LAYER.values())
    with tracer.Tracer() as tr:
        _run_ops(workloads.build("large_graph", 1, ctx, smoke=True), run.load_pinned("large_graph"))
    metrics = tracer.per_layer_metrics(tr.rec, {})
    assert metrics["invariants.geometry_per_report"]["value"] == 8
    assert abs(sum(metrics["%s.share" % layer]["value"] for layer in tracer.LAYERS) - 1) < 1e-9


def test_planted_wrong_answer_is_counted(ctx, monkeypatch):
    ops = workloads.build("small_cli", 2, ctx, smoke=True)
    pinned = run.load_pinned("small_cli")
    assert _run_ops(ops, pinned).failures == []
    monkeypatch.setattr(FiniteAbelianGroup, "order", property(lambda self: prod(self.factors) + 1))
    failures = _run_ops(ops, pinned).failures
    assert any("phi_order" in problem for _, problem in failures)


def _checkout(name, with_program=True):
    """A copy of the benchmark (and, optionally, the program) in a scratch
    directory inside the benchmark's ignored work area."""
    dest = os.path.join(run.ROOT, workloads.WORK_DIR, "%s-%d" % (name, os.getpid()))
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(os.path.join(dest, "perfbench"))
    for f in os.listdir(run.HERE):
        if f.endswith((".py", ".json")):
            shutil.copy(os.path.join(run.HERE, f), os.path.join(dest, "perfbench", f))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), dest)
    if with_program:
        shutil.copytree(os.path.join(run.ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(os.path.join(run.ROOT, "fixtures"), os.path.join(dest, "fixtures"))
    return dest


def _command(cwd, workload, *extra):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "5", "--seconds", "0", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_planted_wrong_answer_fails_the_command():
    dest = _checkout("planted")
    try:
        linalg = os.path.join(dest, "src", "neroncalc", "linalg.py")
        with open(linalg, encoding="utf-8") as fh:
            text = fh.read()
        assert "return prod(self.factors)\n" in text
        with open(linalg, "w", encoding="utf-8") as fh:
            fh.write(text.replace("return prod(self.factors)\n", "return prod(self.factors) + 1\n"))
        p = _command(dest, "small_cli", "--smoke")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        assert p.returncode == 1
        assert result["correct"] is False and result["failed"] > 0
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def test_command_fails_without_the_program():
    dest = _checkout("bare", with_program=False)
    try:
        p = _command(dest, "large_graph")
        assert p.returncode != 0
        assert '"correct"' not in p.stdout
    finally:
        shutil.rmtree(dest, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_finishes_in_seconds(workload, trace):
    t0 = time.perf_counter()
    p = _command(run.ROOT, workload, "--smoke", "--trace", trace)
    assert time.perf_counter() - t0 < 60
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in bench[kind]]
    assert all(m["value"] > 0 for m in result["metrics"].values()) or trace == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_catalogue_item_is_pinned(workload):
    assert {key for key, _ in workloads.catalogue(workload)} == set(run.load_pinned(workload))
