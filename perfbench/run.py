"""neroncalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are ``large_graph``,
``series_algebra`` and ``small_cli`` (see ``workloads.py`` and
``BENCHMARK.json``).  Every workload is a closed loop with one client in one
process without extra threads: the next op starts when the previous one has
finished.  ``large_graph`` and ``series_algebra`` call ``neroncalc.cli.main``
and the API in-process; ``small_cli`` runs one ``python -m neroncalc`` child
at a time with ``PYTHONPATH=src``.

With ``--trace 0`` the worker process is launched ``SETUP_LAUNCHES`` times to
time set-up (launch to first timed op, median reported), and once more to
run whole passes over the seed's op set, as many as come nearest to
``--seconds`` and at least ``MIN_OPS`` ops.  Times are reported at the
reference machine speed (see ``CALIB_REF_S``); the wall times are printed
beside them.  The last line of stdout is the end-to-end result.  With
``--trace 1`` one worker runs a warm-up pass and then every op untraced and
under :class:`tracer.Tracer`, all in-process, and reports the per-layer
metrics.

Every op's answer is checked against a closed-form oracle and its output
digest against ``pinned.json``; any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
MIN_OPS = 100
CHILD_TIMEOUT_S = 120
PROBE_LAUNCHES = 7
# On a shared machine the CPU speed drifts, equally for every op: on a shared
# 2-vCPU VM, runs minutes apart differed by up to 70%, which buries any change
# in run-to-run noise.  Every timed op is therefore bracketed by a fixed
# pure-Python loop, and its time is also reported at the reference speed, at
# which that loop takes CALIB_REF_S: t * CALIB_REF_S / mean(loop before, loop
# after).  The process and its children are pinned to one CPU so that the
# loop runs where the op runs.
CALIB_LOOPS = 20000
CALIB_REF_S = 0.003


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- running and checking ops (worker side) -----------------------------------


def run_inprocess(op: workloads.Op) -> tuple[int, str, str, float]:
    """Run one op in this process; returns ``(exit code, stdout, stderr, s)``."""
    import neroncalc.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        if op.call is not None:
            out.write(op.call())
            rc = 0
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = neroncalc.cli.main(op.argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op, not a crashed run
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_child(op: workloads.Op) -> tuple[int, str, str, float]:
    """Run one CLI op as ``python -m neroncalc``."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, "-m", "neroncalc", *op.argv], cwd=ROOT,
                           env=child_env(), capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "", "timed out", time.perf_counter() - t0
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    x, seen = 0, {}
    for i in range(CALIB_LOOPS):
        x = (x * 31 + i) % 1000003
        seen[i & 255] = x
    return time.perf_counter() - t0


def digest(rc: int, out: str) -> str:
    return hashlib.sha256(("%d\n%s" % (rc, out)).encode()).hexdigest()[:16]


class Pass:
    """Outcome of running an op set once or several times.  ``latencies``
    are wall seconds; ``scaled`` are the same at the reference speed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.digests: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def slowdown(self) -> float:
        """Wall time over time at the reference speed, across the ops."""
        return sum(self.latencies) / sum(self.scaled)


def run_pass(ops, runner, pinned: dict, result: Pass, checked: set) -> None:
    """Run every op once; an op fails when its exit code, oracle or digest is
    wrong.  Oracles run once per op key, digests on every run."""
    for op in ops:
        before = calibrate()
        rc, out, err, dt = runner(op)
        after = calibrate()
        result.latencies.append(dt)
        result.scaled.append(dt * 2 * CALIB_REF_S / (before + after))
        d = digest(rc, out)
        result.digests.append(d)
        problem = None
        if op.key not in checked:
            checked.add(op.key)
            try:
                problem = op.check(rc, out, err)
            except Exception as exc:  # malformed output is a wrong answer
                problem = "oracle could not read the output: %r" % exc
        if problem is None and pinned.get(op.key) != d:
            problem = "output digest %s, pinned %s" % (d, pinned.get(op.key))
        if problem is not None:
            result.failures.append((op.key, problem))


def load_pinned(workload: str) -> dict:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def probe_ms(code: str) -> float:
    """Median time of ``python -c code`` in milliseconds at the reference speed."""
    times = []
    for _ in range(PROBE_LAUNCHES):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
        dt = time.perf_counter() - t0
        times.append(dt * 2 * CALIB_REF_S / (before + calibrate()))
    return 1000 * statistics.median(times)


def worker(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import neroncalc  # noqa: F401  (import time is part of set-up)
    import neroncalc.cli  # noqa: F401

    ctx = workloads.Context(ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        ops = workloads.build(args.workload, args.seed, ctx, smoke=args.smoke)
        pinned = load_pinned(args.workload)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            report = traced_run(args, ops, pinned)
        else:
            report = timed_run(args, ops, pinned)
    finally:
        shutil.rmtree(os.path.join(ROOT, ctx.dir), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, workloads.WORK_DIR))
    print(json.dumps(report), flush=True)
    return 0


def summary(latencies: list[float]) -> dict:
    """Throughput and median and 90th-percentile latency of a run's ops."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * (statistics.quantiles(latencies, n=10)[8]
                             if len(latencies) > 1 else latencies[0]),
    }


def timed_run(args, ops, pinned: dict) -> dict:
    subprocess_cli = workloads.WORKLOADS[args.workload][1]
    runner = run_child if subprocess_cli else run_inprocess
    result, checked = Pass(), set()
    start, passes = time.perf_counter(), 0
    while True:
        t0 = time.perf_counter()
        run_pass(ops, runner, pinned, result, checked)
        passes += 1
        # Whole passes keep every run's op mix the same; stop at the number
        # of passes that lands nearest to the requested run length.
        elapsed, last = time.perf_counter() - start, time.perf_counter() - t0
        if (len(result.latencies) >= MIN_OPS or args.smoke) and elapsed + last / 2 >= args.seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if subprocess_cli else resource.RUSAGE_SELF)
    return {
        "ops": len(result.latencies),
        "passes": passes,
        "failed": len(result.failures),
        "failures": result.failures[:10],
        "wall_s": time.perf_counter() - start,
        "slowdown": result.slowdown,
        "scaled": summary(result.scaled),
        "wall": summary(result.latencies),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "digest": hashlib.sha256("".join(result.digests[:len(ops)]).encode()).hexdigest(),
    }


def traced_run(args, ops, pinned: dict) -> dict:
    """A warm-up pass, then every op twice in a row, untraced and traced in
    alternating order, so that the pair shares the machine's state and the
    trace overhead is measured op by op."""
    checked = set()
    warm, plain, traced = Pass(), Pass(), Pass()
    run_pass(ops, run_inprocess, pinned, warm, checked)
    tr = tracer.Tracer()
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 else (True, False)):
            if with_trace:
                with tr:
                    run_pass([op], run_inprocess, pinned, traced, checked)
            else:
                run_pass([op], run_inprocess, pinned, plain, checked)
    failures = warm.failures + plain.failures + traced.failures
    if traced.digests != plain.digests:
        failures.append(("trace", "traced outputs differ from untraced outputs"))
    interp = probe_ms("pass")
    measured = {
        "cli.interp_ms": interp,
        "cli.import_ms": probe_ms("import neroncalc.cli") - interp,
        "trace.overhead_frac": traced.busy_s / plain.busy_s - 1,
    }
    rec = tr.rec
    for name in rec.self_s:  # span times at the reference speed
        rec.self_s[name] /= traced.slowdown
    return {
        "ops": 3 * len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": tracer.per_layer_metrics(rec, measured),
        "spans": tr.rec.spans(),
        "digest": hashlib.sha256("".join(traced.digests).encode()).hexdigest(),
    }


# -- orchestration (parent side) ----------------------------------------------


def launch(args, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; returns its set-up time at the reference speed and,
    unless ``setup_only``, its report."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", "worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    before = calibrate()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        first = p.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = p.stdout.read()
        rc = p.wait()
    if first.strip() != "READY" or rc != 0:
        raise RuntimeError("worker failed (exit code %d) before reporting" % rc)
    if setup_only:  # the worker has exited, so the loop runs alone
        return setup_s * 2 * CALIB_REF_S / (before + calibrate()), None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def provenance(args) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "neroncalc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_baseline(workload: str, trace: int) -> dict:
    path = os.path.join(HERE, "baseline.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc.get("per_layer" if trace else "end_to_end", {}).get(workload, {})


def orchestrate(args) -> int:
    for need in (os.path.join("src", "neroncalc", "__init__.py"), "fixtures"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("error: %s is missing; run from a neroncalc checkout" % need, file=sys.stderr)
            return 2
    prov = provenance(args)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        _, report = launch(args, setup_only=False)
        metrics = report["metrics"]
        print(json.dumps({"spans": report["spans"]}))
        samples = {}
    else:
        setups = [launch(args, setup_only=True)[0] for _ in range(SETUP_LAUNCHES)]
        _, report = launch(args, setup_only=False)
        scaled = report["scaled"]
        metrics = {
            "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": scaled["op_p90_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        samples = {"ops_per_s": report["ops"], "op_p50_ms": report["ops"],
                   "op_p90_ms": report["ops"], "setup_s": len(setups), "peak_rss_mb": 1}
        print("# wall times, %.3f x the reference-speed times: %s" % (
            report["slowdown"], ", ".join("%s %.6g" % kv for kv in report["wall"].items())))
    attempted, failed = report["ops"], report["failed"]
    prov.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                output_digest=report["digest"], passes=report.get("passes"))
    print(json.dumps({"provenance": prov}))
    baseline = load_baseline(args.workload, args.trace)
    for name, m in metrics.items():
        base = baseline.get(name)
        vs = " (baseline %.6g, x%.3f)" % (base, m["value"] / base) if base else ""
        n = " n=%d" % samples[name] if name in samples else ""
        print("# %-44s %14.6g %-6s%s%s" % (name, m["value"], m["unit"], n, vs))
    print("# %-44s %14.6g %-6s n=%d" % ("fail_frac", failed / attempted, "ratio", attempted))
    for key, problem in report["failures"]:
        print("FAIL %s: %s" % (key, problem), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a quarter of the light ops, for tests")
    parser.add_argument("--role", choices=("main", "worker"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "worker":
        return worker(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
