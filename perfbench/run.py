"""Runs one temponet benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload's CLI invocations through ``temponet.cli.main(argv)`` in
this process: one caller, closed loop, single-threaded. The program is taken
from ``src/`` of the checkout this file sits in. A run

1. builds the workload's inputs from ``--seed`` in a fresh process,
2. runs the workload's first invocation untimed, then repeats passes over
   the workload's invocations until ``--seconds`` of passes would be
   exceeded, checking every output after each pass (digests against
   ``digests.json`` at the default seed, invariants at every seed),
3. runs every untraced pass under a :class:`SpeedProbe` and, in untraced
   runs, times ``import temponet.cli`` in a fresh process before each of
   the first ``SETUP_SAMPLES`` passes,
4. prints a readable summary, then one JSON line with the metrics that
   ``BENCHMARK.json`` lists: ``end_to_end`` when ``--trace 0``,
   ``per_layer`` when ``--trace 1``.

A traced run alternates untraced and traced passes; its per-layer numbers are
medians over traced passes, and ``trace.overhead_s`` is the median traced
pass minus the median untraced pass. Spans and a result record with the
machine description go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
MIN_PASSES = 2  # a traced run needs one untraced and one traced pass; p95 needs two samples
RUN_LIMIT_S = 170  # stay inside the 180 s a run may take
BUILD_LIMIT_S = 120

sys.path.insert(0, str(HERE))
from probe import NOMINAL_UNIT_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RunTimeout(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _import_seconds() -> tuple[float, float]:
    """Wall time of ``import temponet.cli`` in a fresh interpreter, as
    measured and scaled to the probe's nominal speed: measured seconds times
    ``NOMINAL_UNIT_S`` over the reference unit's mean time during the import."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from probe import SpeedProbe\n"
        "with SpeedProbe() as probe:\n"
        "    t = time.perf_counter()\n"
        "    import temponet.cli\n"
        "    t = time.perf_counter() - t - probe.spent\n"
        "print(repr(t), repr(probe.unit), temponet.cli.__file__)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    if Path(out[2]).resolve().parent.parent != SRC:
        raise RuntimeError(f"timed an import of {out[2]}, not of {SRC}")
    seconds, unit = float(out[0]), float(out[1])
    return seconds, seconds * NOMINAL_UNIT_S / unit


def _machine(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "temponet").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call(cli, argv: list[str]) -> tuple[object, str, str]:
    # cli.main is looked up per call, so an installed tracer wraps it
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except RunTimeout:
            raise
        except Exception as exc:  # a crash is a failed invocation, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, workload, calls, reference, tracer=None) -> dict:
    """One pass over ``calls``, then every output checked against the
    workload's invariants and, if ``reference`` is given, against its digests.

    Untraced passes run under a :class:`SpeedProbe`; the probe's time is
    taken out of each invocation's latency."""
    for call in calls:
        for path in call.outputs:
            if os.path.exists(path):
                os.remove(path)
    gc.collect()
    results, latencies = [], []
    probe = SpeedProbe()
    if tracer is not None:
        tracer.install()
    try:
        with probe if tracer is None else contextlib.nullcontext():
            for op, call in enumerate(calls):
                if tracer is not None:
                    tracer.op = op
                spent = probe.spent
                t = time.perf_counter()
                results.append(_call(cli, call.argv))
                latencies.append(time.perf_counter() - t - (probe.spent - spent))
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors, digests = [], {}
    for call, (code, stdout, stderr) in zip(calls, results):
        if code not in (0, None):
            errors.append(f"{' '.join(call.argv)}: exit {code}: {stderr.strip()}")
            continue
        missing = [p for p in call.outputs if not os.path.isfile(p)]
        problem = f"missing outputs {missing}" if missing else workload.check(call, stdout)
        if not problem:
            got = {p: _sha256(p) for p in call.outputs}
            digests.update(got)
            changed = [p for p in got if reference is not None and reference.get(p) != got[p]]
            problem = f"output bytes differ from the reference digests: {changed}" if changed else None
        if problem:
            errors.append(f"{' '.join(call.argv)}: {problem}")
    wall, unit = sum(latencies), probe.unit
    return {"wall": wall, "unit": unit, "wall_ref": wall / unit if unit else None, "probes": len(probe.samples),
            "latencies": latencies, "errors": errors, "digests": digests, "traced": tracer is not None}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / workload.name
    out_dir = ROOT / ".perfbench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)

    # Fresh-process build first: it also compiles bytecode before imports are timed.
    subprocess.run([sys.executable, str(HERE / "workloads.py"), workload.name, str(args.seed)],
                   cwd=work, env=_child_env(), check=True, timeout=BUILD_LIMIT_S,
                   stdout=subprocess.DEVNULL)

    sys.path.insert(0, str(SRC))
    import temponet.cli

    if Path(temponet.cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported {temponet.cli.__file__}, not the checkout's program")
    cli = temponet.cli
    os.environ.pop("TEMPONET_THREADS", None)  # compare runs its default, single-threaded path
    os.chdir(work)
    calls = workload.invocations(args.seed)

    # An untimed first invocation lets caches, the allocator and lazy imports settle.
    run_pass(cli, workload, calls[:1], None)

    if args.trace:
        from tracing import Tracer
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload.name, {})
    passes, tracers, setup = [], [], []
    elapsed = 0.0  # in passes only
    while True:
        tracer = None
        if args.trace and len(passes) % 2 == 1:
            tracer = Tracer()
            tracers.append(tracer)
        elif not args.trace and len(setup) < SETUP_SAMPLES:
            # import timings spread over the run, between passes, so that no
            # one slow spell of the host sets them all
            setup.append(_import_seconds())
        # outputs must match digests recorded at the default seed, else the first pass
        reference = recorded if args.seed == DEFAULT_SEED else (passes[0]["digests"] if passes else None)
        t = time.perf_counter()
        passes.append(run_pass(cli, workload, calls, reference, tracer))
        elapsed += time.perf_counter() - t
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(_import_seconds())

    errors = [e for p in passes for e in p["errors"]]
    attempted = len(calls) * len(passes)
    failed = len(errors)
    correct = not errors

    untraced = [p for p in passes if not p["traced"]]
    latencies = [x for p in untraced for x in p["latencies"]]
    extra = {  # printed and recorded, not gated: see README.md
        "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p95_ms": (1000 * statistics.quantiles(latencies, n=20, method="inclusive")[-1]
                      if len(latencies) > 1 else 1000 * latencies[0], "ms"),
        "ref_unit_ms": (1000 * statistics.median(p["unit"] for p in untraced), "ms"),
    }
    if setup:
        extra["setup_measured_s"] = (statistics.median(measured for measured, _ in setup), "s")
    if args.trace:
        section = "per_layer"
        per_pass = [t.layer_metrics() for t in tracers]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(p["wall"] for p in passes if p["traced"])
                                      - extra["wall_s"][0])
    else:
        section = "end_to_end"
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            # mean, not median: a run has 3-8 passes, and over the same
            # passes the mean spread less from run to run (README.md)
            "wall_ref": statistics.fmean(p["wall_ref"] for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    machine = _machine(args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "result": result, "errors": errors[:20],
        "also_measured": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_samples_s": [{"measured": m, "scaled": sc} for m, sc in setup], "pass_walls_s": [p["wall"] for p in passes],
        "pass_walls_ref": [p["wall_ref"] for p in passes], "pass_probes": [p["probes"] for p in passes],
        "pass_traced": [p["traced"] for p in passes], "invocations_per_pass": len(calls),
        "digests": passes[-1]["digests"],
    }
    if args.trace:
        record["spans_by_name"] = []
        for t in tracers:
            s, own, calls_by_name = t.totals()
            record["spans_by_name"].append(
                {n: {"s": s[n], "self_s": own[n], "calls": calls_by_name[n]} for n in sorted(s)})
        with open(out_dir / f"{workload.name}-spans.json", "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "fields": ["id", "parent", "op", "name", "start", "end"],
                       "passes": [{"spans": t.spans, "counts": dict(t.counts)} for t in tracers]}, fh)
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(passes)} passes "
          f"of {len(calls)} invocations")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<40} {value:.6g} {unit}  (not gated)")
    print(f"  {'failed_ops':<40} {failed}/{attempted}")
    for e in errors[:5]:
        print(f"  error: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=RUN_LIMIT_S + 30)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        rows.append((name, result))
    names = [name for name, _ in rows]
    print(f"{'metric':<40}{'unit':<7}" + "".join(f"{name:>20}" for name in names))
    for metric, m in rows[0][1]["metrics"].items():
        print(f"{metric:<40}{m['unit']:<7}" + "".join(f"{r['metrics'][metric]['value']:>20.6g}" for _, r in rows))
    print(f"{'failed_ops':<47}" + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>20}" for _, r in rows))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "temponet" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'temponet'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)

    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        return run_workload(args)
    except (RunTimeout, RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
