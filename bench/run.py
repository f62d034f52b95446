"""qschubert benchmark: one command, three seeded workloads, every answer checked.

    python3 bench/run.py --workload lg-products --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the exact rounds):

  lg-products   multiply/pair of Schubert classes in LG(5) and LG(6), one
                fresh worker; transitions repeat, so this is the warm-cache,
                solve-bound case
  qtilde-build  qtilde, schur_q and evaluate on keys no earlier op in the
                process built; one fresh worker per pass over all keys
  cli-cold      every op is its own `python -m qschubert ...` process

Load is a closed loop from one client with one worker process at a time;
the benchmark starts no threads.  The run measures whole rounds until
about --seconds have passed.  Metrics are named in BENCHMARK.json at the
root of the checkout:

  --trace 0   end-to-end metrics, measured with no tracing at all
  --trace 1   per-layer metrics from a separate traced pass over the
              seed's first round, which calls the layers bottom-up from
              the benchmark's own code (nothing in src/ is instrumented);
              it also times the same round untraced to report the tracing
              overhead, and the ROADMAP baseline rows

End-to-end metrics: setup_s is the median, over 9 fresh interpreters,
of spawn to `import qschubert` returning (bytecode compiled first);
op_p50_ms and op_tail_ms are the median and the highest percentile with
at least 10 samples beyond it (the report states which, and the count);
ops_per_s is ops over the wall time of the op stream; peak_rss_mib is
the median over rounds of the largest maximum RSS (getrusage/wait4)
among the processes that ran the round.

Per-layer metrics (trace 1) are totals over the traced round, in ms of
self time unless named otherwise: cli.interp_start_ms and cli.import_ms
are medians per interpreter (spawn to first statement; `import
qschubert.cli`); sympoly.mul_ms holds every SymPoly product, so the
other layers exclude the products made inside them; keys_built,
terms_out, matrix_dim, matrix_nnz and coeff_bits_max are exact counts
over the distinct Q~ keys and transitions the round used;
transition_hit_ratio is the share of transition requests already built
in the process; trace.overhead_pct compares the traced and untraced
round.  A layer the decomposition cannot reach (say, a transition
function a refactor removed) is listed under absent_layers and reads 0.

Every op's output is checked against a reference digest and exact
invariants (checks.py); any failure makes the exit status 1.  A
human-readable report precedes the final line, which is the JSON result.
The report, per-op latencies and the spans are also written to
bench/out/.  Self-tests: python3 -m unittest discover -s bench.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable

SETUP_SPAWNS = 9
CHILD_TIMEOUT_S = 150
SETUP_CODE = ("import time; t0 = time.monotonic_ns(); import qschubert; "
              "t1 = time.monotonic_ns(); import qschubert.cli; "
              "print(t0, t1, time.monotonic_ns())")

BASELINE_ROWS = {  # ROADMAP "baseline measured at this re-anchor", in seconds
    "lg-products": [(["mul", "5,3,1", "4,2", "--n", "5"], 0.02),
                    (["mul", "6,4,2", "5,3,1", "--n", "6"], 1.64)],
    "cli-cold": [(["expand", "c1^12"], 0.05), (["expand", "c1^13"], None),
                 (["expand", "c1^14"], 0.14), (["expand", "c1^15"], None),
                 (["expand", "c1^16"], 0.78), (["betti", "--n", "16"], 0.8)],
    "qtilde-build": [],
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a child hung, ...)."""


def _on_alarm(signum, frame):
    raise TimeoutError("a child process exceeded its time limit")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


Child = namedtuple("Child", "code out err wall_ns maxrss_kb spawn_ns")


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run argv in the checkout; wall time includes spawn and exit.

    Output is appended to files, so the child can be reaped with wait4,
    which reports its own peak RSS.  (Truncating a used file before each
    child can cost tens of milliseconds on some file systems.)
    """
    with open(OUT / "child.stdout", "a+b") as out, open(OUT / "child.stderr", "a+b") as err:
        out_pos, err_pos = out.seek(0, os.SEEK_END), err.seek(0, os.SEEK_END)
        start = time.perf_counter_ns()
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env())
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(out_pos)
        err.seek(err_pos)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), wall,
                     usage.ru_maxrss, spawn_ns)


def run_worker(mode, payload, timeout=CHILD_TIMEOUT_S):
    path = OUT / "payload.json"
    path.write_text(json.dumps(payload))
    child = run_child([PY, str(BENCH / "worker.py"), mode, str(path)], timeout)
    if child.code != 0:
        raise BenchError(f"worker exited with {child.code}: {child.err.strip()[-2000:]}")
    result = json.loads(child.out)
    result["spawn_ns"] = child.spawn_ns
    result["wall_ns"] = child.wall_ns
    return result


# ---------------------------------------------------------------- environment


def environment():
    """Python, CPU, commit and bytecode state; then warms the bytecode."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = sorted((SRC / "qschubert").glob("*.py"))
    src_digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources))
    pyc_warm = all(
        Path(importlib.util.cache_from_source(p)).is_file()
        and Path(importlib.util.cache_from_source(p)).stat().st_mtime >= p.stat().st_mtime
        for p in sources)
    child = run_child([PY, "-m", "compileall", "-q", str(SRC / "qschubert"), str(BENCH)])
    if child.code != 0:
        raise BenchError(f"cannot compile the sources: {child.err.strip()}")
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "commit": commit,
            "src_sha256": src_digest.hexdigest(), "pyc_warm_before_run": pyc_warm}


def measure_setup():
    """Spawn-to-import times of fresh interpreters, bytecode warm."""
    setup, interp, imports = [], [], []
    for _ in range(SETUP_SPAWNS):
        child = run_child([PY, "-c", SETUP_CODE])
        if child.code != 0:
            raise BenchError(f"cannot import qschubert: {child.err.strip()[-2000:]}")
        t0, t1, t2 = map(int, child.out.split())
        setup.append(t1 - child.spawn_ns)
        interp.append(t0 - child.spawn_ns)
        imports.append(t2 - t0)
    return {"setup_s": statistics.median(setup) / 1e9,
            "interp_start_ms": statistics.median(interp) / 1e6,
            "import_ms": statistics.median(imports) / 1e6}


# ---------------------------------------------------------------- untraced runs


def measure(workload, rounds, seconds):
    """The closed-loop op stream.  Returns latencies, outputs and RSS."""
    if workload == "lg-products":
        res = run_worker("run", {"rounds": rounds, "seconds": seconds})
        processes = [[op for rnd in rounds[:res["rounds"]] for op in rnd]]
        return {"ops": processes[0], "results": res["results"], "stream_ns": res["loop_ns"],
                "round_rss_kb": [res["maxrss_kb"]], "rounds": res["rounds"],
                "processes": processes, "exit_codes": [0] * len(processes[0])}
    out = {"ops": [], "results": [], "stream_ns": 0, "round_rss_kb": [], "rounds": 0,
           "processes": [], "exit_codes": []}
    start = time.perf_counter_ns()
    for rnd in rounds:
        if not workloads.keep_going(time.perf_counter_ns() - start, out["rounds"], seconds):
            break
        if workload == "qtilde-build":
            res = run_worker("run", {"rounds": [rnd], "seconds": 0})
            out["results"] += res["results"]
            out["stream_ns"] += res["loop_ns"]
            out["round_rss_kb"].append(res["maxrss_kb"])
            out["exit_codes"] += [0] * len(rnd)
            out["processes"].append(rnd)
        else:
            peak = 0
            for op in rnd:
                child = run_child([PY, "-m", "qschubert", *op])
                out["results"].append([child.wall_ns, child.out, None])
                out["exit_codes"].append(child.code)
                out["stream_ns"] += child.wall_ns
                peak = max(peak, child.maxrss_kb)
                out["processes"].append([op])
            out["round_rss_kb"].append(peak)
        out["ops"] += rnd
        out["rounds"] += 1
    return out


def gate(workload, ops, results, exit_codes, golden, lib):
    """Check every op; returns the list of (op, reason) failures."""
    failures = []
    expands = []
    for op, (_, text, error), code in zip(ops, results, exit_codes):
        reason = error or checks.check(golden, op, text, lib, code)
        if reason:
            failures.append((op, reason))
        elif op[0] == "expand":
            expands.append((op, text))
    if expands:
        # the round trip needs the library; it runs after all timing
        sys.path.insert(0, str(SRC))
        import qschubert
        for op, text in expands:
            reason = checks.expand_failure(qschubert, op, text, lib)
            if reason:
                failures.append((op, reason))
    return failures


def end_to_end(setup, run):
    lat = [r[0] for r in run["results"]]
    value, pct, beyond = checks.tail(lat)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (value / 1e6, "ms"),
        "ops_per_s": (len(lat) / (run["stream_ns"] / 1e9), "1/s"),
        # per round, the largest process; the median over rounds does not
        # grow with the number of rounds a faster program fits in
        "peak_rss_mib": (statistics.median(run["round_rss_kb"]) / 1024, "MiB"),
    }
    tail_info = {"percentile": round(pct, 3), "samples": len(lat), "samples_beyond": beyond}
    return metrics, tail_info


# ---------------------------------------------------------------- traced run


def traced(workload, ops, setup):
    """Per-layer totals over one round, traced from outside the library."""
    cli = workload == "cli-cold"
    if cli:
        parts = []
        for op in ops:
            res = run_worker("trace", {"ops": [op], "cli": True})
            res["interp_ns"] = res["first_ns"] - res["spawn_ns"]
            parts.append(res)
    else:
        parts = [run_worker("trace", {"ops": ops})]
    spans, results, absent = [], [], set()
    counters = {"keys_built": 0, "terms_out": 0, "transition_requests": 0,
                "transition_hits": 0}
    matrix = {"dim": 0, "nnz": 0, "bits": 0}
    for offset, res in enumerate(parts):
        spans += [[s[0] + (offset if cli else 0)] + s[1:] for s in res["spans"]]
        results += res["results"]
        absent.update(res["absent"])
        for k in counters:
            counters[k] += res["counters"][k]
        if res["counters"]["matrix"]:
            m = res["counters"]["matrix"]
            matrix = {"dim": matrix["dim"] + m["dim"], "nnz": matrix["nnz"] + m["nnz"],
                      "bits": max(matrix["bits"], m["bits"])}
    self_ms = {}
    mul_ms = 0.0
    for _, layer, t0, t1, mul_ns in spans:
        self_ms[layer] = self_ms.get(layer, 0.0) + (t1 - t0 - mul_ns) / 1e6
        mul_ms += mul_ns / 1e6
    if cli:
        interp = statistics.median([p["interp_ns"] for p in parts]) / 1e6
        imports = statistics.median([p["imported_ns"] - p["first_ns"] for p in parts]) / 1e6
        traced_ns = sum(p["wall_ns"] for p in parts)
    else:
        interp, imports = setup["interp_start_ms"], setup["import_ms"]
        traced_ns = sum(r[0] for r in results)
    requests = counters["transition_requests"]
    layer = {
        "cli.interp_start_ms": (interp, "ms"),
        "cli.import_ms": (imports, "ms"),
        "cli.render_ms": (self_ms.get("cli.render", 0.0), "ms"),
        "exprio.parse_ms": (self_ms.get("exprio.parse", 0.0), "ms"),
        "exprio.elaborate_ms": (self_ms.get("exprio.elaborate", 0.0), "ms"),
        "qtilde.build_ms": (self_ms.get("qtilde.build", 0.0), "ms"),
        "qtilde.keys_built": (counters["keys_built"], "count"),
        "sympoly.mul_ms": (self_ms.get("sympoly.mul", 0.0) + mul_ms, "ms"),
        "sympoly.subst_ms": (self_ms.get("sympoly.subst", 0.0), "ms"),
        "sympoly.evaluate_ms": (self_ms.get("sympoly.evaluate", 0.0), "ms"),
        "sympoly.terms_out": (counters["terms_out"], "count"),
        "basisconv.transition_ms": (self_ms.get("basisconv.transition", 0.0), "ms"),
        "basisconv.transition_hit_ratio": (counters["transition_hits"] / requests
                                           if requests else 0.0, "ratio"),
        "basisconv.matrix_dim": (matrix["dim"], "count"),
        "basisconv.matrix_nnz": (matrix["nnz"], "count"),
        "basisconv.coeff_bits_max": (matrix["bits"], "bits"),
        "basisconv.solve_ms": (self_ms.get("basisconv.solve", 0.0), "ms"),
        "schubert.lift_ms": (self_ms.get("schubert.lift", 0.0), "ms"),
        "schubert.reduce_ms": (self_ms.get("schubert.reduce", 0.0), "ms"),
        "schubert.betti_ms": (self_ms.get("schubert.betti", 0.0), "ms"),
        "thomtables.verify_ms": (self_ms.get("thomtables.verify", 0.0), "ms"),
    }
    return {"layer": layer, "results": results, "absent": sorted(absent), "spans": spans,
            "traced_ns": traced_ns, "self_ms": self_ms}


def baseline_rows(workload):
    """The ROADMAP baseline rows, each in its own fresh worker."""
    ops, results, rows = [], [], []
    for op, roadmap_s in BASELINE_ROWS[workload]:
        res = run_worker("run", {"rounds": [[op]], "seconds": 0})
        ops.append(op)
        results += res["results"]
        rows.append({"op": op, "seconds": res["results"][0][0] / 1e9,
                     "roadmap_seconds": roadmap_s})
    return ops, results, rows


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def bench(args):
    if not (SRC / "qschubert" / "__init__.py").is_file():
        raise BenchError(f"no qschubert sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((BENCH / "golden.json").read_text())
    golden = references[args.workload]
    OUT.mkdir(exist_ok=True)
    for name in ("child.stdout", "child.stderr"):
        (OUT / name).unlink(missing_ok=True)
    env = environment()
    rounds = workloads.stream(args.workload, args.seed)   # before any timing
    setup = measure_setup()
    lib = args.workload != "cli-cold"
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup": setup}

    if args.trace:
        # one round, untraced then traced, on the same inputs
        ops = rounds[0]
        run = measure(args.workload, rounds[:1], 0)
        tr = traced(args.workload, ops, setup)
        row_ops, row_results, rows = baseline_rows(args.workload)
        untraced_ns = run["stream_ns"]
        layer = tr["layer"]
        layer["trace.overhead_pct"] = (100.0 * (tr["traced_ns"] - untraced_ns) / untraced_ns, "%")
        failures = gate(args.workload, run["ops"], run["results"], run["exit_codes"], golden, lib)
        if lib:
            failures += gate(args.workload, ops, tr["results"], [0] * len(ops), golden, lib)
        else:
            failures += [(op, r[2]) for op, r in zip(ops, tr["results"]) if r[2]]
        failures += gate(args.workload, row_ops, row_results, [0] * len(row_ops),
                         references["baseline"], True)
        attempted = len(run["ops"]) + len(ops) + len(rows)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: layer[name] for name in names}
        report.update({"absent_layers": tr["absent"], "baseline_rows": rows,
                       "untraced_round_ms": untraced_ns / 1e6,
                       "traced_round_ms": tr["traced_ns"] / 1e6,
                       "layer_self_ms": tr["self_ms"]})
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {"columns": ["op", "layer", "start_ns", "end_ns", "mul_ns"], "spans": tr["spans"],
             "ops": ops}))
    else:
        run = measure(args.workload, rounds, args.seconds)
        failures = gate(args.workload, run["ops"], run["results"], run["exit_codes"], golden, lib)
        attempted = len(run["ops"])
        e2e, tail_info = end_to_end(setup, run)
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: e2e[name] for name in names}
        report["tail"] = tail_info

    report.update({
        "rounds": run["rounds"],
        "workload_properties": {"degree_histogram": workloads.histogram(run["ops"]),
                                "reuse_share": workloads.reuse_share(run["processes"])},
        "error_rate": len(failures) / attempted,
        "failures": [{"op": op, "reason": reason} for op, reason in failures[:20]],
    })
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    latencies = [[workloads.degree_label(op), r[0] / 1e6]
                 for op, r in zip(run["ops"], run["results"])]
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result, "latencies_ms": latencies}))
    return report, result


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        report, result = bench(args)
    except (BenchError, OSError, TimeoutError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
