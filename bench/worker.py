"""Benchmark worker: runs ops against the library in a fresh interpreter.

    python bench/worker.py run PAYLOAD      # {"rounds": [[op, ...], ...], "seconds": s}
    python bench/worker.py trace PAYLOAD    # {"ops": [op, ...]}

``run`` is the closed loop: it times each public-API call with
perf_counter_ns, one op after the other, in whole rounds until about
``seconds`` have passed.  ``trace`` calls the layers bottom-up for each
op (Q~ keys, then transitions, then the expansion or reduction) and
records one span per layer call; the library caches are append-only, so
each span is close to that layer's self time.  Both modes turn results
into canonical text only after the clock has stopped, and print one
JSON object on stdout.  The code under test must be importable
(PYTHONPATH=src).
"""

import time

T_FIRST = time.monotonic_ns()
import qschubert  # noqa: E402
import qschubert.cli  # noqa: E402,F401  (the CLI's import cost, as `-m qschubert` pays it)

T_IMPORTED = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import workloads  # noqa: E402
from workloads import option, parse  # noqa: E402

q = qschubert


def call(op):
    """The public-API call that answers one op."""
    kind = op[0]
    if kind in ("mul", "pair"):
        i, j, ring = parse(op[1]), parse(op[2]), q.LGRing(int(option(op, "--n")))
        if kind == "pair":
            return q.pair(i, j, ring)
        return q.multiply(q.omega(i, ring), q.omega(j, ring))
    if kind == "qtilde":
        return q.qtilde(parse(op[1]))
    if kind == "schur-q":
        return q.schur_q(parse(op[1]))
    if kind == "evaluate":
        return q.evaluate(q.qtilde(parse(op[1])), int(option(op, "--n")))
    if kind == "expand":
        return q.in_qtilde_basis(q.elaborate(q.parse(op[1])))
    if kind == "betti":
        return q.betti(q.LGRing(int(option(op, "--n"))))
    if kind == "verify-tables":
        codim = option(op, "--codim")
        return [q.verify_record(r) for r in q.builtin_records()
                if codim is None or r.codim == int(codim)]
    raise ValueError(f"no library call for op {op!r}")


def canonical(op, result):
    """Canonical text of a result: the CLI's --json line where the CLI
    has one for this kind of result, else the CLI's text line."""
    kind = op[0]
    if kind == "mul":
        return json.dumps(result.json_obj())
    if kind == "pair":
        return json.dumps({"n": int(option(op, "--n")), "i": list(parse(op[1])),
                           "j": list(parse(op[2])), "value": result})
    if kind == "betti":
        return json.dumps({"n": int(option(op, "--n")), "betti": list(result)})
    if kind == "evaluate":
        return json.dumps(sorted([list(e), c] for e, c in result.terms.items()))
    return str(result)


def run(payload):
    seconds = payload["seconds"]
    raw = []
    rounds_done = 0
    start = perf_counter_ns()
    for ops in payload["rounds"]:
        if not workloads.keep_going(perf_counter_ns() - start, rounds_done, seconds):
            break
        for op in ops:
            t0 = perf_counter_ns()
            try:
                result, error = call(op), None
            except Exception as exc:  # counted as a failed op, the loop goes on
                result, error = None, repr(exc)
            raw.append((perf_counter_ns() - t0, op, result, error))
        rounds_done += 1
    loop_ns = perf_counter_ns() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"loop_ns": loop_ns, "rounds": rounds_done, "maxrss_kb": maxrss_kb,
            "results": [_finish(lat, op, result, error) for lat, op, result, error in raw]}


def _finish(latency_ns, op, result, error):
    if error is None:
        try:
            return [latency_ns, canonical(op, result), None]
        except Exception as exc:  # an output that cannot be rendered is a failure
            error = f"canonical form failed: {exc!r}"
    return [latency_ns, None, error]


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans: [op_id, layer, start_ns, end_ns, mul_ns].

    mul_ns is the time spent in SymPoly products made directly inside the
    span (products inside a sympoly.* span belong to that span).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = set()
        self.keys = set()
        self.keys_built = 0
        self.terms_out = 0
        self.transitions = {}   # (name, args) -> requests
        self.hits = 0
        self.requests = 0

    def span(self, op_id, layer, fn, *args):
        rec = [op_id, layer, 0, 0, 0]
        self.stack.append(rec)
        rec[2] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[3] = perf_counter_ns()
            self.stack.pop()
            self.spans.append(rec)

    def on_mul(self, elapsed_ns, result):
        if self.stack and not self.stack[-1][1].startswith("sympoly."):
            self.stack[-1][4] += elapsed_ns
            self.terms_out += len(getattr(result, "terms", ()))

    def count_terms(self, result):
        self.terms_out += len(getattr(result, "terms", ()))
        return result

    def build_keys(self, op_id, keys):
        """Layer 1: Q~ of every key the op needs that this process lacks."""
        new = [k for k in keys if k not in self.keys]
        self.keys.update(new)
        self.keys_built += len(new)
        self.span(op_id, "qtilde.build", lambda: [q.qtilde(k) for k in new])

    def transition(self, op_id, name, *args):
        """Layer 2: one transition request, if basisconv still has it."""
        fn = getattr(q.basisconv, name, None)
        if fn is None:
            self.absent.update(TRANSITION_METRICS)
            return
        info = getattr(fn, "cache_info", None)
        before = info().hits if info else None
        self.span(op_id, "basisconv.transition", fn, *args)
        self.requests += 1
        seen = self.transitions.get((name, args), 0)
        self.hits += (info().hits > before) if info else bool(seen)
        self.transitions[(name, args)] = seen + 1

    def matrix_stats(self):
        """Exact size counts of every distinct transition used."""
        dim_total = nnz = bits = 0
        for name, args in self.transitions:
            try:
                basis, _, matrix = getattr(q.basisconv, name)(*args)
                dim_total += len(basis)
                for row in matrix:
                    for x in row:
                        if x:
                            nnz += 1
                            bits = max(bits, abs(x).bit_length())
            except (TypeError, ValueError):
                self.absent.update(("basisconv.matrix_dim", "basisconv.matrix_nnz",
                                    "basisconv.coeff_bits_max"))
                return None
        return {"dim": dim_total, "nnz": nnz, "bits": bits}


TRANSITION_METRICS = ("basisconv.transition_ms", "basisconv.transition_hit_ratio",
                      "basisconv.matrix_dim", "basisconv.matrix_nnz",
                      "basisconv.coeff_bits_max")


def _ast_qkeys(node):
    """Q[...] atoms of a parsed expression (tuple AST), if it has that shape."""
    if isinstance(node, tuple) and node:
        if node[0] == "q":
            return [node[1]]
        return [k for child in node[1:] for k in _ast_qkeys(child)]
    return []


def _strict_upto(d, n):
    return [p for w in range(d + 1) for p in workloads.partitions(w, n, strict=True)]


def trace_product(tr, op_id, op):
    i, j = parse(op[1]), parse(op[2])
    n = int(option(op, "--n"))
    ring = q.LGRing(n)
    d = sum(i) + sum(j)
    tr.build_keys(op_id, [i, j] + _strict_upto(d, n))
    tr.transition(op_id, "module_transition", d, n)
    a, b = q.omega(i, ring), q.omega(j, ring)
    la, lb = tr.span(op_id, "schubert.lift", lambda: (a.lift(), b.lift()))
    p = tr.count_terms(tr.span(op_id, "sympoly.mul", lambda: la * lb))
    m = tr.span(op_id, "basisconv.solve", q.module_expand, p, n)
    product = tr.span(op_id, "schubert.reduce",
                      lambda: q.SchubertClass(ring, m.ring_part().coeffs))
    if op[0] == "pair":
        return tr.span(op_id, "schubert.reduce", q.integrate, product)
    return product


def trace_expand(tr, op_id, op):
    ast = tr.span(op_id, "exprio.parse", q.parse, op[1])
    tr.build_keys(op_id, _ast_qkeys(ast))
    tp = tr.span(op_id, "exprio.elaborate", q.elaborate, ast)
    # one request per graded piece of each t-power, as in_qtilde_basis makes them
    degrees = [d for p in tp.parts.values() for d in p.homogeneous_components() if d]
    tr.build_keys(op_id, [k for d in sorted(set(degrees)) for k in workloads.partitions(d)])
    for d in degrees:
        tr.transition(op_id, "additive_transition", d, None)
    return tr.span(op_id, "basisconv.solve", q.in_qtilde_basis, tp)


def trace_lib(tr, op_id, op):
    """Layers bottom-up for one op; returns the op's result."""
    kind = op[0]
    if kind in ("mul", "pair"):
        return trace_product(tr, op_id, op)
    if kind == "expand":
        return trace_expand(tr, op_id, op)
    if kind == "betti":
        return tr.span(op_id, "schubert.betti", q.betti, q.LGRing(int(option(op, "--n"))))
    if kind == "verify-tables":
        return tr.span(op_id, "thomtables.verify", call, op)
    key = parse(op[1])
    tr.build_keys(op_id, [key])
    qt = q.qtilde(key)
    if kind == "qtilde":
        return qt
    if kind == "schur-q":
        return tr.count_terms(tr.span(op_id, "sympoly.subst",
                                      lambda: q.subst(qt, q.chern_difference(sum(key)))))
    if kind == "evaluate":
        return tr.count_terms(tr.span(op_id, "sympoly.evaluate", q.evaluate, qt,
                                      int(option(op, "--n"))))
    raise ValueError(f"no traced path for op {op!r}")


def render(result):
    """What the CLI does with a result: its text and its JSON form."""
    items = result if isinstance(result, list) else [result]
    for item in items:
        if hasattr(item, "lines"):
            item.lines()
        else:
            str(item)
        if hasattr(item, "json_obj"):
            json.dumps(item.json_obj())


def trace(payload):
    tr = Tracer()
    orig_mul = q.SymPoly.__mul__

    def traced_mul(self, other):
        t0 = perf_counter_ns()
        result = orig_mul(self, other)
        tr.on_mul(perf_counter_ns() - t0, result)
        return result

    q.SymPoly.__mul__ = q.SymPoly.__rmul__ = traced_mul
    cli_ops = payload.get("cli", False)
    results = []
    try:
        for op_id, op in enumerate(payload["ops"]):
            op = [v for v in op if v != "--json"]
            t0 = perf_counter_ns()
            try:
                try:
                    result, error = trace_lib(tr, op_id, op), None
                except AttributeError as exc:
                    # a layer this decomposition reaches into is gone: time the
                    # public call instead and report the layer as absent
                    tr.absent.add(f"{op[0]}: {exc}")
                    result, error = tr.span(op_id, "op.untraced", call, op), None
                if cli_ops:
                    tr.span(op_id, "cli.render", render, result)
            except Exception as exc:  # counted as a failed op
                result, error = None, repr(exc)
            latency = perf_counter_ns() - t0
            results.append([latency, None, error] if cli_ops
                           else _finish(latency, op, result, error))
    finally:
        q.SymPoly.__mul__ = q.SymPoly.__rmul__ = orig_mul
    stats = tr.matrix_stats()
    return {"first_ns": T_FIRST, "imported_ns": T_IMPORTED, "spans": tr.spans,
            "results": results, "absent": sorted(tr.absent),
            "counters": {"keys_built": tr.keys_built, "terms_out": tr.terms_out,
                         "transition_requests": tr.requests, "transition_hits": tr.hits,
                         "matrix": stats}}


def main(argv):
    mode, path = argv[1], argv[2]
    with open(path) as fh:
        payload = json.load(fh)
    out = run(payload) if mode == "run" else trace(payload)
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
