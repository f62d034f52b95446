"""Seeded op streams for the benchmark workloads.

An op is a list of strings in the command-line syntax of ``qschubert``,
e.g. ``["mul", "6,4,2", "5,3,1", "--n", "6"]``.  The library workloads
run the same ops through the public API; ``evaluate`` is the one op with
no CLI counterpart.

Every workload is a sequence of rounds with a fixed composition.  The
seed picks which op fills each slot, from fixed pools whose outputs have
reference digests in ``golden.json``, and the order of the ops in a
round.  It never changes how many ops of each cost class a round holds,
so the median and the tail percentile land inside the same class on
every seed instead of on a boundary between classes.

This module is stdlib only and does not import the code under test, so
a change to the library cannot change the stream.
"""

import random
from functools import cache

WORKLOADS = ("lg-products", "qtilde-build", "cli-cold")

# most rounds a run may use; a run normally stops long before
MAX_ROUNDS = {"lg-products": 64, "qtilde-build": 100, "cli-cold": 8}

POOL = 24  # ops per pool slot class


def partitions(d, max_part=None, strict=False):
    """Partitions of d with parts <= max_part, descending lexicographic."""
    out = []

    def rec(rest, bound, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(bound, rest), 0, -1):
            rec(rest - p, p - 1 if strict else p, prefix + [p])

    rec(d, d if max_part is None else max_part, [])
    return out


def fmt(parts):
    return ",".join(map(str, parts)) if parts else "[]"


def parse(text):
    return () if text in ("", "[]") else tuple(int(v) for v in text.split(","))


def option(op, name):
    """Value following flag ``name`` in an op, or None."""
    return op[op.index(name) + 1] if name in op else None


def dim(n):
    return n * (n + 1) // 2


def complement(parts, n):
    return tuple(k for k in range(n, 0, -1) if k not in parts)


def strict_classes(n):
    """Strict partitions with parts <= n: the Schubert basis of LG(n)."""
    return [p for w in range(dim(n) + 1) for p in partitions(w, n, strict=True)]


def spread(items, k=POOL):
    """At most k items taken evenly from a list (fixed, not seeded)."""
    if len(items) <= k:
        return list(items)
    return [items[i * len(items) // k] for i in range(k)]


# ---------------------------------------------------------------- pools


@cache
def mul_pool(n, d):
    """Products S[I]*S[J] in LG(n) with |I| + |J| = d."""
    s = strict_classes(n)
    pairs = [(i, j) for i in s for j in s if i >= j and sum(i) + sum(j) == d]
    return [["mul", fmt(i), fmt(j), "--n", str(n)] for i, j in spread(pairs)]


@cache
def pair_pool(n):
    """Pairings of total degree dim LG(n): half complementary, half not."""
    s = strict_classes(n)
    comp = [(i, complement(i, n)) for i in s if i >= complement(i, n)]
    other = [(i, j) for i in s for j in s
             if i >= j and sum(i) + sum(j) == dim(n) and j != complement(i, n)]
    chosen = spread(comp, POOL // 2) + spread(other, POOL // 2)
    return [["pair", fmt(i), fmt(j), "--n", str(n)] for i, j in chosen]


def _factor(rng, left):
    """One factor of degree <= left: a power of ck or a Q[...] atom."""
    if left >= 3 and rng.random() < 0.3:
        w = rng.randint(2, min(6, left))
        parts = rng.choice([p for p in partitions(w) if len(p) <= 3])
        return f"Q[{fmt(parts)}]", w
    k = rng.randint(1, min(5, left))
    e = rng.randint(1, left // k)
    return (f"c{k}" if e == 1 else f"c{k}^{e}"), k * e


def _monomial(rng, d):
    factors, left = [], d
    while left:
        text, w = _factor(rng, left)
        factors.append(text)
        left -= w
    return "*".join(factors)


def _expression(rng, d):
    """A + t*B with A and B homogeneous of degree d: one transition, two solves."""
    c = [rng.randint(1, 5) for _ in range(4)]
    sign = rng.choice("+-")
    return (f"{c[0]}*{_monomial(rng, d)} {sign} {c[1]}*{_monomial(rng, d)}"
            f" + t*({c[2]}*{_monomial(rng, d)} - {c[3]}*{_monomial(rng, d)})")


def _both_formats(ops):
    return [v for op in ops for v in (op, op + ["--json"])]


@cache
def cli_pool(name):
    """CLI argument lists for one slot class of the cli-cold round."""
    kind, _, arg = name.partition(":")
    if kind == "expand":
        rng = random.Random(1000 + int(arg))
        ops = [["expand", _expression(rng, int(arg))] for _ in range(POOL // 2)]
    elif kind == "betti":
        ops = [["betti", "--n", arg]]
    elif kind == "mul":
        # one degree per n keeps the class's cost uniform
        ops = mul_pool(int(arg), {4: 8, 5: 12}[int(arg)])[::2]
    elif kind == "pair":
        ops = pair_pool(int(arg))[::2]
    elif kind == "qtilde":
        ops = [["qtilde", fmt(p)]
               for p in spread([p for w in range(5, 10) for p in partitions(w)], POOL // 2)]
    elif kind == "schur-q":
        ops = [["schur-q", fmt(p)]
               for p in spread([p for w in range(4, 9) for p in partitions(w)], POOL // 2)]
    elif kind == "verify-tables":
        ops = [["verify-tables"]] + [["verify-tables", "--codim", str(k)] for k in range(1, 7)]
    else:
        raise ValueError(f"unknown pool {name!r}")
    return _both_formats(ops)


# ---------------------------------------------------------------- rounds

# Each round of lg-products and cli-cold takes about 22 s at the seed
# commit, so with --seconds 20 a run is one round even when the machine
# is 35% faster or 80% slower; the class counts per round stay fixed.

# lg-products: per-op cost doubles with each degree in LG(6), from 24 ms
# at d=14 to 1.8 s at d=21.  Twenty d=19 ops put the tail percentile
# (the 11th slowest op) inside their block, and twenty d=14 ops in LG(6)
# hold the median.
LG_MANDATED = (["mul", "6,4,2", "5,3,1", "--n", "6"],
               ["mul", "5,3,1", "4,2", "--n", "5"])
LG_SLOTS = (  # (pool, ops per round)
    (("pair", 6), 1), (("mul", 6, 20), 2), (("mul", 6, 19), 20),
    (("mul", 6, 18), 10), (("mul", 6, 17), 10), (("mul", 6, 16), 10),
    (("mul", 6, 15), 10), (("mul", 6, 14), 20),
    (("pair", 5), 5), (("mul", 5, 15), 4), (("mul", 5, 14), 10),
    (("mul", 5, 13), 10), (("mul", 5, 12), 10), (("mul", 5, 11), 10),
    (("mul", 5, 10), 10),
)

# cli-cold: every op is a fresh interpreter.  The light commands (about
# 30 ms each, mostly interpreter start and import) are five sixths of
# the round, so the median sits at their 60th percentile, where spawn
# jitter moves it least.  Twenty-seven degree-15 expansions (about
# 430 ms each) hold the tail percentile; betti stops at n = 14 because
# n = 15, 16 (0.45 s, 0.93 s) would sit alone above that block and move
# the tail with the sample count.
CLI_SLOTS = (
    ("qtilde", 60), ("schur-q", 60), ("verify-tables", 30), ("mul:4", 48),
    ("pair:4", 30), ("betti:8", 6), ("betti:9", 6),
    ("mul:5", 3), ("pair:5", 3),
    ("betti:10", 1), ("betti:11", 1), ("betti:12", 1), ("betti:13", 1), ("betti:14", 1),
    ("expand:10", 2), ("expand:11", 2), ("expand:12", 2), ("expand:13", 2),
    ("expand:14", 2), ("expand:15", 27),
)


def lg_pool(slot):
    return pair_pool(slot[1]) if slot[0] == "pair" else mul_pool(slot[1], slot[2])


@cache
def qtilde_pass():
    """One qtilde-build pass: every Q~ key appears once.

    Weights 12-16 for qtilde (17 would add the lone 18x18 Pfaffian of
    (1^17), 150 ms, above a block of 6 ops at 45 ms, and the tail would
    flip between them with the pass count); schur_q on weights 1-9;
    evaluate on weights 10 (n=4) and 11 (n=5).  The weight ranges are
    disjoint, so no op rebuilds a key an earlier op built.
    """
    ops = [["qtilde", fmt(p)] for w in range(12, 17) for p in partitions(w)]
    ops += [["schur-q", fmt(p)] for w in range(1, 10) for p in partitions(w)]
    ops += [["evaluate", fmt(p), "--n", "4"] for p in partitions(10)]
    ops += [["evaluate", fmt(p), "--n", "5"] for p in partitions(11)]
    return tuple(ops)


def _lg_round(rng, first):
    if first:
        ops = [list(op) for op in LG_MANDATED]
    else:
        ops = [rng.choice(mul_pool(6, 21)), rng.choice(mul_pool(5, 15))]
    for slot, count in LG_SLOTS:
        pool = lg_pool(slot)
        ops += [rng.choice(pool) for _ in range(count)]
    rng.shuffle(ops)
    return ops


def _cli_round(rng):
    ops = [rng.choice(cli_pool(name)) for name, count in CLI_SLOTS for _ in range(count)]
    rng.shuffle(ops)
    return ops


def _qtilde_round(rng):
    ops = list(qtilde_pass())
    rng.shuffle(ops)
    return ops


def stream(workload, seed):
    """All rounds a run may use, fixed by the seed before any timing."""
    rng = random.Random(seed)
    rounds = MAX_ROUNDS[workload]
    if workload == "lg-products":
        return [_lg_round(rng, k == 0) for k in range(rounds)]
    if workload == "qtilde-build":
        return [_qtilde_round(rng) for _ in range(rounds)]
    if workload == "cli-cold":
        return [_cli_round(rng) for _ in range(rounds)]
    raise ValueError(f"unknown workload {workload!r}")


def all_ops(workload):
    """Every op any seed can produce: the keys golden.json must cover."""
    if workload == "lg-products":
        ops = [list(op) for op in LG_MANDATED] + mul_pool(6, 21) + mul_pool(5, 15)
        ops += [op for slot, _ in LG_SLOTS for op in lg_pool(slot)]
    elif workload == "qtilde-build":
        ops = list(qtilde_pass())
    else:
        ops = [op for name, _ in CLI_SLOTS for op in cli_pool(name)]
    unique = {tuple(op): list(op) for op in ops}
    return list(unique.values())


def keep_going(elapsed_ns, rounds_done, seconds):
    """Start another round only if the run then ends nearer to ``seconds``."""
    if not rounds_done:
        return True
    return elapsed_ns + elapsed_ns / rounds_done / 2 < seconds * 1e9


# ---------------------------------------------------------------- properties


def degree_label(op):
    kind = op[0]
    if kind in ("mul", "pair"):
        return f"{kind} n={option(op, '--n')} d={sum(parse(op[1])) + sum(parse(op[2]))}"
    if kind in ("qtilde", "schur-q", "evaluate"):
        return f"{kind} w={sum(parse(op[1]))}"
    if kind == "expand":
        return f"expand d={expand_degree(op[1])}"
    if kind == "betti":
        return f"betti n={option(op, '--n')}"
    return kind


def expand_degree(expr):
    """Degree of a homogeneous expression: that of its first monomial."""
    total = 0
    for factor in expr.split(" ")[0].split("*"):
        if factor.isdigit():
            continue
        if factor.startswith("Q["):
            total += sum(parse(factor[2:-1]))
        else:
            base, _, exp = factor.partition("^")
            total += int(base[1:]) * int(exp or 1)
    return total


def histogram(ops):
    hist = {}
    for op in ops:
        label = degree_label(op)
        hist[label] = hist.get(label, 0) + 1
    return dict(sorted(hist.items()))


def reuse_keys(op):
    """Q~ keys and transitions an op needs, as built by the library."""
    kind = op[0]
    if kind in ("mul", "pair"):
        n = option(op, "--n")
        d = sum(parse(op[1])) + sum(parse(op[2]))
        return [("Q", op[1]), ("Q", op[2]), ("module", d, n)]
    if kind in ("qtilde", "schur-q", "evaluate"):
        return [("Q", op[1])]
    if kind == "expand":
        return [("additive", expand_degree(op[1]))]
    return []


def reuse_share(processes):
    """Share of ops whose Q~ key or transition an earlier op in the same
    process already built.  ``processes`` lists the ops of each process."""
    total = reused = 0
    for ops in processes:
        seen = set()
        for op in ops:
            keys = reuse_keys(op)
            total += 1
            reused += any(k in seen for k in keys)
            seen.update(keys)
    return reused / total if total else 0.0
