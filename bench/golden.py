"""Write bench/golden.json: reference digests of every op a seed can draw.

    python3 bench/golden.py

Run it once, on the commit whose answers are the reference (the
shipped file was made at the commit that introduced the benchmark).  A
later change must reproduce these digests; regenerating the file to
make a change pass would defeat the gate.  Library ops are answered
in-process, CLI ops by `python -m qschubert`; every answer must also
pass the invariants in checks.py, or no file is written.  Takes about
three minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def lib_digests(ops):
    import qschubert

    out = {}
    for op in ops:
        text = worker.canonical(op, worker.call(op))
        reason = checks.invariant_failure(op, text, True)
        if reason is None and op[0] == "expand":
            reason = checks.expand_failure(qschubert, op, text, True)
        if reason:
            raise SystemExit(f"{op}: {reason}")
        out[checks.op_key(op)] = checks.digest(text)
    return out


def cli_digests(ops):
    import qschubert

    out = {}
    for op in ops:
        proc = subprocess.run([sys.executable, "-m", "qschubert", *op], cwd=ROOT,
                              env=run.child_env(), capture_output=True, text=True,
                              timeout=run.CHILD_TIMEOUT_S)
        reason = f"exit {proc.returncode}" if proc.returncode else None
        reason = reason or checks.invariant_failure(op, proc.stdout, False)
        if reason is None and op[0] == "expand":
            reason = checks.expand_failure(qschubert, op, proc.stdout, False)
        if reason:
            raise SystemExit(f"{op}: {reason}")
        out[checks.op_key(op)] = checks.digest(proc.stdout)
    return out


def main():
    golden = {
        "lg-products": lib_digests(workloads.all_ops("lg-products")),
        "qtilde-build": lib_digests(workloads.all_ops("qtilde-build")),
        "cli-cold": cli_digests(workloads.all_ops("cli-cold")),
        "baseline": lib_digests([op for rows in run.BASELINE_ROWS.values() for op, _ in rows]),
    }
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print({k: len(v) for k, v in golden.items()})


if __name__ == "__main__":
    main()
