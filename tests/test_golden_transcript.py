"""Replay a recorded transcript of the CLI and the demos, byte for byte.

Each CLI case runs ``python -m qschubert`` in a fresh process and must
reproduce the recorded stdout, stderr and exit code; each demo must
print the recorded stdout.  The transcript pins every rendering the
user sees, text and ``--json`` alike.  After a deliberate change of
output, re-record it with

    PYTHONPATH=src python3 tests/test_golden_transcript.py --record
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).with_name("golden_transcript.json")

CLI_CASES = (
    ("qtilde", "2,1"),
    ("qtilde", "2,1", "--json"),
    ("qtilde", "[]"),
    ("qtilde", "4,2,1"),
    ("qtilde", "3,3,1", "--json"),
    ("qtilde", "x,1"),
    ("qtilde", "1,2"),
    ("schur-q", "1"),
    ("schur-q", "1,1"),
    ("schur-q", "3,1", "--json"),
    ("expand", "c1^3"),
    ("expand", "c1^3", "--json"),
    ("expand", "Q[1] - Q[2] + t*Q[1]"),
    ("expand", "Q[1] - Q[2] + t*Q[1]", "--json"),
    ("expand", "c1^2", "--max-part", "2", "--json"),
    ("expand", "(c1 + t)^4*Q[2,1] - 3*c2*c1"),
    ("expand", "t^2*Q[2,1] + c2", "--max-part", "3", "--json"),
    ("expand", "c1^12"),
    ("expand", "2^70*c1 - 3^50*Q[2,2]"),
    ("expand", "(("),
    ("expand", "c3", "--max-part", "2"),
    ("expand", "c1^-2", "--json"),
    ("expand", "Q[4,3,2,1]*Q[3,2,1]*c1^2"),
    ("expand", "Q[4,3,2,1]*Q[3,2,1]*c1^2", "--json"),
    ("expand", "Q[2,1]^2*c1 - t*Q[2,1]*c3", "--max-part", "3"),
    ("mul", "2", "1", "--n", "3"),
    ("mul", "2,1", "2,1", "--n", "3", "--json"),
    ("mul", "6,4,2", "5,3,1", "--n", "6"),
    ("mul", "3,3", "1", "--n", "3"),
    ("mul", "4", "1", "--n", "3"),
    ("mul", "2", "1"),
    ("pair", "2,1", "3", "--n", "3"),
    ("pair", "3,1", "3,2", "--n", "3", "--json"),
    ("pair", "2", "2", "--n", "0"),
    ("betti", "--n", "4"),
    ("betti", "--n", "5", "--json"),
    ("betti", "--n", "0"),
    ("verify-tables",),
    ("verify-tables", "--json"),
    ("verify-tables", "--codim", "3"),
    ("verify-tables", "--codim", "5", "--json"),
    (),
)

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    return {"stdout": proc.stdout, "stderr": proc.stderr, "code": proc.returncode}


def _run_cli(argv):
    return _run(["-m", "qschubert", *argv])


def _run_demo(name):
    return _run([str(Path("demos") / name)])


def _load():
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda a: " ".join(a) or "<none>")
def test_cli_matches_transcript(argv):
    recorded = _load()["cli"][" ".join(argv)]
    assert _run_cli(argv) == recorded


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_transcript(name):
    recorded = _load()["demos"][name]
    assert _run_demo(name) == recorded


def test_transcript_covers_every_case():
    data = _load()
    assert set(data["cli"]) == {" ".join(a) for a in CLI_CASES}
    assert set(data["demos"]) == set(DEMOS)
    commands = {a[0] for a in CLI_CASES if a}
    assert commands == {"qtilde", "schur-q", "expand", "mul", "pair", "betti",
                        "verify-tables"}
    assert any(entry["code"] == 2 for entry in data["cli"].values())


def record():
    data = {
        "cli": {" ".join(a): _run_cli(a) for a in CLI_CASES},
        "demos": {name: _run_demo(name) for name in DEMOS},
    }
    TRANSCRIPT.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    record()
