"""The CLI golden corpus: calls whose exact output is pinned.

``calls()`` lists about 300 argument vectors over ``classify``, ``witness``,
``threshold``, ``family``, ``product``, ``bound``, ``search --n <= 6`` and
``protocol-run``, in both output styles, including refused inputs.  The only
floats are ``protocol-run``'s, and those are exact: it reconstructs by Pauli
algebra, so it prints the dealt amplitudes and fidelity 1.0.  ``tests/cli_golden.json``
holds each call's exit code, stdout and stderr; ``test_golden.py`` replays
them.  Rewrite the file only when an output is meant to change:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

from graphqss import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

_SOURCES = (
    ["--family", "cycle", "--n", "5"],
    ["--family", "cycle", "--n", "7"],
    ["--family", "path", "--n", "6"],
    ["--family", "complete", "--n", "4"],
    ["--family", "random", "--n", "7", "--p", "0.5", "--seed", "3"],
    ["--family", "random", "--n", "8", "--p", "0.4", "--seed", "11"],
)


def _subset(rng: random.Random, n: int) -> str:
    return ",".join(str(v) for v in sorted(rng.sample(range(n), rng.randint(1, n))))


def calls() -> list[list[str]]:
    rng = random.Random(2024)
    out: list[list[str]] = []
    for i in range(144):
        src = _SOURCES[i % len(_SOURCES)]
        n = int(src[3])
        cmd = ("classify", "witness")[i % 2]
        argv = [cmd, *src, "--B", _subset(rng, n)]
        if i % 3 == 0:
            argv += ["--A", _subset(rng, n)]
        out.append(argv)
    for src in _SOURCES:
        n = int(src[3])
        out.append(["threshold", *src])
        out.extend(["threshold", *src, "--A", _subset(rng, n)] for _ in range(4))
    for kind in ("cycle", "path", "complete"):
        out.extend(["family", "--family", kind, "--n", str(n)] for n in (1, 2, 3, 6))
    out.extend(
        ["family", "--family", "random", "--n", "9", "--p", p, "--seed", str(s)]
        for p in ("0.3", "0.7")
        for s in (0, 5)
    )
    out.append(["family", "--family", "c5pow", "--i", "1"])
    for _ in range(30):
        n1, n2 = rng.randint(1, 9), rng.randint(1, 9)
        k1, k2 = rng.randint(1, n1), rng.randint(1, n2)
        out.append(["product", "--n1", str(n1), "--k1", str(k1), "--n2", str(n2), "--k2", str(k2)])
    for _ in range(50):
        n = rng.randint(1, 200)
        out.append(["bound", "--n", str(n), "--k", str(rng.randint(n // 2 + 1, n))])
    out.extend(["bound", "--pure-qss", "--max-k", str(m)] for m in (0, 1, 2, 5, 12, 40))
    out.extend(["search", "--n", str(n)] for n in range(-1, 6))
    out += [
        ["threshold", "--family", "cycle", "--n", "5", "--A", "x"],
        ["classify", "--family", "cycle", "--n", "5", "--B", "0,x"],
        ["classify", "--family", "cycle", "--n", "5", "--B", "7"],
        ["classify", "--family", "cycle", "--n", "5"],
        ["witness", "--family", "cycle", "--n", "5", "--B", ""],
        ["threshold", "--family", "c5pow"],
        ["threshold", "--family", "cycle"],
        ["threshold", "--family", "random", "--n", "5"],
        ["threshold", "--family", "complete", "--n", "27"],
        ["family", "--family", "complete", "--n", "3126"],
        ["family", "--family", "cycle", "--n", "0"],
        ["bound", "--n", "5"],
        ["bound", "--n", "10", "--k", "5"],
        ["bound", "--pure-qss", "--max-k", "-1"],
        ["product", "--n1", "5", "--k1", "6", "--n2", "5", "--k2", "3"],
        ["search", "--n", "7"],
        ["classify", "--B", "0"],
        ["bogus"],
    ]
    # every third call in compact style, the rest indented
    styled = [["--json", *argv] if i % 3 == 0 else argv for i, argv in enumerate(out)]
    # all 360 attainers of n = 6 in both styles, after the others so that none moves
    styled += [["--json", "search", "--n", "6"], ["search", "--n", "6"]]
    # protocol runs, appended last for the same reason: C5 under the pads
    # (1,1), (0,0), (0,1) and (1,0), with two classical-only players, and the
    # 13-cycle, past the 12 qubits a dense register allowed
    c5 = ["protocol-run", "--family", "cycle", "--n", "5", "--k", "3"]
    runs = [[*c5, "--coalition", "0,1,2", "--secret", "-0.6,0.8", "--seed", str(s)] for s in (0, 1, 4, 7)]
    runs.append([*c5, "--c", "2", "--coalition", "0,2,3,5,6", "--seed", "12"])
    team = ",".join(map(str, range(11)))
    runs.append(["protocol-run", "--family", "cycle", "--n", "13", "--k", "11", "--coalition", team])
    return styled + [["--json", *argv] if i % 2 == 0 else argv for i, argv in enumerate(runs)]


def record(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    GOLDEN.write_text(json.dumps([record(argv) for argv in calls()], indent=1) + "\n")
