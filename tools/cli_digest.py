"""Run a fixed corpus of mapcalc command lines and print one sha256 over
their outcomes, so two trees or two interpreters can be compared by one line.

    python3 tools/cli_digest.py

mapcalc is imported from the src/ next to this file's directory.  Every
run goes through mapcalc.cli.run in this process, in a scratch directory,
with inputs and outputs named by relative paths.  The digest covers, for
each run in order: the command line, the input text, the exit code,
stdout, stderr, and the text of the output file when the command wrote
one.  The "seconds" entry of every JSON object that --stats prints to
stderr is removed first, as it is the only part that changes from run to
run.

The corpus, 2147 runs:
  - the seed inputs of tests/test_cli_fuzz.py through each of their
    commands, then 2000 seeded mutants of them (its `mutate`, seed 27);
  - `verify --json` and `verify --json --stats` on the 24 maps of the
    `verify-large` benchmark workload (bench/workloads.py, seed 1);
  - `enumerate --size N --verify-absorption --stats` for N = 1, 2, 3, and
    `enumerate` on a few refused sizes;
  - `search --seed S --budget 2000 --subdiv 2 --stats` on the first 20
    graphs of the `search-subdiv` workload, written as .rot text, and on
    the 11 later ones that reach the randomized phase (RANDOMIZED_GRAPHS),
    with two seeds each.

Only the standard library and mapcalc are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import mapcalc  # noqa: E402
from mapcalc.cli import run  # noqa: E402
from test_cli_fuzz import COMMANDS, OUT, SEEDS, mutate  # noqa: E402
from workloads import SearchSubdiv, VerifyLarge  # noqa: E402

MUTANTS = 2000
MUTANT_SEED = 27
VERIFY_SEED = 1
SEARCH_GRAPHS = 20
# The search-subdiv graphs after the first SEARCH_GRAPHS whose
# candidate_count exceeds search.EXHAUSTIVE_LIMIT; with graphs 7 and 12
# they are all the pool's randomized searches.
RANDOMIZED_GRAPHS = (21, 23, 36, 47, 68, 72, 84, 91, 92, 97, 103)


def rotation_text(graph) -> str:
    """.rot text of a multigraph: each vertex lists its edge ends in edge
    order, a loop twice."""
    darts: list[list[int]] = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        darts[u].append(e + 1)
        darts[v].append(e + 1)
    return "".join(f"v {i + 1}: {' '.join(map(str, ids))}\n" for i, ids in enumerate(darts))


def corpus():
    """(input file name, its text, argv) for every run, in a fixed order;
    OUT in argv names the output file."""
    for kind, seeds in SEEDS.items():
        for text in seeds:
            for command in COMMANDS[kind]:
                yield f"in.{kind}", text, command
    rng = random.Random(MUTANT_SEED)
    for i in range(MUTANTS):
        kind = ("gem", "gem", "gem", "szw", "rot")[i % 5]
        text = mutate(rng, rng.choice(SEEDS[kind]))
        yield f"in.{kind}", text, rng.choice(COMMANDS[kind])
    for text in VerifyLarge().build(mapcalc, VERIFY_SEED):
        yield "in.gem", text, ["verify", "--json"]
        yield "in.gem", text, ["verify", "--json", "--stats"]
    for size in ("1", "2", "3"):
        yield None, None, ["enumerate", "--size", size, "--verify-absorption", "--stats"]
    for size in ("0", "-1", "x", "1_0"):
        yield None, None, ["enumerate", "--size", size, "--verify-absorption", "--stats"]
    pool = SearchSubdiv().build(mapcalc, 0)
    for graph, seed in pool[:SEARCH_GRAPHS] + [pool[i] for i in RANDOMIZED_GRAPHS]:
        for s in (seed, seed + 1000):
            command = ["search", "--seed", str(s), "--budget", "2000", "--subdiv", "2", "--stats", "-o", OUT]
            yield "in.rot", rotation_text(graph), command


def without_seconds(err: str) -> str:
    """stderr with the "seconds" entry dropped from each JSON object line."""
    lines = []
    for line in err.splitlines(keepends=True):
        try:
            data = json.loads(line)
        except ValueError:
            data = None
        if isinstance(data, dict) and "seconds" in data:
            del data["seconds"]
            line = json.dumps(data) + "\n"
        lines.append(line)
    return "".join(lines)


def outcome(name: str | None, text: str | None, command: list[str]) -> bytes:
    """The bytes one run contributes to the digest."""
    if os.path.exists("out"):
        os.remove("out")
    argv = ["out" if a == OUT else a for a in command]
    if name is not None:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [argv[0], name, *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    written = Path("out").read_text(encoding="utf-8") if os.path.exists("out") else None
    record = {"argv": argv, "input": text, "code": code, "stdout": out.getvalue(),
              "stderr": without_seconds(err.getvalue()), "written": written}
    return json.dumps(record, sort_keys=True).encode() + b"\n"


def main() -> int:
    total = hashlib.sha256()
    runs = 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, text, command in corpus():
                total.update(outcome(name, text, command))
                runs += 1
        finally:
            os.chdir(here)
    print(f"{runs} runs sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
