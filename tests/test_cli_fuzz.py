"""Seeded fuzzing of the command line: mutated .gem, .szw and .rot inputs
go through all nine commands in process, and each run must end with an
exit code (0 to 3), never an exception or a traceback."""

from __future__ import annotations

import random

from conftest import K4_ROT, K33_TOKENS, k33_map, single_face_dual
from mapcalc import sphere_loop_map, write_gem
from mapcalc.cli import run

SEEDS = {
    "gem": [write_gem(k33_map()), write_gem(sphere_loop_map()), write_gem(single_face_dual())],
    "szw": [K33_TOKENS + "\n", "1 1\n", "1 2 -1 2\n"],
    "rot": [K4_ROT, "v 1: 1 1\n", "v 1: 1 2\nv 2: 1 2\n"],
}

# Commands per input kind; OUT stands for an output path.
OUT = "OUT"
COMMANDS = {
    "gem": [
        ["validate"],
        ["info"],
        ["omega", "--perm", "lsd", "-o", OUT],
        ["omega", "--perm", "dls", "--rects", "1,2", "-o", OUT],
        ["word", "--kind", "z"],
        ["word", "--kind", "v"],
        ["ops"],
        ["verify", "--json", "--stats"],
    ],
    "szw": [["from-word", "-o", OUT]],
    "rot": [["search", "--budget", "300", "--subdiv", "1", "--stats", "-o", OUT]],
}

JUNK = ("-0", "99999999999", "x", "1.5", "1_0", "+3", "٣", "a", "v", "gem", ":", "#", "")


def token(rng: random.Random) -> str:
    """A small integer half the time, else a token no parser should take."""
    return str(rng.randint(-2, 40)) if rng.random() < 0.5 else rng.choice(JUNK)


def mutate(rng: random.Random, text: str) -> str:
    """One to three random edits of lines, tokens or characters.  A swap
    of two tokens, the most frequent edit, often leaves the input
    parseable, so the commands get past their parsers."""
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2, 3))):
        if not lines:
            lines = [token(rng)]
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        op = rng.randrange(9)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            tokens.insert(rng.randint(0, len(tokens)), token(rng))
            lines[i] = " ".join(tokens)
        elif op == 3 and tokens:
            tokens[rng.randrange(len(tokens))] = token(rng)
            lines[i] = " ".join(tokens)
        elif op == 4:
            joined = "\n".join(lines)
            lines = joined[: rng.randrange(len(joined) + 1)].splitlines()
        elif op == 5:
            lines.insert(i, " ".join(token(rng) for _ in range(rng.randint(1, 4))))
        else:  # swap two tokens, neither the first of its line
            j = rng.randrange(len(lines))
            other = tokens if j == i else lines[j].split()
            if len(tokens) > 1 and len(other) > 1:
                a, b = rng.randrange(1, len(tokens)), rng.randrange(1, len(other))
                tokens[a], other[b] = other[b], tokens[a]
                lines[j] = " ".join(other)
                lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_inputs_end_with_an_exit_code(tmp_path, capsys):
    rng = random.Random(16)
    codes = set()
    for i in range(200):
        kind = ("gem", "gem", "gem", "szw", "rot")[i % 5]
        path = tmp_path / f"in.{kind}"
        path.write_text(mutate(rng, rng.choice(SEEDS[kind])), encoding="utf-8")
        command = rng.choice(COMMANDS[kind])
        argv = [str(tmp_path / "out") if a == OUT else a for a in command]
        code = run([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, path.read_text(encoding="utf-8"))
        assert "Traceback" not in err
        codes.add(code)
    for size in ("1", "2", "0", "-1", "x", "", "٣", "1_0", "+1"):
        code = run(["enumerate", "--size", size, "--verify-absorption", "--stats"])
        assert code in (0, 2) and "Traceback" not in capsys.readouterr().err
    # The mutants reach the success, usage and not-applicable exits.
    assert codes >= {0, 2, 3}
