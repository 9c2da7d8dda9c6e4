"""Plant one fault at a time in a copy of src/ and check that the tests
named for it catch it.

    python3 tools/mutants.py

Each row of MUTANTS is one mutant: a file under src/mapcalc, text that
must occur in it exactly once, the text that replaces it, the test files
that must catch the fault, and the fast path it attacks.  The checkout's
src/, tests/, bench/, tools/ and pyproject.toml are copied to a temporary
directory.  Every named test file is first run there unchanged and must
pass.  Then each row is applied to the copy alone, its test files are run
with `python -m pytest -x -q`, and the file is restored.  A mutant is
killed when the tests fail or time out, and survives when they pass.  A
row may be marked equivalent, with the reason it changes no behaviour.

The exit status is 1 when a row's old text does not occur exactly once
(a refactor that moves the code updates its row in the same change), when
the unchanged tests fail, or when a mutant that is not marked equivalent
survives.  No bytecode is written in the copy, so a restored file is
never shadowed by the mutant's cached bytecode.  Only the standard
library is used, apart from pytest to run the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str  # under src/mapcalc
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/
    attacks: str
    equivalent: str = ""  # why the mutant changes no behaviour, if it does not


MUTANTS = (
    # spaces.cycle_space: the canonical basis read off the maximum-id tree.
    Mutant("spaces.py", "for e in range(len(edges) - 1, -1, -1):", "for e in range(len(edges)):",
           ("test_spaces.py",), "cycle_space: Kruskal in ascending order builds a minimum-id tree"),
    Mutant("spaces.py", "paths[u] ^ paths[v] ^ 1 << e", "paths[u] ^ paths[v]",
           ("test_spaces.py",), "cycle_space: a cycle without its non-tree edge"),
    Mutant("spaces.py", "paths[u] ^ paths[v] ^ 1 << e", "paths[u] ^ 1 << e",
           ("test_spaces.py",), "cycle_space: one end's tree path for the cycle's"),
    Mutant("spaces.py", "if len(tree) != n - 1:", "if False:",
           ("test_spaces.py",), "cycle_space: no connectivity check"),
    Mutant("spaces.py", "        if len(tree) == n - 1:  # every lower edge closes a cycle\n            break\n", "",
           ("test_spaces.py",), "cycle_space: no early stop once the tree is complete",
           "once n - 1 edges are kept, g has one component, so Kruskal keeps no lower edge"),
    # analysis.MapAnalysis.zigzag_kernels: ker c_P = Bv and ker c_P~ = Bf in O(m).
    Mutant("analysis.py", "if cycles != graph.n:", "if False:",
           ("test_analysis.py",), "zigzag_kernels: no link-cycle count check"),
    Mutant("analysis.py", "                if image:\n", "                if False:\n",
           ("test_analysis.py",), "zigzag_kernels: no star check"),
    Mutant("analysis.py", "                stars[u] ^= col\n                stars[v] ^= col\n",
           "                stars[u] ^= col\n",
           ("test_analysis.py",), "zigzag_kernels: one end of each star dropped"),
    # Trace-built words, operators and maps.
    Mutant("words.py", "        elif second[e] < 0:\n", "        elif True:\n",
           ("test_words.py",), "_single_gon_word: no third-crossing check"),
    Mutant("words.py", "    if len(order) != 4 * m:\n", "    if False:\n",
           ("test_words.py",), "_single_gon_word: no length check"),
    Mutant("words.py", "append((e, 1 if order[2 * first[e]] ^ x == b else -1))", "append((e, 1))",
           ("test_words.py",), "_single_gon_word: a constant sign"),
    Mutant("words.py", "order[2 * first[e]] ^ x == b else", "order[2 * first[e]] ^ x == b or x == 4 * e else",
           ("test_words.py",), "_single_gon_word: one offset pair's sign flipped"),
    Mutant("analysis.py", "cols = tuple(c ^ 1 << e for e, c in enumerate(zig.cols))",
           "cols = tuple(c ^ 1 for e, c in enumerate(zig.cols))",
           ("test_analysis.py",), "zigzag_complement: the wrong bit flipped in c_P~"),
    Mutant("codec.py", "return _prechecked(FlagMap, m=m, alpha=tuple(alpha))",
           "return _prechecked(FlagMap, m=m, alpha=alpha)",
           ("test_codec.py",), "_parse_gem_bulk: a list alpha"),
    # Prechecked builders and the dart check of RotationSystem.
    Mutant("search.py", "yield _prechecked(FlagMap, m=m, alpha=tuple(alpha))",
           "yield _prechecked(FlagMap, m=m, alpha=alpha)",
           ("test_construction.py",), "enumerate_maps: a list alpha, filled on after the yield"),
    Mutant("search.py", "rotations=tuple(rots),", "rotations=rots,",
           ("test_construction.py",), "_winner_map: a list of rotations"),
    Mutant("search.py", "return _prechecked(FlagMap, m=g.edge_count, alpha=tuple(alpha)), counts",
           "return _prechecked(FlagMap, m=g.edge_count, alpha=alpha), counts",
           ("test_construction.py",), "_winner_map: a winner with no subdivision built from a list alpha"),
    Mutant("codec.py", "tuple(tuple(map(_as_int, _pair(dart, \"dart\")))\n",
           "tuple(tuple(_pair(dart, \"dart\"))\n",
           ("test_construction.py",), "RotationSystem: a float dart taken for an int"),
    Mutant("codec.py", "tuple(tuple(map(_as_int, _pair(dart, \"dart\")))\n",
           "tuple(tuple(dart)\n",
           ("test_construction.py",), "RotationSystem: darts not read as pairs"),
    Mutant("gem.py", "        a, b = value\n    except (TypeError, ValueError):",
           "        a, b = value[:2]\n    except (TypeError, ValueError):",
           ("test_construction.py",), "_pair: the first two items of a longer value taken as a pair"),
    Mutant("gem.py", "        return iter(value)\n", "        return value\n",
           ("test_construction.py",), "_iterable: a value that is not iterable passed on unchecked"),
    # The constructor is the one check that alpha is a fixed-point-free
    # involution, and the builders that skip it prove it.
    Mutant("gem.py", "            if y == x:\n", "            if False:\n",
           ("test_gem.py",), "FlagMap: a fixed point accepted"),
    Mutant("gem.py", "            if alpha[y] != x:\n", "            if False:\n",
           ("test_gem.py",), "FlagMap: a permutation that is not an involution accepted"),
    Mutant("gem.py", "alpha=tuple(phi_inv[a[phi[x]]] for x in range(n))",
           "alpha=tuple(phi[a[phi[x]]] for x in range(n))",
           ("test_construction.py",), "apply_permutation: conjugated by phi in place of phi_inv"),
    Mutant("codec.py", "    if m < 1:\n        raise ValueError(\"need at least one rectangle\")\n", "",
           ("test_construction.py",), "_rotation_map: a map with no edges built"),
    # The walks jump to the next unlabelled flag or position.
    Mutant("gem.py", "start = gon_of.index(-1, start)", "start = gon_of.index(-1, start + 1)",
           ("test_gem.py",), "gon_labels: the first gon does not start at flag 0"),
    Mutant("words.py", "start = seen.index(False, start)", "start = seen.index(False, start + 2)",
           ("test_words.py",), "_link_cycles: the position after each start is skipped"),
    Mutant("words.py", "start = seen.index(False, start)", "start = seen.index(False, start + 1)",
           ("test_words.py",), "_link_cycles: the jump scans from the position after the start",
           "position start is marked when its walk begins, so the scan skips it either way"),
    Mutant("gem.py", "            seen[x] = seen[y] = True\n", "            seen[x] = True\n",
           ("test_gem.py",), "gon_count: the walk marks x but not x ^ partner"),
    # The randomized phase edits one flag list in place and undoes a
    # rejected move the same way.
    Mutant("search.py", "                rots[v] = kept\n                _link(alpha, (kept,), mask)\n",
           "                pass\n",
           ("test_search_eval.py",), "_randomized: a rejected swap not undone"),
    Mutant("search.py", "_link(alpha, (kept,), mask)", "_link(alpha, (rot,), mask)",
           ("test_search_eval.py",), "_randomized: a rejected swap undone by linking the new rotation"),
    Mutant("search.py", "                mask ^= 1 << e\n                _toggle_twist(alpha, e)\n            else:\n",
           "                mask ^= 1 << e\n            else:\n",
           ("test_search_eval.py",), "_randomized: a rejected twist not flipped back in the list"),
    # A kind with one gon skips its per-edge passes.
    Mutant("gem.py", "edges=((0, 0),) * (len(gon_of) >> 2))", "edges=((0, 0),) * (len(gon_of) >> 3))",
           ("test_construction.py",), "_gon_graph: a bouquet of m / 2 loops"),
    Mutant("spaces.py", "return Gf2Subspace(g.edge_count, ())", "return Gf2Subspace(g.edge_count, (1,))",
           ("test_construction.py",), "bond_space: a nonzero space on one vertex"),
    Mutant("analysis.py", "if graph.n == 1:  # every edge a loop", "if graph.n >= 1:  # every edge a loop",
           ("test_analysis.py",), "zigzag_kernels: the star check skipped on every graph"),
)


def run_tests(copy: Path, files: list[str]) -> str:
    """'passed', 'timed out', or 'failed' with the first failing test:
    pytest -x -q on the copy."""
    # pyproject.toml puts the copy's src/ first on sys.path.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{name}" for name in files)]
    try:
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out"
    if result.returncode == 0:
        return "passed"
    failures = [line.split()[1] for line in result.stdout.decode().splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return f"failed: {failures[0] if failures else 'exit ' + str(result.returncode)}"


def bad_rows() -> list[str]:
    """One line per row whose old text does not occur exactly once in its
    file; the tier-1 suite runs this static half too."""
    bad = []
    for mutant in MUTANTS:
        found = (ROOT / "src" / "mapcalc" / mutant.file).read_text().count(mutant.old)
        if found != 1:
            bad.append(f"BAD ROW    {mutant.file}: {mutant.attacks}: old text occurs {found} times")
    return bad


def main() -> int:
    rows = bad_rows()
    if rows:
        print("\n".join(rows))
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mapcalc-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        files = sorted({name for mutant in MUTANTS for name in mutant.tests})
        if run_tests(copy, files) != "passed":
            print(f"the unchanged tests do not pass: {' '.join(files)}")
            return 1
        for mutant in MUTANTS:
            path = copy / "src" / "mapcalc" / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                outcome = run_tests(copy, list(mutant.tests))
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - start
            if outcome != "passed":
                verdict = "killed"
            elif mutant.equivalent:
                verdict = "equivalent"
            else:
                verdict = "SURVIVED"
                bad += 1
            note = f" ({mutant.equivalent})" if verdict == "equivalent" else ""
            print(f"{verdict:11}{mutant.file}: {mutant.attacks}{note} [{outcome}, {seconds:.1f} s]")
    print(f"{len(MUTANTS)} mutants, {bad} surviving")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
