"""End-to-end tests of the command line, its outputs and exit codes."""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import re
from pathlib import Path

import pytest

from conftest import K4_ROT, K33_TOKENS, count_calls
import mapcalc
from mapcalc import (
    enumerate_maps,
    gon_counts,
    parse_gem,
    single_edge_map,
    sphere_loop_map,
    write_gem,
    zigzag_map_from_word,
)
from mapcalc import cli, gem
from mapcalc.cli import build_parser, run
from mapcalc.codec import parse_word
from mapcalc.theorems import GROUPS, THEOREM_IDS

README = Path(__file__).resolve().parent.parent / "README.md"
TWO_SPHERES = "gem 2\na 1 2\na 3 0\na 5 6\na 7 4\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["s1"] = tmp_path / "s1.gem"
    paths["s1"].write_text(write_gem(sphere_loop_map()))
    paths["k33"] = tmp_path / "k33.gem"
    paths["k33"].write_text(write_gem(zigzag_map_from_word(parse_word(K33_TOKENS))))
    paths["k33w"] = tmp_path / "k33.szw"
    paths["k33w"].write_text(K33_TOKENS + "\n")
    paths["k4"] = tmp_path / "k4.rot"
    paths["k4"].write_text(K4_ROT)
    paths["loop"] = tmp_path / "loop.rot"
    paths["loop"].write_text("v 1: 1 1\n")
    paths["bad"] = tmp_path / "bad.gem"
    paths["bad"].write_text("gem 1\na 0 3\n")
    paths["split"] = tmp_path / "split.gem"
    paths["split"].write_text(TWO_SPHERES)
    paths["tmp"] = tmp_path
    return paths


def run_cli(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(files, capsys):
    code, out, _ = run_cli(capsys, "validate", files["s1"])
    assert code == 0
    assert out == "involution: ok\nfixed_point_free: ok\nconnected: ok\nmap: valid\n"


def test_validate_reports_failures(files, capsys):
    code, out, _ = run_cli(capsys, "validate", files["split"])
    assert code == 1
    assert "connected: FAIL" in out
    assert "map: INVALID" in out


def test_info(files, capsys):
    code, out, _ = run_cli(capsys, "info", files["k33"])
    assert code == 0
    lines = out.splitlines()
    assert "edges: 9" in lines
    assert "gons: v=6 f=4 z=1" in lines
    assert "chi: 1" in lines
    assert "xi: 1" in lines
    assert "orientable: no" in lines
    assert "loops: none" in lines


def test_info_loop_balance(files, capsys):
    code, out, _ = run_cli(capsys, "info", files["s1"])
    assert code == 0
    assert "loops: 1=balanced" in out


def test_omega_writes_the_dual(files, capsys):
    out_path = files["tmp"] / "dual.gem"
    code, out, _ = run_cli(capsys, "omega", files["s1"], "--perm", "lsd", "-o", out_path)
    assert code == 0
    assert "(v=2 f=1 z=1)" in out
    written = parse_gem(out_path.read_text())
    assert gon_counts(written) == (2, 1, 1)


def test_omega_rect_subset(files, capsys):
    out_path = files["tmp"] / "partial.gem"
    code, _, _ = run_cli(capsys, "omega", files["k33"], "--rects", "1,3", "--perm", "dls", "-o", out_path)
    assert code == 0
    assert parse_gem(out_path.read_text()).m == 9


# sha256 of the .gem text `omega` writes for K3,3, per (--perm, --rects).
OMEGA_PINS = {
    ("sld", None): "25b4d80070e26efb3f0b805c409c7727794bfbab2d4e38bdab94afc46b377dad",
    ("sld", "1,3"): "25b4d80070e26efb3f0b805c409c7727794bfbab2d4e38bdab94afc46b377dad",
    ("lsd", None): "f31f7041acf8b68f7e5ac97420ac33a18ca53612e11e9136c398930ce5146892",
    ("lsd", "1,3"): "c3142c89149a13b8bc7a3f9fb2b76b01efc4f9f3a620c5229eb258c0f57688a5",
    ("dls", None): "111299af135a5180a3424fe605bb872c6dcb8aa3af9cb17076edb5c2bb7431d0",
    ("dls", "1,3"): "27dd157eb33d7602adf41d5caabb0f1f015a0aab91a64d88ae6df23cb0867800",
    ("sdl", None): "2b1d833ad05194c864130563829ee2615b7d17716605f09c2201a75a7f6323c3",
    ("sdl", "1,3"): "90ca89283a9c35774b6ca88ebd24e43235517a7d68fbdfbe49849c781bb57460",
    ("dsl", None): "c887e32960936d78a957d7ef25d5fa1ef85a4a17c91d38e15b9bfd98e496fe38",
    ("dsl", "1,3"): "555894fd7f93b00e3ae4f85a39b3339db5f9024027fb95e7efdf6d0e5f5526bc",
    ("lds", None): "c9c986ef65faba5b4127c746604c44e32065e8f4d356a9ecc0bc5cb9a47364aa",
    ("lds", "1,3"): "5d20097ec7ce98367946859c44f0268fd73f9413fcdacec538d61acbb8f93021",
}


@pytest.mark.parametrize("perm,rects", sorted(OMEGA_PINS, key=str))
def test_omega_output_is_pinned(files, capsys, perm, rects):
    out_path = files["tmp"] / "pinned.gem"
    argv = ["omega", files["k33"], "--perm", perm, "-o", out_path]
    code, _, _ = run_cli(capsys, *argv, *(("--rects", rects) if rects else ()))
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == OMEGA_PINS[perm, rects]


def test_omega_bad_arguments(files, capsys):
    out_path = files["tmp"] / "x.gem"
    code, _, err = run_cli(capsys, "omega", files["s1"], "--rects", "7", "--perm", "lsd", "-o", out_path)
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "omega", files["s1"], "--perm", "ssl", "-o", out_path)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("rects", ["\u00b2", "\u0661", "+1", "1,0_1", ""])
def test_omega_bad_rect_token_names_the_flag(files, capsys, rects):
    out_path = files["tmp"] / "x.gem"
    code, out, err = run_cli(capsys, "omega", files["k33"], "--perm", "lsd",
                             "--rects", rects, "-o", out_path)
    assert code == 2 and out == ""
    assert err.startswith("error: --rects: bad id")
    assert not out_path.exists()


def test_word_zigzag_round_trip(files, capsys):
    code, out, _ = run_cli(capsys, "word", files["k33"])
    assert code == 0
    assert out.strip() == K33_TOKENS


def test_word_vertex(files, capsys):
    code, out, _ = run_cli(capsys, "word", files["s1"], "--kind", "v")
    assert code == 0
    assert out.strip() == "1 1"
    code, _, err = run_cli(capsys, "word", files["k33"], "--kind", "v")
    assert code == 3 and "error" in err
    two_gons = files["tmp"] / "edge.gem"
    two_gons.write_text(write_gem(single_edge_map()))
    code, out, err = run_cli(capsys, "word", two_gons, "--kind", "v")
    assert code == 3 and out == ""
    assert err == ("error: v-gon word needs a single v-gon covering every edge twice; "
                   "map has 2 v-gons\n")


def test_word_takes_no_gon_index(files, capsys):
    code, out, err = run_cli(capsys, "word", files["s1"], "--kind", "v", "--gon", "1")
    assert code == 2 and out == ""
    assert "--gon" in err


def test_ops_output(files, capsys):
    code, out, _ = run_cli(capsys, "ops", files["k33"])
    assert code == 0
    assert "c_P (9x9):" in out
    assert "c_P~ (9x9):" in out
    assert "c_D: not applicable (4 faces)" in out


def test_ops_not_applicable(files, capsys):
    plain = next(m for m in enumerate_maps(2) if gon_counts(m)[1] != 1 and gon_counts(m)[2] != 1)
    path = files["tmp"] / "plain.gem"
    path.write_text(write_gem(plain))
    code, out, _ = run_cli(capsys, "ops", path)
    assert code == 3
    assert "c_P: not applicable" in out


def test_verify_all(files, capsys):
    code, out, _ = run_cli(capsys, "verify", files["k33"])
    assert code == 0
    assert "theorem 1a: holds" in out
    assert "theorem 3a: holds (im=1, xi=1)" in out
    assert "theorem 4: not applicable: 4 faces" in out


def test_verify_json(files, capsys):
    code, out, _ = run_cli(capsys, "verify", files["k33"], "--theorem", "3", "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["theorem"] for r in reports] == ["3a", "3b", "3c"]
    assert reports[0] == {"theorem": "3a", "applicable": True, "holds": True, "dims": {"im": 1, "xi": 1}}
    assert all(set(r) <= {"theorem", "applicable", "holds", "dims", "counterexample"} for r in reports)


def test_verify_theorem_choices_are_the_table_groups(files, capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    theorem = next(a for a in sub.choices["verify"]._actions if a.dest == "theorem")
    assert tuple(theorem.choices) == (*GROUPS, "all")
    assert GROUPS == tuple(dict.fromkeys(t[0] for t in THEOREM_IDS)) == ("1", "2", "3", "4")
    for name in ("s1", "k33"):
        _, out, _ = run_cli(capsys, "verify", files[name], "--theorem", "all", "--json")
        parts = []
        for group in GROUPS:
            part = run_cli(capsys, "verify", files[name], "--theorem", group, "--json")
            parts += json.loads(part[1])
        assert json.loads(out) == parts
        assert [r["theorem"] for r in parts] == list(THEOREM_IDS)


def test_verify_stats_schema(files, capsys):
    """Keys and types only; the timing values are never checked."""
    plain = run_cli(capsys, "verify", files["k33"])
    code, out, err = run_cli(capsys, "verify", files["k33"], "--stats")
    assert (code, out) == plain[:2]
    stats = json.loads(err)
    assert set(stats) == {"m", "v", "f", "z", "seconds"}
    assert (stats["m"], stats["v"], stats["f"], stats["z"]) == (9, 6, 4, 1)
    assert set(stats["seconds"]) == {"parse", "analysis", "checks"}
    assert all(isinstance(s, float) and s >= 0 for s in stats["seconds"].values())
    code, out, err = run_cli(capsys, "verify", files["s1"], "--theorem", "4", "--stats")
    assert code == 3 and "not applicable" in out
    assert set(json.loads(err)) == set(stats)
    assert run_cli(capsys, "verify", files["k33"])[2] == ""


def test_verify_not_applicable_exit(files, capsys):
    code, out, _ = run_cli(capsys, "verify", files["s1"], "--theorem", "4")
    assert code == 3
    assert "theorem 4: not applicable: 2 faces" in out


def test_from_word(files, capsys):
    out_path = files["tmp"] / "rebuilt.gem"
    code, out, _ = run_cli(capsys, "from-word", files["k33w"], "-o", out_path)
    assert code == 0
    assert "(v=6 f=4 z=1)" in out
    assert gon_counts(parse_gem(out_path.read_text())) == (6, 4, 1)


def test_from_word_bad_input(files, capsys):
    bad = files["tmp"] / "bad.szw"
    for text in ("1 2 1", "1 --1"):
        bad.write_text(text + "\n")
        code, _, err = run_cli(capsys, "from-word", bad, "-o", files["tmp"] / "x.gem")
        assert code == 2 and "error" in err
        assert not (files["tmp"] / "x.gem").exists()


@pytest.mark.parametrize("text,line", [("1 -2 2 1", 1), ("# edge 2 starts negative\n1\n-2 2 1", 3)])
def test_from_word_names_a_negative_first_occurrence(files, capsys, text, line):
    bad = files["tmp"] / "bad.szw"
    bad.write_text(text + "\n")
    code, out, err = run_cli(capsys, "from-word", bad, "-o", files["tmp"] / "x.gem")
    assert code == 2 and out == ""
    assert err == f"error: line {line}: first occurrence of edge 2 must be positive\n"
    assert not (files["tmp"] / "x.gem").exists()


def test_search_k4(files, capsys):
    out_path = files["tmp"] / "k4.gem"
    code, out, _ = run_cli(capsys, "search", files["k4"], "-o", out_path)
    assert code == 0
    assert out.startswith("found after")
    found = parse_gem(out_path.read_text())
    v, f, z = gon_counts(found)
    assert f == 1 and z == 1


def test_search_exhausted_reports_seed(files, capsys, monkeypatch):
    monkeypatch.setenv("MAPCALC_SEED", "7")
    out_path = files["tmp"] / "none.gem"
    code, out, _ = run_cli(capsys, "search", files["loop"], "-o", out_path)
    assert code == 3
    assert out.strip() == "exhausted after 2 candidates (seed 7)"
    assert not out_path.exists()


def test_search_bad_seed_variable_is_named(files, capsys, monkeypatch):
    monkeypatch.setenv("MAPCALC_SEED", "abc")
    out_path = files["tmp"] / "k4.gem"
    code, out, err = run_cli(capsys, "search", files["k4"], "-o", out_path)
    assert code == 2 and err.startswith("error: MAPCALC_SEED must be ")
    assert "Traceback" not in out + err
    assert not out_path.exists()


@pytest.mark.parametrize("argv,env,named", [
    pytest.param(("enumerate", "--size", "\uff13"), None, "--size", id="size-fullwidth"),
    pytest.param(("enumerate", "--size", "\u0663"), None, "--size", id="size-arabic-indic"),
    pytest.param(("search", "k4", "--budget", "1_000"), None, "--budget", id="budget-underscore"),
    pytest.param(("search", "k4", "--budget", "\u00b9"), None, "--budget", id="budget-superscript"),
    pytest.param(("search", "k4", "--subdiv", "+1"), None, "--subdiv", id="subdiv-plus"),
    pytest.param(("search", "k4", "--seed", " 7 "), None, "--seed", id="seed-spaces"),
    pytest.param(("search", "k4", "--time-limit", "\uff11"), None, "--time-limit",
                 id="time-limit-fullwidth"),
    pytest.param(("search", "k4", "--time-limit", "1_0"), None, "--time-limit",
                 id="time-limit-underscore"),
    pytest.param(("search", "k4", "--time-limit", " 2 "), None, "--time-limit",
                 id="time-limit-spaces"),
    pytest.param(("search", "k4", "--time-limit", "inf"), None, "--time-limit", id="time-limit-inf"),
    pytest.param(("search", "k4", "--time-limit", "nan"), None, "--time-limit", id="time-limit-nan"),
    pytest.param(("search", "k4", "--time-limit", "1e400"), None, "--time-limit",
                 id="time-limit-exponent"),
    pytest.param(("search", "k4", "--time-limit", "1" + "0" * 400), None, "--time-limit",
                 id="time-limit-overflow"),
    pytest.param(("search", "k4"), "\u0661", "MAPCALC_SEED", id="env-arabic-indic"),
    pytest.param(("search", "k4"), " 7 ", "MAPCALC_SEED", id="env-spaces"),
])
def test_integer_inputs_take_ascii_digits_only(files, capsys, monkeypatch, argv, env, named):
    if env is not None:
        monkeypatch.setenv("MAPCALC_SEED", env)
    out_path = files["tmp"] / "out.gem"
    argv = [files[a] if a in ("k4", "k33") else a for a in argv]
    if argv[0] == "search":
        argv += ["-o", out_path]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err and "Traceback" not in err
    assert not out_path.exists()


def test_search_with_subdivision(files, capsys):
    out_path = files["tmp"] / "sub.gem"
    code, out, _ = run_cli(capsys, "search", files["loop"], "--subdiv", "1", "-o", out_path)
    assert code == 0
    assert "subdivisions: 1:1" in out


def test_enumerate(files, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--size", "1", "--verify-absorption")
    assert code == 0
    assert "m=1: 3 connected maps" in out
    assert "profile v=1 f=1 z=2: 1" in out
    assert "absorption: holds on all 3 maps" in out


@pytest.mark.parametrize("size", ["0", "-3"])
def test_enumerate_bad_size_names_the_flag(capsys, size):
    code, out, err = run_cli(capsys, "enumerate", "--size", size)
    assert code == 2 and err.startswith("error: --size must be ")
    assert out == "" and "Traceback" not in err


def test_enumerate_stats_schema(capsys):
    """Keys and types only; the timing values are never checked."""
    for argv, failures in ((("--size", "2"), None), (("--size", "2", "--verify-absorption"), 0)):
        plain = run_cli(capsys, "enumerate", *argv)
        code, out, err = run_cli(capsys, "enumerate", *argv, "--stats")
        assert (code, out) == plain[:2] and plain[2] == ""
        stats = json.loads(err)
        assert set(stats) == {"m", "maps", "profiles", "absorption_failures", "seconds"}
        assert (stats["m"], stats["maps"], stats["absorption_failures"]) == (2, 96, failures)
        assert all(set(p) == {"v", "f", "z", "maps"} and all(isinstance(x, int) for x in p.values())
                   for p in stats["profiles"])
        assert sum(p["maps"] for p in stats["profiles"]) == 96
        assert set(stats["seconds"]) == {"enumerate", "checks"}
        assert all(isinstance(s, float) and s >= 0 for s in stats["seconds"].values())


def test_enumerate_walks_each_gon_kind_once_per_map(capsys, monkeypatch):
    """With --verify-absorption the profile comes from the analysis the
    check builds, so each map's three gon kinds are walked once, through
    whichever module binding of gem.gon_labels."""
    walks = count_calls(monkeypatch, gem, "gon_labels")
    plain = run_cli(capsys, "enumerate", "--size", "2")
    assert (plain[0], walks[None]) == (0, 3 * 96)
    walks.clear()
    code, out, _ = run_cli(capsys, "enumerate", "--size", "2", "--verify-absorption")
    assert (code, walks[None]) == (0, 3 * 96)
    assert out == plain[1] + "absorption: holds on all 96 maps\n"


def test_parse_error_exit(files, capsys):
    code, _, err = run_cli(capsys, "info", files["bad"])
    assert code == 2 and "error" in err


def test_invalid_map_exit(files, capsys):
    code, _, err = run_cli(capsys, "info", files["split"])
    assert code == 1 and "connected" in err


def test_missing_file_exit(files, capsys):
    code, _, err = run_cli(capsys, "info", str(files["tmp"] / "absent.gem"))
    assert code == 2 and "error" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def test_readme_names_the_parser_long_options():
    """Every --name in README.md is an option of some subcommand, and every
    long option is documented (--output is spelled -o there)."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {opt for p in (parser, *sub.choices.values()) for a in p._actions
               for opt in a.option_strings if opt.startswith("--")}
    readme = README.read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named <= defined, sorted(named - defined)
    assert defined - {"--help", "--output"} <= named, sorted(defined - named)


def test_readme_names_every_exported_name():
    """README's "Key objects" names, in code spans, every public name the
    package exports (its submodules aside)."""
    readme = README.read_text(encoding="utf-8")
    start = readme.index("Key objects:")
    section = readme[start:readme.index("\n## ", start)]
    spans = " ".join(re.findall(r"`([^`]*)`", section))
    exported = {name for name, obj in vars(mapcalc).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    missing = {name for name in exported if not re.search(rf"\b{name}\b", spans)}
    assert not missing, sorted(missing)


def test_run_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert run(["frobnicate"]) == 2
    assert run(["enumerate", "--size", "1"]) == 0
    assert len(built) == 1
