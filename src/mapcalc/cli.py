"""Command-line front end.

Subcommands wrap single library calls; all human-facing edge and rectangle
ids are 1-based, files store the formats described in codec.
Exit codes: 0 success or all checks hold, 1 a check is violated or the
map is invalid, 2 usage or parse error, 3 hypothesis not met or nothing
found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from functools import cache

from . import codec, gem, search, theorems, words
from .analysis import MapAnalysis

OK, VIOLATED, USAGE, NOT_APPLICABLE = 0, 1, 2, 3


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _load_map(path: str, strict: bool = True) -> gem.FlagMap:
    return codec.parse_gem(_read(path), strict=strict)


def _integer(text: str) -> int:
    """Integer flag value: ASCII digits after at most one leading '-', read
    by codec.read_integer.

    int() alone also takes '+', '_', surrounding spaces and the digits of
    other scripts; the sign is kept so range errors still name the value.
    """
    negative = text.startswith("-")
    try:
        value = codec.read_integer(text[1:] if negative else text)
    except codec.MapFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value is None:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    return -value if negative else value


_DECIMAL = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)")


def _seconds(text: str | None) -> float | None:
    """--time-limit value: ASCII digits[.digits] or .digits after at most
    one leading '-' (SearchBudget then rejects the range).

    float() alone also takes '_', surrounding spaces, exponents, inf and
    nan.  It runs in _cmd_search, not as an argparse type, so a malformed
    value and an out-of-range one both end as "error: --time-limit must be".
    """
    if text is None:
        return None
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"--time-limit must be a decimal number of seconds, not {text!r}")
    return float(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    map_ = _load_map(args.file, strict=False)
    report = gem.validate(map_)
    for name, passed in report.checks():
        print(f"{name}: {'ok' if passed else 'FAIL'}")
    print(f"map: {'valid' if report.ok else 'INVALID'}")
    return OK if report.ok else VIOLATED


def _cmd_info(args: argparse.Namespace) -> int:
    map_ = _load_map(args.file)
    v, f, z = gem.gon_counts(map_)
    chi, xi = gem.euler_of_counts(map_.m, v, f)
    print(f"edges: {map_.m}")
    print(f"gons: v={v} f={f} z={z}")
    print(f"chi: {chi}")
    print(f"xi: {xi}")
    print(f"orientable: {'yes' if gem.orientable(map_) else 'no'}")
    balances = [f"{e + 1}={state}" for e, state in enumerate(gem.loop_balances(map_))
                if state != "not_a_loop"]
    print("loops: " + (" ".join(balances) if balances else "none"))
    return OK


def _parse_id_list(text: str, limit: int, flag: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            k = codec.read_integer(tok)
        except codec.MapFormatError as exc:
            raise codec.MapFormatError(f"{flag}: {exc}") from None
        if k is None or not 1 <= k <= limit:
            raise codec.MapFormatError(f"{flag}: bad id {tok!r} (want 1..{limit})")
        out.append(k - 1)
    return out


def _cmd_omega(args: argparse.Namespace) -> int:
    map_ = _load_map(args.file)
    rects = _parse_id_list(args.rects, map_.m, "--rects") if args.rects is not None else None
    result = gem.apply_permutation(map_, rects, args.perm)
    _write(args.output, codec.write_gem(result))
    v, f, z = gem.gon_counts(result)
    print(f"wrote {args.output} (v={v} f={f} z={z})")
    return OK


def _cmd_word(args: argparse.Namespace) -> int:
    map_ = _load_map(args.file)
    w = words.gon_word(map_, args.kind)
    sys.stdout.write(codec.format_word(w))
    return OK


def _print_matrix(name: str, op) -> None:
    width = max(2, len(str(op.m)))
    print(f"{name} ({op.m}x{op.m}):")
    header = " " * (width + 1) + " ".join(f"{j + 1:>{width}}" for j in range(op.m))
    print(header)
    for i in range(op.m):
        row = " ".join(f"{(op.cols[j] >> i) & 1:>{width}}" for j in range(op.m))
        print(f"{i + 1:>{width}} {row}")


def _cmd_ops(args: argparse.Namespace) -> int:
    analysis = MapAnalysis(_load_map(args.file))
    _, f, z = analysis.counts
    shown = 0
    for name, op, reason in (
        ("c_P", analysis.zigzag, f"{z} zigzags"),
        ("c_P~", analysis.zigzag_complement, f"{z} zigzags"),
        ("c_D", analysis.face, f"{f} faces"),
    ):
        if op is None:
            print(f"{name}: not applicable ({reason})")
        else:
            _print_matrix(name, op)
            shown += 1
    return OK if shown else NOT_APPLICABLE


def _cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    map_ = _load_map(args.file)
    t1 = time.perf_counter()
    analysis = MapAnalysis(map_)
    if args.stats:
        # Build the whole analysis first, so its time shows apart from the checks'.
        analysis.complete()
    t2 = time.perf_counter()
    reports = theorems.check_group(analysis, args.theorem)
    if args.stats:
        v, f, z = analysis.counts
        stats = {
            "m": analysis.m, "v": v, "f": f, "z": z,
            "seconds": {"parse": t1 - t0, "analysis": t2 - t1, "checks": time.perf_counter() - t2},
        }
        print(json.dumps(stats), file=sys.stderr)
    if args.json:
        print(json.dumps([theorems.report_json(r) for r in reports], indent=2))
    else:
        for r in reports:
            if not r.applicable:
                print(f"theorem {r.theorem}: {r.note}")
            elif r.holds:
                dims = ", ".join(f"{k}={v}" for k, v in r.dims.items())
                print(f"theorem {r.theorem}: holds ({dims})")
            else:
                witness = ",".join(str(e + 1) for e in r.counterexample or ())
                print(f"theorem {r.theorem}: VIOLATED (counterexample: {{{witness}}})")
    if any(r.applicable and not r.holds for r in reports):
        return VIOLATED
    if not any(r.applicable for r in reports):
        return NOT_APPLICABLE
    return OK


def _cmd_from_word(args: argparse.Namespace) -> int:
    w = codec.parse_word(_read(args.file))
    map_ = codec.zigzag_map_from_word(w)
    _write(args.output, codec.write_gem(map_))
    v, f, z = gem.gon_counts(map_)
    print(f"wrote {args.output} (v={v} f={f} z={z})")
    return OK


def _search_stats(outcome: search.SearchOutcome) -> dict:
    """The outcome's fields as JSON-ready data, less the map and its
    subdivisions, in field order."""
    return {f.name: getattr(outcome, f.name) for f in dataclasses.fields(outcome)
            if f.name not in ("map", "subdivisions")}


# SearchBudget's errors begin with the field at fault; the CLI names the flag.
_BUDGET_FLAGS = {"max_candidates": "--budget", "max_subdivisions": "--subdiv",
                 "time_limit": "--time-limit"}


def _cmd_search(args: argparse.Namespace) -> int:
    rs = codec.parse_rotation(_read(args.file))
    seed = args.seed
    if seed is None:
        try:
            seed = _integer(os.environ.get("MAPCALC_SEED", "0"))
        except argparse.ArgumentTypeError:
            raise ValueError("MAPCALC_SEED must be an integer") from None
    time_limit = _seconds(args.time_limit)
    try:
        budget = search.SearchBudget(
            max_candidates=args.budget,
            max_subdivisions=args.subdiv,
            time_limit=time_limit,
        )
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        raise ValueError(f"{_BUDGET_FLAGS.get(field, field)} {rule}") from None
    outcome = search.search_embedding(rs.graph, budget, seed=seed)
    if args.stats:
        print(json.dumps(_search_stats(outcome)), file=sys.stderr)
    if outcome.status != "found":
        print(f"{outcome.status} after {outcome.candidates} candidates (seed {outcome.seed})")
        return NOT_APPLICABLE
    _write(args.output, codec.write_gem(outcome.map))
    used = [f"{e + 1}:{k}" for e, k in enumerate(outcome.subdivisions) if k]
    print(
        f"found after {outcome.candidates} candidates "
        f"(subdivisions: {' '.join(used) if used else 'none'}); wrote {args.output}"
    )
    return OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.size < 1:
        raise ValueError("--size must be at least 1")
    profiles: dict[tuple[int, int, int], int] = {}
    failures = 0
    total = 0
    checks_s = 0.0
    t0 = time.perf_counter()
    for map_ in search.enumerate_maps(args.size):
        total += 1
        if args.verify_absorption:
            # One analysis per map: its graphs give the profile too.
            t_check = time.perf_counter()
            analysis = MapAnalysis(map_)
            holds = all(r.holds for r in theorems.check_absorption(analysis))
            checks_s += time.perf_counter() - t_check
            profile = analysis.counts
            if not holds:
                failures += 1
                print(f"absorption VIOLATED: {codec.write_gem(map_)!r}")
        else:
            profile = gem.gon_counts(map_)
        profiles[profile] = profiles.get(profile, 0) + 1
    if args.stats:
        stats = {
            "m": args.size, "maps": total,
            "profiles": [{"v": v, "f": f, "z": z, "maps": count}
                         for (v, f, z), count in sorted(profiles.items())],
            "absorption_failures": failures if args.verify_absorption else None,
            "seconds": {"enumerate": time.perf_counter() - t0 - checks_s, "checks": checks_s},
        }
        print(json.dumps(stats), file=sys.stderr)
    print(f"m={args.size}: {total} connected maps")
    for (v, f, z), count in sorted(profiles.items()):
        print(f"  profile v={v} f={f} z={z}: {count}")
    if args.verify_absorption:
        if failures:
            print(f"absorption: VIOLATED on {failures} of {total} maps")
            return VIOLATED
        print(f"absorption: holds on all {total} maps")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcalc",
        description="Maps on closed surfaces: gons, duals, zigzag words and GF(2) checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report structural invariants of a .gem file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="gon counts, surface invariants and loop balances")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("omega", help="permute short/long/diagonal roles and save")
    p.add_argument("file")
    p.add_argument("--perm", required=True, metavar="WORD",
                   help="images of s,l,d in order: lsd=dual, dls=phial, sdl=antimap")
    p.add_argument("--rects", metavar="LIST", help="1-based rectangle ids, comma separated")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("word", help="print the zigzag or vertex word")
    p.add_argument("file")
    p.add_argument("--kind", choices=("z", "v"), default="z")
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("ops", help="print the word operators the map admits")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ops)

    p = sub.add_parser("verify", help="check the subspace statements")
    p.add_argument("file")
    p.add_argument("--theorem", choices=(*theorems.GROUPS, "all"), default="all")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print m, gon counts and per-phase seconds as JSON to stderr")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("from-word", help="rebuild the single-zigzag map of a .szw word")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_from_word)

    p = sub.add_parser("search", help="hunt for a single-face-single-zigzag embedding")
    p.add_argument("file", help=".rot file naming the graph")
    p.add_argument("--budget", type=_integer, default=100_000, help="max candidates")
    p.add_argument("--subdiv", type=_integer, default=0, help="max total edge subdivisions")
    p.add_argument("--seed", type=_integer, default=None,
                   help="randomization seed (default: MAPCALC_SEED or 0)")
    p.add_argument("--time-limit", default=None, help="seconds (positive)")
    p.add_argument("--stats", action="store_true",
                   help="print candidates, mode, space, restarts and best f + z as JSON to stderr")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("enumerate", help="census of all connected maps of a size")
    p.add_argument("--size", type=_integer, required=True, metavar="M")
    p.add_argument("--verify-absorption", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print map and profile counts, absorption failures and per-phase "
                        "seconds as JSON to stderr")
    p.set_defaults(func=_cmd_enumerate)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser run() uses, built once per process."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else USAGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, codec.ValidationFailure):
            return VIOLATED
        if isinstance(exc, words.NotApplicableError):
            return NOT_APPLICABLE
        return USAGE


def cli_entry() -> None:
    sys.exit(run())
