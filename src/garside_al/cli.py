"""Command-line front end.

One executable, `garside-al`, with one subcommand per library entry point.
Output is plain text by default; `--json` switches every command to a
single JSON document with a versioned schema.  Exit codes: 0 success,
1 verification or property failure, 2 usage or parse error, 3 search
budget exceeded, 4 internal error (an exception no other code covers,
reported as one `internal error: <type>: <message>` line).

Configuration precedence is flags, then the environment variable
`GARSIDE_AL_<KEY>` (the key upper-cased), then an ini-style config file
(`./garside-al.cfg` or the path in `GARSIDE_AL_CONFIG`, section
`[garside-al]`).  Only the five keys `n`, `seed`, `budget`, `max_len` and
`cache` are configurable outside flags.  The default file is optional; a
file named by `GARSIDE_AL_CONFIG` that cannot be read is a usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .absorb import (
    DEFAULT_BUDGET,
    CacheError,
    SearchBudgetExceeded,
    enumerate_absorbable,
    is_absorbable,
    is_absorbable_prime,
)
from .alcomplex import (
    WitnessError,
    are_adjacent,
    distance_upper_bound,
    preferred_path,
    vertex_of,
)
from .braid import braid_structure
from .element import (
    SizeLimitExceeded,
    complement,
    is_rigid,
    left_gcd,
    right_gcd,
    right_normal_form,
    tau_element,
)
from .special import (
    DecompositionError,
    RoundCurve,
    check_witness_properties,
    delta_three_absorbables,
    distance_witness,
    max_power_dividing,
    nine_absorbable_decomposition,
    orbit_diameter_probe,
)
from .structure import UnsupportedStructureOperation
from .suites import SUITE_NAMES, run_suite
from .words import (
    WordSyntaxError,
    delta_chunk,
    format_element,
    format_simple,
    one_line,
    parse_word,
)

JSON_SCHEMA = "garside-al.v1"

# Largest strand count the CLI accepts.  A braid structure builds n - 1
# atoms of n entries each and does O(n^2) work per simple (an inversion
# mask has n(n-1)/2 bits), so an unchecked --n can exhaust memory or time
# before any answer is computed.
MAX_STRANDS = 64

DEFAULTS = {"n": None, "seed": 0, "budget": DEFAULT_BUDGET, "max_len": 2,
            "cache": None}


class UsageError(Exception):
    pass


@dataclass
class Config:
    n: Optional[int]
    seed: int
    budget: int
    max_len: int
    cache: Optional[str]
    as_json: bool

    def strands(self) -> int:
        """The validated strand count."""
        if self.n is None:
            raise UsageError("no strand count: pass --n, set GARSIDE_AL_N, "
                             "or put n in the config file")
        if self.n < 2:
            raise UsageError(f"need at least 2 strands, got {self.n}")
        if self.n > MAX_STRANDS:
            raise UsageError(f"at most {MAX_STRANDS} strands, got {self.n}")
        return self.n

    def structure(self):
        return braid_structure(self.strands())


def _file_settings() -> dict:
    path = os.environ.get("GARSIDE_AL_CONFIG")
    if path is None:
        path = "garside-al.cfg"
        if not os.path.exists(path):
            return {}
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    except configparser.Error as exc:
        raise UsageError(f"bad config file {path}: {exc}")
    if not parser.has_section("garside-al"):
        return {}
    settings = dict(parser.items("garside-al"))
    unknown = sorted(set(settings) - set(DEFAULTS))
    if unknown:
        raise UsageError(f"unknown key {', '.join(unknown)} in config file {path}; "
                         f"known keys: {', '.join(DEFAULTS)}")
    return settings


def resolve_config(args: argparse.Namespace) -> Config:
    from_file = _file_settings()
    values = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        env = f"GARSIDE_AL_{key.upper()}"
        if flag is not None:
            values[key] = flag
        elif env in os.environ:
            values[key] = os.environ[env]
        elif key in from_file:
            values[key] = from_file[key]
        else:
            values[key] = default
    for key in ("n", "seed", "budget", "max_len"):
        if isinstance(values[key], str):
            try:
                values[key] = int(values[key])
            except ValueError:
                raise UsageError(f"{key} must be an integer, got {values[key]!r}")
    if values["budget"] < 1:
        raise UsageError(f"budget must be at least 1, got {values['budget']}")
    return Config(values["n"], values["seed"], values["budget"],
                  values["max_len"], values["cache"],
                  bool(getattr(args, "json", False)))


def _emit(cfg: Config, command: str, inputs: dict, result,
          text_lines: list) -> None:
    if cfg.as_json:
        print(json.dumps({"schema": JSON_SCHEMA, "command": command,
                          "inputs": inputs, "result": result}, indent=2))
    else:
        for line in text_lines:
            print(line)


def _element_json(a) -> dict:
    return {"power": a.power,
            "factors": [one_line(a.structure, f) for f in a.factors],
            "word": format_element(a)}


def _parse_curve(text: str) -> RoundCurve:
    try:
        lo, hi = (int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"curve must look like LO,HI; got {text!r}")
    return RoundCurve(lo, hi)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns its JSON inputs, its result and its text
# lines; witness and verify add whether their checks passed.  main emits.


def _cmd_nf(args, cfg: Config) -> tuple:
    e = parse_word(cfg.structure(), args.word)
    return {"word": args.word, "n": cfg.n}, _element_json(e), [format_element(e)]


def _cmd_rnf(args, cfg: Config) -> tuple:
    st = cfg.structure()
    rfac, rp = right_normal_form(parse_word(st, args.word))
    chunks = [format_simple(st, f) for f in rfac] + delta_chunk(rp)
    return ({"word": args.word, "n": cfg.n},
            {"factors": [one_line(st, f) for f in rfac], "power": rp},
            [" | ".join(chunks) if chunks else "1"])


def _cmd_stats(args, cfg: Config) -> tuple:
    e = parse_word(cfg.structure(), args.word)
    return ({"word": args.word, "n": cfg.n},
            {"inf": e.inf, "sup": e.sup, "canonical_length": e.canonical_length},
            [f"inf={e.inf} sup={e.sup} len={e.canonical_length}"])


def _cmd_eq(args, cfg: Config) -> tuple:
    st = cfg.structure()
    same = parse_word(st, args.left) == parse_word(st, args.right)
    return ({"left": args.left, "right": args.right, "n": cfg.n},
            {"equal": same}, ["equal" if same else "different"])


def _cmd_gcd(args, cfg: Config) -> tuple:
    st = cfg.structure()
    op = right_gcd if args.right else left_gcd
    g = op(parse_word(st, args.left), parse_word(st, args.right_word))
    return ({"left": args.left, "right": args.right_word,
             "side": "right" if args.right else "left", "n": cfg.n},
            _element_json(g), [format_element(g)])


def _cmd_tau(args, cfg: Config) -> tuple:
    e = tau_element(parse_word(cfg.structure(), args.word), args.power)
    return ({"word": args.word, "power": args.power, "n": cfg.n},
            _element_json(e), [format_element(e)])


def _cmd_complement(args, cfg: Config) -> tuple:
    e = complement(parse_word(cfg.structure(), args.word))
    return {"word": args.word, "n": cfg.n}, _element_json(e), [format_element(e)]


def _cmd_rigid(args, cfg: Config) -> tuple:
    verdict = is_rigid(parse_word(cfg.structure(), args.word))
    return ({"word": args.word, "n": cfg.n}, {"rigid": verdict},
            ["rigid" if verdict else "not rigid"])


def _cmd_absorbable(args, cfg: Config) -> tuple:
    e = parse_word(cfg.structure(), args.word)
    if args.prime:
        verdict = is_absorbable_prime(e, budget=cfg.budget)
        return ({"word": args.word, "n": cfg.n, "variant": "prime"},
                {"verdict": verdict}, [verdict])
    cert = is_absorbable(e, budget=cfg.budget)
    lines = ["absorbable" if cert else "not absorbable"]
    payload = {"absorbable": cert is not None}
    if cert is not None and args.certificate:
        lines.append(f"absorbed by {format_element(cert.x)}")
        payload["certificate"] = _element_json(cert.x)
    return {"word": args.word, "n": cfg.n}, payload, lines


def _cmd_enum_absorbable(args, cfg: Config) -> tuple:
    found = enumerate_absorbable(cfg.structure(), cfg.max_len,
                                 budget=cfg.budget, cache_path=cfg.cache)
    return ({"n": cfg.n, "max_len": cfg.max_len},
            [_element_json(e) for e in found],
            [format_element(e) for e in found] or ["none"])


def _cmd_vertex(args, cfg: Config) -> tuple:
    v = vertex_of(parse_word(cfg.structure(), args.word))
    return ({"word": args.word, "n": cfg.n}, _element_json(v.rep),
            [format_element(v.rep)])


def _cmd_adjacent(args, cfg: Config) -> tuple:
    st = cfg.structure()
    v = vertex_of(parse_word(st, args.left))
    w = vertex_of(parse_word(st, args.right))
    wit = are_adjacent(v, w, budget=cfg.budget)
    inputs = {"left": args.left, "right": args.right, "n": cfg.n}
    if wit is None:
        return inputs, {"adjacent": False}, ["not adjacent"]
    lines = [f"adjacent: {wit.kind} label {format_element(wit.label)} "
             f"(shift {wit.shift})"]
    payload = {"adjacent": True, "kind": wit.kind, "shift": wit.shift,
               "label": _element_json(wit.label)}
    if wit.certificate is not None:
        lines.append(f"absorbed by {format_element(wit.certificate.x)}")
        payload["certificate"] = _element_json(wit.certificate.x)
    return inputs, payload, lines


def _cmd_path(args, cfg: Config) -> tuple:
    st = cfg.structure()
    v = vertex_of(parse_word(st, args.left))
    w = vertex_of(parse_word(st, args.right))
    p = preferred_path(v, w)
    lines = [f"{len(p)} edges"]
    for i, label in enumerate(p.labels):
        word = format_simple(st, label)
        lines.append(f"{format_element(p.vertices[i].rep)} -> "
                     f"{format_element(p.vertices[i + 1].rep)} : {word}")
    return ({"left": args.left, "right": args.right, "n": cfg.n},
            {"vertices": [_element_json(q.rep) for q in p.vertices],
             "labels": [one_line(st, f) for f in p.labels]}, lines)


def _cmd_dist_ub(args, cfg: Config) -> tuple:
    st = cfg.structure()
    v = vertex_of(parse_word(st, args.left))
    w = vertex_of(parse_word(st, args.right))
    bound = distance_upper_bound(v, w, cfg.max_len, args.radius,
                                 budget=cfg.budget, cache_path=cfg.cache)
    return ({"left": args.left, "right": args.right, "n": cfg.n,
             "gen_len": cfg.max_len, "radius": args.radius},
            {"upper_bound": bound},
            [f"<= {bound}" if bound is not None
             else f"no path found within radius {args.radius}"])


def _cmd_witness(args, cfg: Config) -> tuple:
    x = distance_witness(cfg.strands())
    lines = [format_element(x)]
    payload = {"element": _element_json(x)}
    ok = True
    if args.check:
        report = check_witness_properties(cfg.n)
        lines.extend(report.lines())
        payload["checks"] = [{"label": c.label, "ok": c.passed,
                              "detail": c.detail} for c in report.checks]
        ok = report.ok
    return {"n": cfg.n, "check": args.check}, payload, lines, ok


def _cmd_max_power(args, cfg: Config) -> tuple:
    st = cfg.structure()
    k = max_power_dividing(parse_word(st, args.base), parse_word(st, args.word))
    return ({"base": args.base, "word": args.word, "n": cfg.n},
            {"max_power": k}, [str(k)])


def _piece_payload(piece) -> dict:
    return {"factor": _element_json(piece.factor),
            "absorber": _element_json(piece.absorber), "rule": piece.rule}


def _cmd_decompose_delta(args, cfg: Config) -> tuple:
    pieces = delta_three_absorbables(cfg.strands(), args.power)
    return ({"n": cfg.n, "power": args.power},
            [_piece_payload(p) for p in pieces], [p.line() for p in pieces])


def _cmd_decompose_reducible(args, cfg: Config) -> tuple:
    y = parse_word(cfg.structure(), args.word)
    pieces = nine_absorbable_decomposition(y, _parse_curve(args.curve),
                                           budget=cfg.budget)
    return ({"word": args.word, "n": cfg.n, "curve": args.curve},
            [_piece_payload(p) for p in pieces],
            [p.line() for p in pieces] or ["identity: no factors needed"])


def _cmd_probe_orbit(args, cfg: Config) -> tuple:
    g = parse_word(cfg.structure(), args.word)
    curve = _parse_curve(args.curve) if args.curve else None
    entries = orbit_diameter_probe(g, args.steps, cfg.max_len, args.radius,
                                   curve=curve, budget=cfg.budget)
    lines = ["i,upper_bound"]
    lines.extend(f"{e.power},{'' if e.upper_bound is None else e.upper_bound}"
                 for e in entries)
    return ({"word": args.word, "n": cfg.n, "steps": args.steps,
             "radius": args.radius, "gen_len": cfg.max_len, "curve": args.curve},
            [{"power": e.power, "upper_bound": e.upper_bound,
              "search_bound": e.search_bound,
              "decomposition_bound": e.decomposition_bound} for e in entries],
            lines)


def _cmd_verify(args, cfg: Config) -> tuple:
    result = run_suite(args.suite, seed=cfg.seed, budget=cfg.budget,
                       cache_path=cfg.cache)
    return ({"suite": args.suite, "seed": cfg.seed},
            {"ok": result.ok,
             "checks": [{"label": c.label, "ok": c.ok, "detail": c.detail}
                        for c in result.checks],
             "notes": list(result.notes)},
            result.lines(), result.ok)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None,
                        help="number of strands")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized suites")
    common.add_argument("--max-len", dest="max_len", type=int, default=None,
                        help="canonical length cap for generator enumeration")
    common.add_argument("--budget", type=int, default=None,
                        help="node budget for absorbability searches, and the "
                             "expansion cap of each distance search")
    common.add_argument("--cache", default=None,
                        help="path of the enumeration cache file")
    common.add_argument("--json", action="store_true",
                        help="structured output instead of plain text")

    parser = argparse.ArgumentParser(
        prog="garside-al",
        description="Garside arithmetic, absorbable elements, and the "
                    "coset complex they span.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("nf", _cmd_nf, "left normal form of a braid word")
    p.add_argument("word")
    p = add("rnf", _cmd_rnf, "right normal form of a braid word")
    p.add_argument("word")
    p = add("stats", _cmd_stats, "infimum, supremum, canonical length")
    p.add_argument("word")
    p = add("eq", _cmd_eq, "decide equality of two words")
    p.add_argument("left")
    p.add_argument("right")
    p = add("gcd", _cmd_gcd, "greatest common prefix (or suffix) of two words")
    p.add_argument("left")
    p.add_argument("right_word", metavar="right")
    p.add_argument("--right", action="store_true",
                   help="use suffix order instead of prefix order")
    p = add("tau", _cmd_tau, "conjugate by the Garside element")
    p.add_argument("word")
    p.add_argument("--power", type=int, default=1)
    p = add("complement", _cmd_complement,
            "right complement of a positive element")
    p.add_argument("word")
    p = add("rigid", _cmd_rigid, "test rigidity of the normal form")
    p.add_argument("word")
    p = add("absorbable", _cmd_absorbable, "decide absorbability")
    p.add_argument("word")
    p.add_argument("--certificate", action="store_true",
                   help="print an absorbing element when one exists")
    p.add_argument("--prime", action="store_true",
                   help="three-valued stronger variant (yes/no/unknown)")
    add("enum-absorbable", _cmd_enum_absorbable,
        "list absorbable elements up to --max-len")
    p = add("vertex", _cmd_vertex, "distinguished coset representative")
    p.add_argument("word")
    p = add("adjacent", _cmd_adjacent, "decide adjacency of two coset vertices")
    p.add_argument("left")
    p.add_argument("right")
    p = add("path", _cmd_path, "preferred path between two coset vertices")
    p.add_argument("left")
    p.add_argument("right")
    p = add("dist-ub", _cmd_dist_ub, "bidirectional search distance upper bound")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--radius", type=int, required=True)
    p = add("witness", _cmd_witness, "distance witness element for n strands")
    p.add_argument("--check", action="store_true",
                   help="verify the witness properties, exit 1 on failure")
    p = add("max-power", _cmd_max_power,
            "largest power of the base prefixing a word")
    p.add_argument("base")
    p.add_argument("word")
    p = add("decompose-delta", _cmd_decompose_delta,
            "Garside power as three absorbable factors")
    p.add_argument("power", type=int)
    p = add("decompose-reducible", _cmd_decompose_reducible,
            "tube-preserving braid as at most nine absorbable factors")
    p.add_argument("word")
    p.add_argument("--curve", required=True, metavar="LO,HI")
    p = add("probe-orbit", _cmd_probe_orbit, "per-power distance bounds as CSV")
    p.add_argument("word")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--curve", default=None, metavar="LO,HI")
    p = add("verify", _cmd_verify, "run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = resolve_config(args)
        inputs, result, text_lines, *passed = args.handler(args, cfg)
        _emit(cfg, args.command, inputs, result, text_lines)
        return 0 if all(passed) else 1
    except (UsageError, WordSyntaxError, CacheError, ValueError,
            UnsupportedStructureOperation, SizeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (WitnessError, DecompositionError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
