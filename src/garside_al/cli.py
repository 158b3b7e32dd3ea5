"""Command-line front end.

One executable, `garside-al`, with one subcommand per library entry point.
Output is plain text by default; `--json` switches every command to a
single JSON document with a versioned schema.  Exit codes: 0 success,
1 verification or property failure, 2 usage or parse error, 3 search
budget exceeded.

Configuration precedence is flags, then `GARSIDE_AL_*` environment
variables, then an ini-style config file (`./garside-al.cfg` or the path
in `GARSIDE_AL_CONFIG`, section `[garside-al]`).  Only the strand count,
seed, budgets, and cache path are configurable outside flags.
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
from .words import WordSyntaxError, format_element, format_simple, one_line, parse_word

JSON_SCHEMA = "garside-al.v1"

# Largest strand count the CLI accepts.  A braid structure builds n - 1
# atoms of n entries each and does O(n^2) work per simple (an inversion
# mask has n(n-1)/2 bits), so an unchecked --n can exhaust memory or time
# before any answer is computed.
MAX_STRANDS = 64

DEFAULTS = {"n": None, "seed": 0, "budget": DEFAULT_BUDGET, "max_len": 2,
            "cache": None}

_ENV_KEYS = {"n": "GARSIDE_AL_N", "seed": "GARSIDE_AL_SEED",
             "budget": "GARSIDE_AL_BUDGET", "max_len": "GARSIDE_AL_MAX_LEN",
             "cache": "GARSIDE_AL_CACHE"}


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
    path = os.environ.get("GARSIDE_AL_CONFIG", "garside-al.cfg")
    if not os.path.exists(path):
        return {}
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
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
        if flag is not None:
            values[key] = flag
        elif key in _ENV_KEYS and _ENV_KEYS[key] in os.environ:
            values[key] = os.environ[_ENV_KEYS[key]]
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
# subcommand bodies: each returns an exit code


def _cmd_nf(args, cfg: Config) -> int:
    e = parse_word(cfg.structure(), args.word)
    _emit(cfg, "nf", {"word": args.word, "n": cfg.n}, _element_json(e),
          [format_element(e)])
    return 0


def _cmd_rnf(args, cfg: Config) -> int:
    st = cfg.structure()
    e = parse_word(st, args.word)
    rfac, rp = right_normal_form(e)
    chunks = [format_simple(st, f) for f in rfac]
    if rp:
        chunks.append("D" if rp == 1 else f"D^{rp}")
    _emit(cfg, "rnf", {"word": args.word, "n": cfg.n},
          {"factors": [one_line(st, f) for f in rfac], "power": rp},
          [" | ".join(chunks) if chunks else "1"])
    return 0


def _cmd_stats(args, cfg: Config) -> int:
    e = parse_word(cfg.structure(), args.word)
    _emit(cfg, "stats", {"word": args.word, "n": cfg.n},
          {"inf": e.inf, "sup": e.sup, "canonical_length": e.canonical_length},
          [f"inf={e.inf} sup={e.sup} len={e.canonical_length}"])
    return 0


def _cmd_eq(args, cfg: Config) -> int:
    st = cfg.structure()
    same = parse_word(st, args.left) == parse_word(st, args.right)
    _emit(cfg, "eq", {"left": args.left, "right": args.right, "n": cfg.n},
          {"equal": same}, ["equal" if same else "different"])
    return 0


def _cmd_gcd(args, cfg: Config) -> int:
    st = cfg.structure()
    op = right_gcd if args.right else left_gcd
    g = op(parse_word(st, args.left), parse_word(st, args.right_word))
    _emit(cfg, "gcd", {"left": args.left, "right": args.right_word,
                       "side": "right" if args.right else "left", "n": cfg.n},
          _element_json(g), [format_element(g)])
    return 0


def _cmd_tau(args, cfg: Config) -> int:
    e = tau_element(parse_word(cfg.structure(), args.word), args.power)
    _emit(cfg, "tau", {"word": args.word, "power": args.power, "n": cfg.n},
          _element_json(e), [format_element(e)])
    return 0


def _cmd_complement(args, cfg: Config) -> int:
    e = complement(parse_word(cfg.structure(), args.word))
    _emit(cfg, "complement", {"word": args.word, "n": cfg.n},
          _element_json(e), [format_element(e)])
    return 0


def _cmd_rigid(args, cfg: Config) -> int:
    verdict = is_rigid(parse_word(cfg.structure(), args.word))
    _emit(cfg, "rigid", {"word": args.word, "n": cfg.n}, {"rigid": verdict},
          ["rigid" if verdict else "not rigid"])
    return 0


def _cmd_absorbable(args, cfg: Config) -> int:
    e = parse_word(cfg.structure(), args.word)
    if args.prime:
        verdict = is_absorbable_prime(e, budget=cfg.budget)
        _emit(cfg, "absorbable", {"word": args.word, "n": cfg.n,
                                  "variant": "prime"}, {"verdict": verdict},
              [verdict])
        return 0
    cert = is_absorbable(e, budget=cfg.budget)
    lines = ["absorbable" if cert else "not absorbable"]
    payload = {"absorbable": cert is not None}
    if cert is not None and args.certificate:
        lines.append(f"absorbed by {format_element(cert.x)}")
        payload["certificate"] = _element_json(cert.x)
    _emit(cfg, "absorbable", {"word": args.word, "n": cfg.n}, payload, lines)
    return 0


def _cmd_enum_absorbable(args, cfg: Config) -> int:
    found = enumerate_absorbable(cfg.structure(), cfg.max_len,
                                 budget=cfg.budget, cache_path=cfg.cache)
    _emit(cfg, "enum-absorbable", {"n": cfg.n, "max_len": cfg.max_len},
          [_element_json(e) for e in found],
          [format_element(e) for e in found] or ["none"])
    return 0


def _cmd_vertex(args, cfg: Config) -> int:
    v = vertex_of(parse_word(cfg.structure(), args.word))
    _emit(cfg, "vertex", {"word": args.word, "n": cfg.n},
          _element_json(v.rep), [format_element(v.rep)])
    return 0


def _cmd_adjacent(args, cfg: Config) -> int:
    st = cfg.structure()
    v = vertex_of(parse_word(st, args.left))
    w = vertex_of(parse_word(st, args.right))
    wit = are_adjacent(v, w, budget=cfg.budget)
    if wit is None:
        _emit(cfg, "adjacent", {"left": args.left, "right": args.right,
                                "n": cfg.n}, {"adjacent": False},
              ["not adjacent"])
        return 0
    lines = [f"adjacent: {wit.kind} label {format_element(wit.label)} "
             f"(shift {wit.shift})"]
    payload = {"adjacent": True, "kind": wit.kind, "shift": wit.shift,
               "label": _element_json(wit.label)}
    if wit.certificate is not None:
        lines.append(f"absorbed by {format_element(wit.certificate.x)}")
        payload["certificate"] = _element_json(wit.certificate.x)
    _emit(cfg, "adjacent", {"left": args.left, "right": args.right,
                            "n": cfg.n}, payload, lines)
    return 0


def _cmd_path(args, cfg: Config) -> int:
    st = cfg.structure()
    v = vertex_of(parse_word(st, args.left))
    w = vertex_of(parse_word(st, args.right))
    p = preferred_path(v, w)
    lines = [f"{len(p)} edges"]
    for i, label in enumerate(p.labels):
        word = format_simple(st, label)
        lines.append(f"{format_element(p.vertices[i].rep)} -> "
                     f"{format_element(p.vertices[i + 1].rep)} : {word}")
    _emit(cfg, "path", {"left": args.left, "right": args.right, "n": cfg.n},
          {"vertices": [_element_json(q.rep) for q in p.vertices],
           "labels": [one_line(st, f) for f in p.labels]}, lines)
    return 0


def _cmd_dist_ub(args, cfg: Config) -> int:
    st = cfg.structure()
    v = vertex_of(parse_word(st, args.left))
    w = vertex_of(parse_word(st, args.right))
    bound = distance_upper_bound(v, w, cfg.max_len, args.radius,
                                 budget=cfg.budget, cache_path=cfg.cache)
    _emit(cfg, "dist-ub", {"left": args.left, "right": args.right,
                           "n": cfg.n, "gen_len": cfg.max_len,
                           "radius": args.radius},
          {"upper_bound": bound},
          [f"<= {bound}" if bound is not None
           else f"no path found within radius {args.radius}"])
    return 0


def _cmd_witness(args, cfg: Config) -> int:
    x = distance_witness(cfg.strands())
    lines = [format_element(x)]
    payload = {"element": _element_json(x)}
    code = 0
    if args.check:
        report = check_witness_properties(cfg.n)
        lines.extend(report.lines())
        payload["checks"] = [{"label": c.label, "ok": c.passed,
                              "detail": c.detail} for c in report.checks]
        code = 0 if report.ok else 1
    _emit(cfg, "witness", {"n": cfg.n, "check": args.check}, payload, lines)
    return code


def _cmd_max_power(args, cfg: Config) -> int:
    st = cfg.structure()
    k = max_power_dividing(parse_word(st, args.base), parse_word(st, args.word))
    _emit(cfg, "max-power", {"base": args.base, "word": args.word,
                             "n": cfg.n}, {"max_power": k}, [str(k)])
    return 0


def _piece_payload(piece) -> dict:
    return {"factor": _element_json(piece.factor),
            "absorber": _element_json(piece.absorber), "rule": piece.rule}


def _cmd_decompose_delta(args, cfg: Config) -> int:
    pieces = delta_three_absorbables(cfg.strands(), args.power)
    _emit(cfg, "decompose-delta", {"n": cfg.n, "power": args.power},
          [_piece_payload(p) for p in pieces], [p.line() for p in pieces])
    return 0


def _cmd_decompose_reducible(args, cfg: Config) -> int:
    st = cfg.structure()
    y = parse_word(st, args.word)
    pieces = nine_absorbable_decomposition(y, _parse_curve(args.curve))
    _emit(cfg, "decompose-reducible",
          {"word": args.word, "n": cfg.n, "curve": args.curve},
          [_piece_payload(p) for p in pieces],
          [p.line() for p in pieces] or ["identity: no factors needed"])
    return 0


def _cmd_probe_orbit(args, cfg: Config) -> int:
    st = cfg.structure()
    g = parse_word(st, args.word)
    curve = _parse_curve(args.curve) if args.curve else None
    entries = orbit_diameter_probe(g, args.steps, cfg.max_len, args.radius,
                                   curve=curve, budget=cfg.budget)
    lines = ["i,upper_bound"]
    lines.extend(f"{e.power},{'' if e.upper_bound is None else e.upper_bound}"
                 for e in entries)
    _emit(cfg, "probe-orbit",
          {"word": args.word, "n": cfg.n, "steps": args.steps,
           "radius": args.radius, "gen_len": cfg.max_len, "curve": args.curve},
          [{"power": e.power, "upper_bound": e.upper_bound,
            "search_bound": e.search_bound,
            "decomposition_bound": e.decomposition_bound} for e in entries],
          lines)
    return 0


def _cmd_verify(args, cfg: Config) -> int:
    result = run_suite(args.suite, seed=cfg.seed, budget=cfg.budget,
                       cache_path=cfg.cache)
    _emit(cfg, "verify", {"suite": args.suite, "seed": cfg.seed},
          {"ok": result.ok,
           "checks": [{"label": c.label, "ok": c.ok, "detail": c.detail}
                      for c in result.checks],
           "notes": list(result.notes)},
          result.lines())
    return 0 if result.ok else 1


_DISPATCH = {
    "nf": _cmd_nf, "rnf": _cmd_rnf, "stats": _cmd_stats, "eq": _cmd_eq,
    "gcd": _cmd_gcd, "tau": _cmd_tau, "complement": _cmd_complement,
    "rigid": _cmd_rigid, "absorbable": _cmd_absorbable,
    "enum-absorbable": _cmd_enum_absorbable, "vertex": _cmd_vertex,
    "adjacent": _cmd_adjacent, "path": _cmd_path, "dist-ub": _cmd_dist_ub,
    "witness": _cmd_witness, "max-power": _cmd_max_power,
    "decompose-delta": _cmd_decompose_delta,
    "decompose-reducible": _cmd_decompose_reducible,
    "probe-orbit": _cmd_probe_orbit, "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None,
                        help="number of strands")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized suites")
    common.add_argument("--max-len", dest="max_len", type=int, default=None,
                        help="canonical length cap for generator enumeration")
    common.add_argument("--budget", type=int, default=None,
                        help="node budget for absorbability searches")
    common.add_argument("--cache", default=None,
                        help="path of the enumeration cache file")
    common.add_argument("--json", action="store_true",
                        help="structured output instead of plain text")

    parser = argparse.ArgumentParser(
        prog="garside-al",
        description="Garside arithmetic, absorbable elements, and the "
                    "coset complex they span.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        return sub.add_parser(name, parents=[common], help=help_text, **kwargs)

    p = add("nf", "left normal form of a braid word")
    p.add_argument("word")
    p = add("rnf", "right normal form of a braid word")
    p.add_argument("word")
    p = add("stats", "infimum, supremum, canonical length")
    p.add_argument("word")
    p = add("eq", "decide equality of two words")
    p.add_argument("left")
    p.add_argument("right")
    p = add("gcd", "greatest common prefix (or suffix) of two words")
    p.add_argument("left")
    p.add_argument("right_word", metavar="right")
    p.add_argument("--right", action="store_true",
                   help="use suffix order instead of prefix order")
    p = add("tau", "conjugate by the Garside element")
    p.add_argument("word")
    p.add_argument("--power", type=int, default=1)
    p = add("complement", "right complement of a positive element")
    p.add_argument("word")
    p = add("rigid", "test rigidity of the normal form")
    p.add_argument("word")
    p = add("absorbable", "decide absorbability")
    p.add_argument("word")
    p.add_argument("--certificate", action="store_true",
                   help="print an absorbing element when one exists")
    p.add_argument("--prime", action="store_true",
                   help="three-valued stronger variant (yes/no/unknown)")
    add("enum-absorbable", "list absorbable elements up to --max-len")
    p = add("vertex", "distinguished coset representative")
    p.add_argument("word")
    p = add("adjacent", "decide adjacency of two coset vertices")
    p.add_argument("left")
    p.add_argument("right")
    p = add("path", "preferred path between two coset vertices")
    p.add_argument("left")
    p.add_argument("right")
    p = add("dist-ub", "bidirectional search distance upper bound")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--radius", type=int, required=True)
    p = add("witness", "distance witness element for n strands")
    p.add_argument("--check", action="store_true",
                   help="verify the witness properties, exit 1 on failure")
    p = add("max-power", "largest power of the base prefixing a word")
    p.add_argument("base")
    p.add_argument("word")
    p = add("decompose-delta", "Garside power as three absorbable factors")
    p.add_argument("power", type=int)
    p = add("decompose-reducible",
            "tube-preserving braid as at most nine absorbable factors")
    p.add_argument("word")
    p.add_argument("--curve", required=True, metavar="LO,HI")
    p = add("probe-orbit", "per-power distance bounds as CSV")
    p.add_argument("word")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--curve", default=None, metavar="LO,HI")
    p = add("verify", "run a verification suite")
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
        return _DISPATCH[args.command](args, cfg)
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


if __name__ == "__main__":
    sys.exit(main())
