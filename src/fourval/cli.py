"""Command-line front end.

Subcommands: decide, derive, verify, systems {list,show}, algebra
{dump,census}, leibniz.  Reports are plain text or JSON (schema 1); with
identical configuration (including the seed) the JSON output is
byte-identical apart from the "timings" block.

Exit codes: 0 success/valid, 1 invalid or violations found, 2 usage or
parse/signature error, 3 inconclusive derivation search, 141 standard output
closed before the report was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
from dataclasses import asdict, dataclass, fields

from .algebra import AlgebraError, algebra_to_json, builtin, enumerate_dm_lattices
from .engine import (
    DeriveBudgetError,
    check_derivation,
    decide,
    derivation_to_json,
    derive,
)
from .leibniz import leibniz_binary, leibniz_structure, leibniz_unary, quotient_structure
from .structures import (
    DEFAULT_VARIABLE_LIMIT,
    SignatureMismatchError,
    VariableLimitError,
    format_name,
    parse_name,
    preset_names,
    preset_structure,
    structure_to_json,
)
from .syntax import (
    ParseError,
    UsageError,
    formula_text,
    parse_rule,
    parse_rule_lines,
    print_rule,
)
from .systems import all_system_names, export_rule_text, system
from . import verify as verify_mod

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


@dataclass
class RunConfig:
    command: str
    logic: str | None = None
    system: str | None = None
    rule: str | None = None
    rules_file: str | None = None
    depth: int = 8
    size: int = 4
    max_size: int = 6
    var_limit: int = DEFAULT_VARIABLE_LIMIT
    seed: int = 0
    jobs: int = 1
    output: str = "text"


OUTPUT_FORMATS = ("text", "json")
# the command and its operands come from the command line only; every
# other setting from a flag, else the config file, else its default
_OPERANDS = ("logic", "system", "rule")
_FILE_SETTINGS = frozenset(f.name for f in fields(RunConfig)) - {"command", *_OPERANDS}
_INT_SETTINGS = frozenset(f.name for f in fields(RunConfig) if type(f.default) is int)


def _load_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; flags override these.

    Integer settings are converted here.  A key that names no setting, a
    value that is not an integer, and an output format that is not one of
    OUTPUT_FORMATS are ValueErrors naming the key."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}")
            key, value = line.split("=", 1)
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in _FILE_SETTINGS:
                raise ValueError(f"config {key}: unknown setting")
            if key == "output" and value not in OUTPUT_FORMATS:
                raise ValueError(f"config output: {value!r} is not one of {', '.join(OUTPUT_FORMATS)}")
            if key in _INT_SETTINGS:
                try:
                    value = int(value)
                except ValueError as exc:
                    raise ValueError(f"config {key}: {exc}") from None
            out[key] = value
    return out


def _emit(report: dict, cfg: RunConfig, out=None):
    out = out if out is not None else sys.stdout
    if cfg.output == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _emit_text(report, out)


def _emit_text(report: dict, out):
    for key, value in report.items():
        if key in ("schema", "config", "timings"):
            continue
        if isinstance(value, (list, dict)):
            out.write(f"{key}:\n")
            text = json.dumps(value, indent=2, sort_keys=True)
            for line in text.splitlines():
                out.write(f"  {line}\n")
        else:
            out.write(f"{key}: {value}\n")
    for rep in report.get("suites", ()):
        if rep.get("empty"):
            out.write(f"{rep['suite']}: nothing checked\n")


def _envelope(cfg: RunConfig, result: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "command": cfg.command,
            "config": asdict(cfg), **result}


def _resolve_preset(name: str):
    """A --logic value may be a preset name or an axiom-system name."""
    base, _ = parse_name(name)  # may raise UsageError on the suffix
    if base in preset_names():
        return name, preset_structure(name)
    if base not in {parse_name(n)[0] for n in all_system_names()}:
        raise UsageError(f"unknown preset or axiom system {name!r}")
    sysd = system(name)  # may raise UsageError on the constants
    return sysd.preset, preset_structure(sysd.preset)


def cmd_decide(cfg: RunConfig) -> int:
    preset_name, st = _resolve_preset(cfg.logic)
    sigspec = st.signature()
    if cfg.rules_file:
        try:
            with open(cfg.rules_file) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read rule file: {exc}") from None
        rules = parse_rule_lines(text, sigspec)
    else:
        rules = [parse_rule(cfg.rule, sigspec)]
    results = []
    all_valid = True
    for r in rules:
        verdict = decide(st, r, cfg.var_limit)
        entry = {"rule": print_rule(r), "valid": verdict.valid}
        if not verdict.valid:
            all_valid = False
            entry["counter_valuation"] = {
                v: st.algebra.element_name(e) for v, e in sorted(verdict.valuation.items())}
            entry["failed_conclusions"] = [formula_text(c) for c in verdict.failed_conclusions]
        results.append(entry)
    result = {"preset": preset_name, "results": results, "valid": all_valid}
    if not results:  # a rule file of comments and blank lines: nothing was checked
        result["empty"] = True
    _emit(_envelope(cfg, result), cfg)
    return EXIT_OK if all_valid else EXIT_INVALID


def cmd_derive(cfg: RunConfig) -> int:
    sysd = system(cfg.system)
    r = parse_rule(cfg.rule, sysd.signature)
    if not r.is_single_conclusion:
        raise ParseError("derive needs a single-conclusion rule", 0)
    verdict = decide(sysd.preset, r, cfg.var_limit)
    if not verdict.valid:
        st = preset_structure(sysd.preset)
        report = _envelope(cfg, {
            "system": sysd.name,
            "rule": print_rule(r),
            "status": "invalid",
            "counter_valuation": {v: st.algebra.element_name(e)
                                  for v, e in sorted(verdict.valuation.items())},
        })
        _emit(report, cfg)
        return EXIT_INVALID
    if sysd.kind != "single-conclusion":
        raise UsageError(f"derive only searches single-conclusion systems, not {sysd.name}")
    d = derive(sysd, r, cfg.depth)
    if d is None:
        report = _envelope(cfg, {"system": sysd.name, "rule": print_rule(r),
                                 "status": "inconclusive", "depth": cfg.depth})
        _emit(report, cfg)
        return EXIT_INCONCLUSIVE
    ok, msg = check_derivation(sysd, d, r)
    report = _envelope(cfg, {
        "system": sysd.name,
        "rule": print_rule(r),
        "status": "derived",
        "certificate": derivation_to_json(d),
        "certificate_checked": ok,
        "depth": d.depth,
    })
    _emit(report, cfg)
    return EXIT_OK if ok else EXIT_INVALID


# the settings each suite reads from the command line; the others run at
# their defaults
_SUITE_ARGS = {
    "leibniz-crosscheck": lambda cfg: {"max_size": min(cfg.max_size, 5)},
    "subdirect": lambda cfg: {"max_size": cfg.max_size},
    "classification": lambda cfg: {"size": cfg.size, "jobs": cfg.jobs},
    "mc-classification": lambda cfg: {"size": cfg.size, "jobs": cfg.jobs},
    "translation": lambda cfg: {"seed": cfg.seed},
    "derivability": lambda cfg: {"depth": cfg.depth, "seed": cfg.seed},
    "completeness-evidence": lambda cfg: {"derive_depth": cfg.depth},
    "roundtrip": lambda cfg: {"seed": cfg.seed},
}


def cmd_verify(cfg: RunConfig, suites: list[str]) -> int:
    if suites == ["all"]:
        suites = list(verify_mod.SUITES)
    for name in suites:  # every name is checked before any suite runs
        if name not in verify_mod.SUITES:
            raise UsageError(f"unknown verification suite {name!r}")
    reports = [verify_mod.run_suite(name, **_SUITE_ARGS.get(name, lambda cfg: {})(cfg))
               for name in suites]
    ok = all(rep["ok"] for rep in reports)
    report = _envelope(cfg, {"ok": ok, "suites": reports})
    _emit(report, cfg)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_systems(cfg: RunConfig, action: str, name: str | None, as_rules: bool) -> int:
    if action == "list":
        report = _envelope(cfg, {"systems": all_system_names()})
        _emit(report, cfg)
        return EXIT_OK
    sysd = system(name)
    if as_rules:
        sys.stdout.write(export_rule_text(sysd))
        return EXIT_OK
    report = _envelope(cfg, {
        "name": sysd.name,
        "kind": sysd.kind,
        "preset": sysd.preset,
        "notes": sysd.notes,
        "signature": {"relations": sorted(sysd.signature.relations),
                      "constants": sorted(sysd.signature.constants)},
        "schemes": [{"name": s.name, "role": s.role, "rule": print_rule(s.rule)}
                    for s in sysd.schemes],
    })
    _emit(report, cfg)
    return EXIT_OK


def cmd_algebra(cfg: RunConfig, action: str, name: str | None, constants: str,
                kleene: bool) -> int:
    if action == "dump":
        base, consts = parse_name(f"{name}+{constants}" if constants else name)
        try:
            data = structure_to_json(preset_structure(format_name(base, consts)))
        except UsageError:
            data = algebra_to_json(builtin(base, consts))
        report = _envelope(cfg, {"algebra": data})
        _emit(report, cfg)
        return EXIT_OK
    # largest size first, so that a size above the census bound fails at once
    per_size = [enumerate_dm_lattices(n, kleene_only=kleene) for n in range(cfg.max_size, 0, -1)]
    census = [algebra_to_json(alg) for algs in reversed(per_size) for alg in algs]
    report = _envelope(cfg, {"count": len(census), "census": census,
                             "kleene_only": kleene, "max_size": cfg.max_size})
    _emit(report, cfg)
    return EXIT_OK


def cmd_leibniz(cfg: RunConfig) -> int:
    st = preset_structure(cfg.logic)
    theta = leibniz_structure(st)
    per_relation = {}
    for rel, mask in sorted(st.unary.items()):
        per_relation[rel] = list(leibniz_unary(st.algebra, mask).rep)
    for rel, rows in sorted(st.binary.items()):
        per_relation[rel] = list(leibniz_binary(st.algebra, rows).rep)
    red, proj = quotient_structure(st, theta)
    report = _envelope(cfg, {
        "preset": cfg.logic,
        "per_relation": per_relation,
        "leibniz_congruence": list(theta.rep),
        "reduced": theta.is_identity,
        "reduct": structure_to_json(red),
        "projection": list(proj),
    })
    _emit(report, cfg)
    return EXIT_OK


def _global_flags(default) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", default=default,
                       help="key=value config file merged under explicit flags")
    flags.add_argument("--output", choices=OUTPUT_FORMATS, default=default)
    flags.add_argument("--seed", type=int, default=default)
    flags.add_argument("--jobs", type=int, default=default)
    return flags


def build_parser() -> argparse.ArgumentParser:
    # the flags go on either side of the subcommand; a subparser sets only
    # the flags given after it, so it never resets one given before it
    common = _global_flags(argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="fourval",
        parents=[_global_flags(None)],
        description="Four-valued relational logics over finite De Morgan lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("decide", help="decide a rule against a preset structure")
    p.add_argument("--logic", required=True,
                   help="preset or system name, e.g. BD, BDE+n, MC-ETL")
    p.add_argument("--var-limit", type=int, default=None)
    p.add_argument("--file", dest="rules_file",
                   help="rule file: one rule per line, # comments")
    p.add_argument("rule", nargs="?", help="rule text, e.g. 'E(x) |- T(x)'")

    p = add_parser("derive", help="search for a derivation certificate")
    p.add_argument("--system", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("rule")

    # the suite list is wrapped here, not by argparse, which would break
    # hyphenated names across lines
    suite_list = textwrap.fill(", ".join(verify_mod.SUITES), 76, initial_indent="  ",
                               subsequent_indent="  ", break_on_hyphens=False)
    p = add_parser("verify", help="run named verification suites",
                   formatter_class=argparse.RawDescriptionHelpFormatter,
                   epilog="suites:\n" + suite_list)
    p.add_argument("suites", nargs="+", help="'all' or suite names (listed below)")
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)

    p = add_parser("systems", help="catalogue of axiom systems")
    ss = p.add_subparsers(dest="systems_action", required=True)
    ss.add_parser("list", parents=[common])
    q = ss.add_parser("show", parents=[common])
    q.add_argument("name")
    q.add_argument("--rules", action="store_true", help="plain rule-per-line export")

    p = add_parser("algebra", help="dump builtin algebras or run the census")
    aa = p.add_subparsers(dest="algebra_action", required=True)
    q = aa.add_parser("dump", parents=[common])
    q.add_argument("name", help="builtin or preset name (B2, K3, DM4, BD, BDE-eq, ...)")
    q.add_argument("--constants", default="",
                   help="constants to add, as the letters of a +suffix")
    q = aa.add_parser("census", parents=[common])
    q.add_argument("--max-size", type=int, default=None)
    q.add_argument("--kleene", action="store_true")

    p = add_parser("leibniz", help="Leibniz congruence and reduct of a preset")
    p.add_argument("--preset", dest="logic", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    merged: dict = {}
    if args.config:
        try:
            merged.update(_load_config_file(args.config))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    def pick(name, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return merged.get(name, default)

    cfg = RunConfig(
        command=args.command,
        **{name: getattr(args, name, None) for name in _OPERANDS},
        **{f.name: pick(f.name, f.default) for f in fields(RunConfig) if f.name in _FILE_SETTINGS},
    )
    if cfg.jobs < 1:
        print(f"error: --jobs must be at least 1, got {cfg.jobs}", file=sys.stderr)
        return EXIT_USAGE
    for name in ("size", "max_size", "depth", "var_limit"):
        value = getattr(cfg, name)
        if value < 0:
            print(f"error: --{name.replace('_', '-')} must be at least 0, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = _run(args, cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone (`fourval ... | head`): send what is
        # still buffered to devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        if args.command == "decide":
            if not cfg.rule and not cfg.rules_file:
                print("error: decide needs a rule or --file", file=sys.stderr)
                return EXIT_USAGE
            return cmd_decide(cfg)
        if args.command == "derive":
            return cmd_derive(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suites)
        if args.command == "systems":
            return cmd_systems(cfg, args.systems_action, getattr(args, "name", None),
                               getattr(args, "rules", False))
        if args.command == "algebra":
            return cmd_algebra(cfg, args.algebra_action, getattr(args, "name", None),
                               getattr(args, "constants", ""), getattr(args, "kleene", False))
        if args.command == "leibniz":
            return cmd_leibniz(cfg)
        print(f"error: unknown command {args.command}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SignatureMismatchError, VariableLimitError, UsageError,
            AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DeriveBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
