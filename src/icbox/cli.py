"""Command-line front end.

Subcommands: validate, box, protocol, eval, concat, scan, boundary,
classify.  Boxes are addressed by URI: builtin:pr, builtin:box45,
builtin:white:<N>, builtin:detzero:<N>, builtin:isotropic:<E>:<N>, or
file:<path> for a behavior JSON file.  An optional JSON config file mirrors
the flags: its keys are the flag names with dashes as underscores, and an
explicit flag beats the config, which beats the built-in default.

Exit codes: 0 success, 1 violation found under --fail-on-violation,
2 input or usage error.  All numbers print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from importlib import resources
from typing import Any, Iterator, Sequence, TextIO

from . import behaviors, criteria, protocol, scan
from .behaviors import Behavior, StructureError, load_catalog, named_box

def _fmt(v: float) -> str:
    return f"{v:.12g}"


# builtin URI name -> (named_box name, the URI arguments it takes: E a
# bias, N a party count; default party count)
_BUILTINS = {
    "pr": ("pr", "", 2), "box45": ("box45", "N", 3),
    "isotropic": ("isotropic", "EN", 3), "white": ("white", "N", None),
    "detzero": ("deterministic-zero", "N", None)}
_AT_MOST = ("no URI arguments", "at most one URI argument",
            "at most two URI arguments")


def parse_box_uri(uri: str, parties: int | None = None, *,
                  check: bool = True) -> Behavior:
    """Resolve a box URI; an explicit --parties must agree with any count
    embedded in the URI.  A file: box must pass validation unless check is
    False (the commands that report validity load it unchecked)."""
    if uri.startswith("file:"):
        b = behaviors.load_behavior(uri[len("file:"):])
        if parties is not None and parties != b.parties:
            raise ValueError(f"--parties {parties} but file has {b.parties}")
        if check:
            report = behaviors.validate(b)
            if not report.ok:
                raise ValueError(f"{uri} is not a valid box:\n"
                                 + report.summary())
        return b
    if not uri.startswith("builtin:"):
        raise ValueError(f"box URI must start with builtin: or file:, "
                         f"got {uri!r}")
    name, *args = uri[len("builtin:"):].split(":")
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin box {name!r}")
    box, takes, default = _BUILTINS[name]
    if len(args) > len(takes):
        raise ValueError(f"builtin:{name} takes {_AT_MOST[len(takes)]}")
    biased = takes.startswith("E")
    if biased and not args:
        raise ValueError(f"builtin:{name} needs :<E>[:<N>]")
    bias = _uri_number(name, "E", float, args[0]) if biased else None
    if len(args) > biased:   # a party count ends the URI
        n = _uri_number(name, "N", int, args[-1])
        if parties not in (None, n):
            raise ValueError(f"--parties {parties} conflicts with URI party "
                             f"count {n}")
        parties = n
    elif "N" not in takes and parties not in (None, default):
        raise ValueError(f"builtin:{name} is a {default}-party box")
    if parties is None and default is None:
        raise ValueError(f"builtin:{name} needs a party count "
                         f"(URI suffix or --parties)")
    return named_box(box, parties=default if parties is None else parties,
                     bias=bias)


def _uri_number(name: str, role: str, kind: type, text: str):
    """The URI argument text read as kind (float or int); the error names
    the URI and the argument's role."""
    try:
        return kind(text)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ValueError(f"builtin:{name}: {role} must be {what}, got "
                         f"{text!r}") from None


def _bundled_catalog_path() -> str:
    return str(resources.files("icbox").joinpath("data/example_catalog.json"))


# every flag by its destination, which is also its config key
_FLAGS: dict[str, dict[str, Any]] = {
    "box": {"help": "box URI (builtin:... or file:<path>)"},
    "parties": {"type": int},
    "criterion": {"action": "append",
                  "help": "criterion id (repeatable where sensible)"},
    "depth": {"type": int},
    "z": {"help": "receiver path bits, e.g. 01"},
    "epsilon_channel": {"type": float},
    "out": {"help": "output path (default stdout)"},
    "json": {"action": "store_true"},
    "fail_on_violation": {"action": "store_true"},
    "emit": {"action": "store_true", "help": "write the behavior as JSON"},
    "closed": {"action": "store_true",
               "help": "no effect: concat always reads the closed form "
                       "(kept for old scripts)"},
    "slice": {},
    "grid_step": {"type": float},
    "epsilon_slice": {"type": float},
    "tol": {"type": float},
    "catalog": {"help": "catalog JSON path (default: bundled partial "
                        "catalog)"},
}

# omitted flags default to None (off) unless listed here
_DEFAULTS = {"slice": "default", "grid_step": scan.DEFAULT_GRID_STEP,
             "tol": scan.BISECTION_TOL}
_REQUIRED = {"box", "epsilon_slice"}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers, built once.  Omitted flags
    stay off the namespace, so main can fill them from the config."""
    parser = argparse.ArgumentParser(
        prog="icbox", argument_default=argparse.SUPPRESS,
        description="Validate no-signaling boxes, run the XOR guessing task "
                    "on them, and evaluate information-causality criteria.")
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (handler, flags) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(
            name, help=handler.__doc__, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help=argparse.SUPPRESS)
        for dest in flags:
            p.add_argument("--" + dest.replace("_", "-"), **_FLAGS[dest])
    return parser, commands


def _load_config(path: str) -> dict[str, Any]:
    obj = behaviors.read_json(path)
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(obj) - set(_FLAGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {k: _from_config(k, v) for k, v in obj.items()}


def _from_config(key: str, value: Any) -> Any:
    """The config value of a flag: a string is read as the flag's
    command-line text; a typed flag also takes a JSON number of its type, a
    switch takes only true or false, and criterion a list of strings.  Any
    other value raises ValueError naming the key."""
    flag = _FLAGS[key]
    kind = flag.get("type")
    want = "an integer" if kind is int else "a number"
    if flag.get("action") == "store_true":
        if type(value) is bool:
            return value
        want = "true or false"
    elif flag.get("action") == "append":
        if isinstance(value, str):
            return [value]
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return value
        want = "a string or a list of strings"
    elif kind is None:
        if isinstance(value, str):
            return value
        want = "a string"
    elif isinstance(value, str) or type(value) in (int, kind):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"config key {key!r} must be {want}, got "
                     f"{behaviors._brief(value)}")


def _write_json(out: TextIO, obj: Any) -> None:
    """obj as indented JSON with sorted keys and a newline, in one write."""
    out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _slice_from_arg(arg: str, grid_step: float,
                    criteria_ids: Sequence[str]) -> scan.SliceSpec:
    if arg == "default":
        return scan.default_slice(criteria=criteria_ids, grid_step=grid_step)
    uris = arg.split(",")
    if len(uris) != 3:
        raise ValueError("--slice must be 'default' or three comma-separated "
                         "box URIs")
    gens = tuple(parse_box_uri(u) for u in uris)
    return scan.SliceSpec(generators=gens, grid_step=grid_step,
                          criteria=tuple(criteria_ids))


def _single_criterion(args: argparse.Namespace) -> str:
    ids = args.criterion
    if not ids:
        raise ValueError("--criterion is required")
    if len(ids) != 1:
        raise ValueError("exactly one --criterion expected here")
    return ids[0]


def _report_line(rep: criteria.CriterionReport) -> str:
    return (f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)} "
            f"margin={_fmt(rep.margin)} "
            f"violated={'true' if rep.violated else 'false'}")


def _cmd_validate(args: argparse.Namespace) -> int:
    """check table structure and no-signaling"""
    box = parse_box_uri(args.box, args.parties, check=False)
    report = behaviors.validate(box)
    with _output(args.out) as out:
        out.write(report.summary() + "\n")
    return 0 if report.ok else 2


def _cmd_box(args: argparse.Namespace) -> int:
    """emit or summarize a builtin/file box"""
    box = parse_box_uri(args.box, args.parties, check=False)
    with _output(args.out) as out:
        if args.emit:
            _write_json(out, behaviors.to_json_obj(box))
        else:
            report = behaviors.validate(box)
            out.write(f"parties={box.parties} entries={box.table.size} "
                      f"min={_fmt(float(box.table.min()))} "
                      f"max={_fmt(float(box.table.max()))} "
                      f"valid={'true' if report.ok else 'false'}\n")
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    """single-copy task biases and success profile"""
    box = parse_box_uri(args.box, args.parties)
    e_one, e_two = protocol.biases(box)
    profile = protocol.success_profile(box)
    with _output(args.out) as out:
        out.write(f"E_I={_fmt(e_one)} E_II={_fmt(e_two)}\n")
        for i, p in enumerate(profile.probabilities, start=1):
            out.write(f"p_success_choice{i}={_fmt(p)}\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    """evaluate one criterion on a box"""
    box = parse_box_uri(args.box, args.parties)
    criterion = _single_criterion(args)
    rep = criteria.evaluate(criterion, box, depth=args.depth,
                            epsilon=args.epsilon_channel)
    with _output(args.out) as out:
        if args.json:
            _write_json(out, rep.to_json_obj())
        else:
            out.write(_report_line(rep) + "\n")
    return 1 if args.fail_on_violation and rep.violated else 0


def _cmd_concat(args: argparse.Namespace) -> int:
    """exact concatenated-run success probability"""
    box = parse_box_uri(args.box, args.parties)
    if args.depth is None:
        raise ValueError("--depth is required")
    if args.z is None:
        raise ValueError("--z is required")
    if any(ch not in "01" for ch in args.z):
        raise ValueError(f"--z must be a bitstring, got {args.z!r}")
    if len(args.z) != args.depth:
        raise ValueError(f"--z must have {args.depth} bits, got {len(args.z)}")
    value = protocol.concat_success_closed(*protocol.biases(box), args.depth,
                                           args.z.count("1"))
    with _output(args.out) as out:
        out.write(_fmt(value) + "\n")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    """grid scan of the default slice, CSV output"""
    ids = args.criterion or scan.DEFAULT_SCAN_CRITERIA
    spec = _slice_from_arg(args.slice, args.grid_step, ids)
    rows = scan.scan_slice(spec, depth=args.depth,
                           epsilon_channel=args.epsilon_channel)
    with _output(args.out) as out:
        scan.write_scan_csv(rows, out)
    if args.fail_on_violation and any(r.violated for r in rows):
        return 1
    return 0


def _cmd_boundary(args: argparse.Namespace) -> int:
    """bisect a criterion boundary along a slice ray"""
    criterion = _single_criterion(args)
    spec = _slice_from_arg(args.slice, scan.DEFAULT_GRID_STEP, [criterion])
    point = scan.boundary(spec, criterion, args.epsilon_slice, args.tol,
                          depth=args.depth,
                          epsilon_channel=args.epsilon_channel)
    with _output(args.out) as out:
        scan.write_boundary_csv([point], out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    """classify a box catalog against both quadratic criteria"""
    path = args.catalog or _bundled_catalog_path()
    catalog = load_catalog(path)
    result = scan.classify_catalog(catalog)
    with _output(args.out) as out:
        if args.json:
            _write_json(out, result.to_json_obj())
        else:
            out.write(result.text_table() + "\n")
            for line in result.diff_vs_reference():
                out.write(line + "\n")
            gaps = result.coverage_gaps()
            if gaps:
                out.write(f"note: classes absent from catalog, not checked: "
                          f"{gaps}\n")
    return 0


# command -> (handler, whose docstring is the help line; flags)
_BOX = ("box", "parties")
_COMMANDS = {
    "validate": (_cmd_validate, (*_BOX, "out")),
    "box": (_cmd_box, (*_BOX, "out", "emit")),
    "protocol": (_cmd_protocol, (*_BOX, "out")),
    "eval": (_cmd_eval, (*_BOX, "criterion", "depth", "epsilon_channel",
                         "out", "json", "fail_on_violation")),
    "concat": (_cmd_concat, (*_BOX, "depth", "z", "out", "closed")),
    "scan": (_cmd_scan, ("criterion", "depth", "epsilon_channel", "out",
                         "fail_on_violation", "slice", "grid_step")),
    "boundary": (_cmd_boundary, ("criterion", "depth", "epsilon_channel",
                                 "out", "slice", "epsilon_slice", "tol")),
    "classify": (_cmd_classify, ("out", "json", "catalog")),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _parsers()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(args.config) if "config" in args else {}
    except (OSError, ValueError) as exc:
        print(f"error: bad --config: {exc}", file=sys.stderr)
        return 2
    handler, flags = _COMMANDS[args.command]
    for dest in flags:  # flag > config > default
        if dest in args:
            continue
        if dest in _REQUIRED and dest not in config:
            commands[args.command].error(
                "the following arguments are required: --"
                + dest.replace("_", "-"))
        setattr(args, dest, config.get(dest, _DEFAULTS.get(dest)))
    try:
        return handler(args)
    except (StructureError, ValueError, KeyError, OSError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
