"""Command-line front end.

Subcommands: validate, box, protocol, eval, concat, scan, boundary,
classify.  Boxes are addressed by URI: builtin:pr, builtin:box45,
builtin:white:<N>, builtin:detzero:<N>, builtin:isotropic:<E>:<N>, or
file:<path> for a behavior JSON file.  An optional JSON config file mirrors
the flags (dashes become underscores); explicit flags win.

Exit codes: 0 success, 1 violation found under --fail-on-violation,
2 input or usage error.  All numbers print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from importlib import resources
from typing import Any, Sequence

from . import behaviors, criteria, protocol, scan
from .behaviors import Behavior, StructureError, load_catalog, named_box

_CONFIG_KEYS = {"box", "parties", "criterion", "depth", "z",
                "epsilon_channel", "epsilon_slice", "grid_step", "out",
                "catalog", "slice", "json", "fail_on_violation", "emit",
                "closed", "tol"}


def _fmt(v: float) -> str:
    return f"{v:.12g}"


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
    parts = uri[len("builtin:"):].split(":")
    name, args = parts[0], parts[1:]

    def pick_parties(default: int | None, embedded: str | None) -> int:
        n = int(embedded) if embedded is not None else None
        if n is not None and parties is not None and n != parties:
            raise ValueError(f"--parties {parties} conflicts with URI "
                             f"party count {n}")
        chosen = n if n is not None else (parties if parties is not None
                                          else default)
        if chosen is None:
            raise ValueError(f"builtin:{name} needs a party count "
                             f"(URI suffix or --parties)")
        return chosen

    if name == "pr":
        if args:
            raise ValueError("builtin:pr takes no URI arguments")
        if parties not in (None, 2):
            raise ValueError("builtin:pr is a 2-party box")
        return named_box("pr")
    if name == "box45":
        if len(args) > 1:
            raise ValueError("builtin:box45 takes at most one URI argument")
        n = pick_parties(3, args[0] if args else None)
        return named_box("box45", parties=n)
    if name in ("white", "detzero"):
        if len(args) > 1:
            raise ValueError(f"builtin:{name} takes at most one URI argument")
        n = pick_parties(None, args[0] if args else None)
        real = "white" if name == "white" else "deterministic-zero"
        return named_box(real, parties=n)
    if name == "isotropic":
        if not args:
            raise ValueError("builtin:isotropic needs :<E>[:<N>]")
        bias = float(args[0])
        n = pick_parties(3, args[1] if len(args) > 1 else None)
        return named_box("isotropic", parties=n, bias=bias)
    raise ValueError(f"unknown builtin box {name!r}")


def _bundled_catalog_path() -> str:
    return str(resources.files("icbox").joinpath("data/example_catalog.json"))


def _build_parser(config: dict[str, Any] | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icbox",
        description="Validate no-signaling boxes, run the XOR guessing task "
                    "on them, and evaluate information-causality criteria.")
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help=argparse.SUPPRESS)
        if "box" in flags:
            p.add_argument("--box", required=config is None or
                           "box" not in config,
                           help="box URI (builtin:... or file:<path>)")
            p.add_argument("--parties", type=int)
        if "criterion" in flags:
            p.add_argument("--criterion", action="append",
                           help="criterion id (repeatable where sensible)")
        if "depth" in flags:
            p.add_argument("--depth", type=int)
        if "z" in flags:
            p.add_argument("--z", help="receiver path bits, e.g. 01")
        if "epsilon_channel" in flags:
            p.add_argument("--epsilon-channel", type=float,
                           dest="epsilon_channel")
        if "out" in flags:
            p.add_argument("--out", help="output path (default stdout)")
        if "json" in flags:
            p.add_argument("--json", action="store_true", dest="as_json")
        if "fail" in flags:
            p.add_argument("--fail-on-violation", action="store_true",
                           dest="fail_on_violation")
        if config:
            known = {a.dest for a in p._actions} - {"criterion"}
            p.set_defaults(**{k: v for k, v in config.items() if k in known})
        return p

    add("validate", "check table structure and no-signaling", "box", "out")
    p_box = add("box", "emit or summarize a builtin/file box", "box", "out")
    p_box.add_argument("--emit", action="store_true",
                       help="write the behavior as JSON")
    if config and "emit" in config:
        p_box.set_defaults(emit=config["emit"])
    add("protocol", "single-copy task biases and success profile",
        "box", "epsilon_channel", "out")
    add("eval", "evaluate one criterion on a box",
        "box", "criterion", "depth", "epsilon_channel", "out", "json", "fail")
    p_concat = add("concat", "exact concatenated-run success probability",
                   "box", "depth", "z", "out")
    p_concat.add_argument("--closed", action="store_true",
                          help="use the closed form in the box biases "
                               "instead of exact enumeration")
    if config and "closed" in config:
        p_concat.set_defaults(closed=config["closed"])
    p_scan = add("scan", "grid scan of the default slice, CSV output",
                 "criterion", "depth", "epsilon_channel", "out", "fail")
    p_scan.add_argument("--slice", default="default")
    p_scan.add_argument("--grid-step", type=float, default=0.01,
                        dest="grid_step")
    p_bnd = add("boundary", "bisect a criterion boundary along a slice ray",
                "criterion", "depth", "epsilon_channel", "out")
    p_bnd.add_argument("--slice", default="default")
    p_bnd.add_argument("--epsilon-slice", type=float, required=not (
        config and "epsilon_slice" in config), dest="epsilon_slice")
    p_bnd.add_argument("--tol", type=float, default=scan.BISECTION_TOL)
    p_cls = add("classify", "classify a box catalog against both quadratic "
                "criteria", "out", "json")
    p_cls.add_argument("--catalog", help="catalog JSON path "
                       "(default: bundled partial catalog)")
    for p, keys in ((p_scan, ("slice", "grid_step")),
                    (p_bnd, ("slice", "epsilon_slice", "tol")),
                    (p_cls, ("catalog",))):
        if config:
            p.set_defaults(**{k: config[k] for k in keys if k in config})
    return parser


def _load_config(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return obj


class _Output:
    def __init__(self, path: str | None) -> None:
        self.path = path

    def __enter__(self) -> io.TextIOBase:
        if self.path is None:
            self.stream = sys.stdout
        else:
            self.stream = open(self.path, "w", encoding="utf-8")
        return self.stream

    def __exit__(self, *exc: Any) -> None:
        if self.path is not None:
            self.stream.close()


def _slice_from_arg(arg: str, grid_step: float,
                    criteria_ids: Sequence[str]) -> scan.SliceSpec:
    if arg == "default":
        return scan.default_slice(criteria=criteria_ids, gamma_step=grid_step,
                                  epsilon_step=grid_step)
    uris = arg.split(",")
    if len(uris) != 3:
        raise ValueError("--slice must be 'default' or three comma-separated "
                         "box URIs")
    gens = tuple(parse_box_uri(u) for u in uris)
    return scan.SliceSpec(generators=gens, gamma_step=grid_step,
                          epsilon_step=grid_step,
                          criteria=tuple(criteria_ids))


def _single_criterion(args: argparse.Namespace) -> str:
    ids = args.criterion
    if not ids:
        raise ValueError("--criterion is required")
    if isinstance(ids, str):
        return ids
    if len(ids) != 1:
        raise ValueError("exactly one --criterion expected here")
    return ids[0]


def _report_line(rep: criteria.CriterionReport) -> str:
    return (f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)} "
            f"margin={_fmt(rep.margin)} "
            f"violated={'true' if rep.violated else 'false'}")


def _cmd_validate(args: argparse.Namespace) -> int:
    box = parse_box_uri(args.box, args.parties, check=False)
    report = behaviors.validate(box)
    with _Output(args.out) as out:
        out.write(report.summary() + "\n")
    return 0 if report.ok else 2


def _cmd_box(args: argparse.Namespace) -> int:
    box = parse_box_uri(args.box, args.parties, check=False)
    with _Output(args.out) as out:
        if args.emit:
            json.dump(behaviors.to_json_obj(box), out, indent=2,
                      sort_keys=True)
            out.write("\n")
        else:
            report = behaviors.validate(box)
            out.write(f"parties={box.parties} entries={box.table.size} "
                      f"min={_fmt(float(box.table.min()))} "
                      f"max={_fmt(float(box.table.max()))} "
                      f"valid={'true' if report.ok else 'false'}\n")
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    box = parse_box_uri(args.box, args.parties)
    e_one, e_two = protocol.biases(box)
    profile = protocol.success_profile(box)
    with _Output(args.out) as out:
        out.write(f"E_I={_fmt(e_one)} E_II={_fmt(e_two)}\n")
        for i, p in enumerate(profile.probabilities, start=1):
            out.write(f"p_success_choice{i}={_fmt(p)}\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    box = parse_box_uri(args.box, args.parties)
    criterion = _single_criterion(args)
    rep = criteria.evaluate(criterion, box, depth=args.depth,
                            epsilon=args.epsilon_channel)
    with _Output(args.out) as out:
        if args.as_json:
            json.dump(rep.to_json_obj(), out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write(_report_line(rep) + "\n")
    return 1 if args.fail_on_violation and rep.violated else 0


def _cmd_concat(args: argparse.Namespace) -> int:
    box = parse_box_uri(args.box, args.parties)
    if args.depth is None:
        raise ValueError("--depth is required")
    if args.z is None:
        raise ValueError("--z is required")
    if any(ch not in "01" for ch in args.z):
        raise ValueError(f"--z must be a bitstring, got {args.z!r}")
    zbits = tuple(int(ch) for ch in args.z)
    if args.closed:
        e_one, e_two = protocol.biases(box)
        value = protocol.concat_success_closed(e_one, e_two, args.depth,
                                               sum(zbits))
    else:
        value = protocol.concat_success_simulated(box, args.depth, zbits)
    with _Output(args.out) as out:
        out.write(_fmt(value) + "\n")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    ids = args.criterion or ["ic-multi", "ic-multicopy"]
    spec = _slice_from_arg(args.slice, args.grid_step, ids)
    rows = scan.scan_slice(spec, depth=args.depth,
                           epsilon_channel=args.epsilon_channel)
    with _Output(args.out) as out:
        scan.write_scan_csv(rows, out)
    if args.fail_on_violation and any(r.violated for r in rows):
        return 1
    return 0


def _cmd_boundary(args: argparse.Namespace) -> int:
    criterion = _single_criterion(args)
    spec = _slice_from_arg(args.slice, scan.DEFAULT_GRID_STEP, [criterion])
    point = scan.boundary(spec, criterion, args.epsilon_slice, args.tol,
                          depth=args.depth,
                          epsilon_channel=args.epsilon_channel)
    with _Output(args.out) as out:
        scan.write_boundary_csv([point], out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    path = args.catalog or _bundled_catalog_path()
    catalog = load_catalog(path)
    result = scan.classify_catalog(catalog)
    with _Output(args.out) as out:
        if args.as_json:
            json.dump(result.to_json_obj(), out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write(result.text_table() + "\n")
            for line in result.diff_vs_reference():
                out.write(line + "\n")
            gaps = result.coverage_gaps()
            if gaps:
                out.write(f"note: classes absent from catalog, not checked: "
                          f"{gaps}\n")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "box": _cmd_box,
    "protocol": _cmd_protocol,
    "eval": _cmd_eval,
    "concat": _cmd_concat,
    "scan": _cmd_scan,
    "boundary": _cmd_boundary,
    "classify": _cmd_classify,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config: dict[str, Any] | None = None
    if "--config" in argv:
        try:
            config = _load_config(argv[argv.index("--config") + 1])
        except (IndexError, OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: bad --config: {exc}", file=sys.stderr)
            return 2
    parser = _build_parser(config)
    args = parser.parse_args(argv)
    if (config and "criterion" in config
            and not getattr(args, "criterion", None)
            and hasattr(args, "criterion")):
        wanted = config["criterion"]
        args.criterion = [wanted] if isinstance(wanted, str) else list(wanted)
    try:
        return _HANDLERS[args.command](args)
    except (StructureError, ValueError, NotImplementedError, KeyError,
            OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
