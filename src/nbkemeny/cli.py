"""Command-line frontend.

Subcommands: compute (cross-validated Kemeny report), matrices (dump any
walk matrix as CSV), closed-form (exact formula evaluation), sweep
(balanced barbell sweep), census (edge vs non-backtracking comparison),
and generate (emit graph6 for a built-in family).  Output is JSON or CSV,
deterministic byte-for-byte for identical invocations.  Exit codes:
0 success, 1 validation or usage error (an unknown subcommand, option or
choice included), 2 internal cross-check failure.  ``compute --tol`` must
be finite and >= 0.

Graphs are given either as a generator spec in a flat ``name:args``
grammar (``complete:5``, ``bipartite:2,3``, ``cycle:5``, ``path:4``,
``necklace:3``, ``barbell:2,15,15``), as a raw graph6 string, or read
from ``--input`` (a path or ``-`` for stdin) instead; giving both is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys
from typing import Optional, Sequence

from . import census as census_mod
from . import chains, engine, formulas, graphs
from .engine import EXACT_STATE_CAP
from .ratmath import format_scalar


class CliError(ValueError):
    """Validation failure that should exit with status 1."""


# ---------------------------------------------------------------------------
# input handling


def parse_generator_spec(spec: str) -> graphs.Graph:
    """Build a graph from the flat ``name:args`` mini-grammar, falling
    back to graph6 for anything that is not a known family name."""
    name, _, argstr = spec.partition(":")
    builders = {
        "complete": (graphs.gen_complete, 1),
        "bipartite": (graphs.gen_complete_bipartite, 2),
        "cycle": (graphs.gen_cycle, 1),
        "path": (graphs.gen_path, 1),
        "necklace": (graphs.gen_necklace, 1),
        "barbell": (graphs.gen_cycle_barbell, 3),
    }
    if name in builders:
        fn, arity = builders[name]
        args = _int_list(f"generator {name!r}", argstr, arity)
        try:
            return fn(*args)
        except graphs.GraphError as exc:
            raise CliError(str(exc))
    try:
        return graphs.parse_graph6(spec)
    except graphs.GraphError:
        raise CliError(
            f"{spec!r} is neither a known generator spec "
            "(complete, bipartite, cycle, path, necklace, barbell) nor valid graph6")


# ASCII digits with an optional minus sign; int() alone would also take
# "1_0", " 5" and "+6".  Negative values reach the range checks.
_INTEGER = re.compile(r"-?[0-9]+")


def _int_list(what: str, text: Optional[str], arity: int) -> list[int]:
    """The comma-separated integers of a generator spec or a closed-form
    argument: exactly arity fields, none of them empty."""
    parts = text.split(",") if text else []
    if len(parts) != arity:
        raise CliError(f"{what} takes {arity} integer argument(s), got {text!r}")
    if not all(_INTEGER.fullmatch(p) for p in parts):
        raise CliError(f"{what} needs integers, got {text!r}")
    return [int(p) for p in parts]


def _read_input(path: str):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliError(f"malformed graph6 in {path!r}: non-ASCII byte at offset {exc.start}")


def _graph_from_args(spec: Optional[str], path: Optional[str]) -> graphs.Graph:
    """The one graph of a command: a generator spec or graph6 string, or the
    first graph6 line of the file at ``--input``, never both."""
    if spec and path:
        raise CliError("give the graph as an argument or with --input, not both")
    if path:
        text = _read_input(path)
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise CliError(f"no graph6 line found in {path!r}")
        try:
            return graphs.parse_graph6(lines[0])
        except graphs.GraphError as exc:
            raise CliError(f"malformed graph6 in {path!r}: {exc}")
    if not spec:
        raise CliError("give a generator spec / graph6 string, or --input")
    return parse_generator_spec(spec)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compute(args) -> int:
    g = _graph_from_args(args.graph, args.input)
    if args.mode == "exact":
        states = max(g.n, 2 * g.m)
        if states > EXACT_STATE_CAP:
            raise CliError(
                f"exact mode needs at most {EXACT_STATE_CAP} states per walk; "
                f"this graph has {states} (use --mode auto or float)")
    report = engine.kemeny_triple(g, mode=args.mode, tol=args.tol)
    if report.nb_omitted is not None:
        raise CliError(report.nb_omitted)
    if args.output == "json":
        out = report.to_json()
    else:
        lines = ["quantity,value"]
        lines.append(f"k_vertex,{format_scalar(report.k_vertex)}")
        lines.append(f"k_edge,{format_scalar(report.k_edge)}")
        lines.append(f"k_nb,{format_scalar(report.k_nb)}")
        for walk in sorted(report.residuals):
            lines.append(f"residual_{walk},{report.residuals[walk]:.3g}")
        lines.append(f"identity_residual,{report.identity_residual:.3g}")
        out = "\n".join(lines)
    print(out)
    if report.failed:
        print(f"cross-check failure: exact values differ or floats differ by more "
              f"than tol*max(1,K/256)^2 with tol {args.tol}", file=sys.stderr)
        return 2
    return 0


def _cmd_matrices(args) -> int:
    g = _graph_from_args(args.graph, args.input)
    exact = args.mode != "float"
    try:
        M = chains.build_matrix(g, args.kind, exact=exact)
    except chains.ChainError as exc:
        raise CliError(str(exc))
    rows = [[format_scalar(x) for x in row] for row in M.data]
    if args.output == "json":
        print(json.dumps(
            {"kind": M.kind, "shape": list(M.shape), "rows": rows}, indent=2))
    else:
        print("\n".join(",".join(row) for row in rows))
    return 0


_FORMULA_NAMES = ("necklace", "barbell", "regular", "biregular",
                  "barbell-edge-max", "barbell-nb-max")


def _closed_form_dict(args) -> dict:
    name, arg = args.formula, args.arg
    what = f"formula {name!r}"
    if name == "necklace":
        (n,) = _int_list(what, arg, 1)
        kv, ke, knb = formulas.necklace_kemeny(n)
        return {"formula": "necklace", "n": n, "k_vertex": format_scalar(kv),
                "k_edge": format_scalar(ke), "k_nb": format_scalar(knb)}
    if name == "barbell":
        params = graphs.BarbellParams(*_int_list(what, arg, 3))
        kv, ke, knb = formulas.barbell_kemeny(params)
        return {"formula": "barbell", "k": params.k, "a": params.a,
                "b": params.b, "k_vertex": format_scalar(kv),
                "k_edge": format_scalar(ke), "k_nb": format_scalar(knb)}
    if name == "barbell-edge-max":
        (n,) = _int_list(what, arg, 1)
        params, value = formulas.barbell_edge_max(n)
        return {"formula": "barbell-edge-max", "n": n, "k": params.k,
                "a": params.a, "b": params.b, "k_edge": format_scalar(value)}
    if name == "barbell-nb-max":
        (n,) = _int_list(what, arg, 1)
        params, value = formulas.barbell_nb_max(n)
        return {"formula": "barbell-nb-max", "n": n, "k": params.k,
                "a": params.a, "b": params.b, "k_nb": format_scalar(value)}
    if name in ("regular", "biregular"):
        g = _graph_from_args(arg, args.input)
        if name == "regular":
            prof = formulas.regular_profile(g)
            ke = formulas.regular_edge_kemeny(prof)
            knb = formulas.regular_nb_kemeny(prof, ke)
            checks = formulas.regular_bounds(prof, ke, knb)
        else:
            prof = formulas.biregular_profile(g)
            ke = formulas.biregular_edge_kemeny(prof)
            knb = formulas.biregular_nb_kemeny(prof, ke)
            checks = formulas.biregular_bounds(prof, ke, knb)
        return {
            "formula": name,
            "n": g.n,
            "m": g.m,
            "k_edge": format_scalar(ke),
            "k_nb": format_scalar(knb),
            "bounds": [
                {"name": c.name, "satisfied": c.satisfied,
                 "margin": format_scalar(c.margin),
                 "known_exception": c.known_exception}
                for c in checks
            ],
        }
    raise CliError(f"unknown formula {name!r}; choose from {_FORMULA_NAMES}")


def _cmd_closed_form(args) -> int:
    if args.input and args.formula not in ("regular", "biregular"):
        raise CliError("--input applies only to closed-form regular or biregular")
    try:
        payload = _closed_form_dict(args)
    except (formulas.FormulaError, graphs.GraphError) as exc:
        raise CliError(str(exc))
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        lines = ["quantity,value"]
        for key, val in payload.items():
            if key == "bounds":
                for c in val:
                    lines.append(f"bound_{c['name']},{c['margin']}")
            else:
                lines.append(f"{key},{val}")
        print("\n".join(lines))
    return 0


def _cmd_sweep(args) -> int:
    try:
        rows = census_mod.barbell_sweep(args.n)
    except census_mod.CensusError as exc:
        raise CliError(str(exc))
    skipped = census_mod.sweep_skipped(args.n)
    if skipped:
        print(f"note: no balanced split for k = {skipped}", file=sys.stderr)
    if args.output == "json":
        print(json.dumps({
            "n": args.n,
            "rows": [{"k": r.k, "a": r.a, "b": r.b,
                      "k_e": format_scalar(r.k_e), "k_nb": format_scalar(r.k_nb)}
                     for r in rows],
            "skipped_k": skipped,
        }, indent=2))
    else:
        print(census_mod.sweep_csv(rows), end="")
    return 0


def _cmd_census(args) -> int:
    if (args.n is None) == (args.input is None):
        raise CliError("census needs exactly one of --n or --input")
    if args.n is not None:
        try:
            result = census_mod.census_nb_vs_edge(args.n)
        except census_mod.CensusError as exc:
            raise CliError(str(exc))
        n_label: Optional[int] = args.n
    else:
        # bytes lines from either source: the census skips one with a
        # non-ASCII byte and counts the rest
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
        lines = [ln for ln in data.splitlines() if ln.strip()]
        result = census_mod.census_nb_vs_edge(lines)
        n_label = None
    if result.skipped:
        print(f"note: skipped {len(result.skipped)} unqualified graph(s)",
              file=sys.stderr)
        for entry, reason in result.skipped:
            print(f"  {entry}: {reason}", file=sys.stderr)
    if args.output == "json":
        print(json.dumps(census_mod.census_summary(result, n_label), indent=2))
    else:
        print(census_mod.census_csv(result.records), end="")
    return 0


def _cmd_generate(args) -> int:
    g = parse_generator_spec(args.graph)
    print(graphs.to_graph6(g))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other invalid input; argparse's own
    status 2 is the cross-check failure's here.  Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """The --tol type: NaN or infinity would let every residual pass."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kemeny",
        description="Kemeny's constant for vertex, edge, and "
                    "non-backtracking walks")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_and_mode(p):
        p.add_argument("graph", nargs="?", default=None,
                       help="generator spec (name:args) or graph6 string")
        p.add_argument("--mode", choices=("auto", "exact", "float"),
                       default="auto", help="scalar mode (default auto)")

    def output_and_input(p):
        p.add_argument("--output", choices=("json", "csv"), default="json",
                       help="serialization format (default %(default)s)")
        p.add_argument("--input", default=None,
                       help="read graph6 from this path, or - for stdin")

    p = sub.add_parser("compute", help="cross-validated Kemeny report")
    graph_and_mode(p)
    p.add_argument("--tol", type=_tolerance, default=engine.DEFAULT_TOL,
                   help="cross-check tolerance, finite and >= 0 (default 1e-9), "
                        "scaled to tol*max(1,K/256)^2; exact values must be equal")
    output_and_input(p)

    p = sub.add_parser("matrices", help="dump a walk matrix",
                       description="Dump a walk matrix.  Entries are exact "
                                   "at every size unless --mode float.")
    graph_and_mode(p)
    output_and_input(p)
    p.set_defaults(output="csv")
    p.add_argument("--kind", default="vertex", choices=tuple(chains.MATRIX_BUILDERS),
                   help="which matrix to dump (default vertex)")

    p = sub.add_parser("closed-form", help="evaluate a named closed form")
    p.add_argument("formula", help=f"one of {', '.join(_FORMULA_NAMES)}")
    p.add_argument("arg", nargs="?", default=None,
                   help="formula argument: integers like 10 or 2,15,15, or "
                        "a generator spec for regular/biregular")
    output_and_input(p)

    p = sub.add_parser("sweep", help="balanced barbell sweep CSV")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--output", choices=("json", "csv"), default="csv",
                   help="serialization format (default csv)")

    p = sub.add_parser("census", help="edge vs non-backtracking census")
    p.add_argument("--n", type=int, default=None,
                   help="built-in exhaustive corpus on n vertices (4..8)")
    p.add_argument("--output", choices=("json", "csv"), default="json",
                   help="json summary or csv records (default json)")
    p.add_argument("--input", default=None,
                   help="graph6 corpus path, or - for stdin")

    p = sub.add_parser("generate", help="emit graph6 for a family")
    p.add_argument("graph", help="generator spec (name:args)")

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "matrices": _cmd_matrices,
        "closed-form": _cmd_closed_form,
        "sweep": _cmd_sweep,
        "census": _cmd_census,
        "generate": _cmd_generate,
    }
    try:
        return handlers[args.command](args)
    except (CliError, graphs.GraphError, chains.ChainError, formulas.FormulaError,
            census_mod.CensusError, engine.EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # a reader that stops early (``| head``) ends the process quietly, as it
    # would any other command-line tool, rather than as an input error
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
