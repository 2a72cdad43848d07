"""Command-line front end.

Subcommands: `gen` (emit family members), `factor` (decide degree-set
factors), `verify` (theorem and certificate checks), `convert` (format
conversion). Graphs are read from files or standard input as graph6, one
graph per line; multi-line input runs each line as a batch item.

Exit codes: 0 success / factor exists / theorem holds; 1 no factor or
argument not applicable (a valid answer, not an error); 2 usage or input
error; 3 search hit its node budget (inconclusive); 4 internal error (a
fault in factorkit, reported as one line on stderr, never as an answer).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from . import io as gio
from .constructions import build_g1, build_g2, near_complete_block
from .graph import Graph, regularity
from .solver import (
    DEFAULT_NODE_BUDGET,
    EXISTS,
    INCONCLUSIVE,
    NOT_EXISTS,
    FactorSpec,
    h_factor_decide,
)
from .theorems import SearchInconclusive, check_certificate, gallai_check, hub_parity_analysis, verify_theorem2

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

INCONCLUSIVE_MESSAGE = "inconclusive: the factor search hit its node budget"


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _input_graphs(path: str) -> list[Graph]:
    """Graphs from a file or stdin: graph6, one per line (batch)."""
    text = _read_text(path)
    try:
        return gio.read_graphs(text, "graph6")
    except ValueError as exc:
        raise CliError(f"malformed graph input from {path}: {exc}") from exc


def _parse_spec(text: str) -> FactorSpec:
    try:
        return FactorSpec(tuple(int(part) for part in text.split(",") if part.strip()))
    except ValueError as exc:
        raise CliError(f"bad degree set {text!r}: {exc}") from exc


def _spec_for(args: argparse.Namespace, g: Graph) -> FactorSpec:
    if args.spec is not None:
        return _parse_spec(args.spec)
    r = regularity(g)
    if r is None:
        raise CliError("--kr needs a regular input graph to expand {k, r-k}")
    try:
        return FactorSpec.complementary(args.kr, r)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _report(args_echo: str, g: Graph, result: dict, started: float) -> dict:
    return {
        "command": args_echo,
        "input": {"n": g.n, "edges": g.m, "regularity": regularity(g)},
        "result": result,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


def _emit(report: dict, human: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(human)


def _cmd_gen(args: argparse.Namespace) -> int:
    r = args.r
    try:
        if args.family == "block":
            block = near_complete_block(r)
            g = block.graph
            descriptor = {"r": r, "family": "block", "unsaturated": list(block.unsaturated)}
        elif args.family == "g1":
            out = build_g1(r)
            g, descriptor = out.graph, out.to_descriptor()
        else:
            out = build_g2(r)
            g, descriptor = out.graph, out.to_descriptor()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_text(args.out, gio.write_graph(g, args.format))
    if args.descriptor:
        _write_text(args.descriptor, json.dumps(descriptor, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_factor(args: argparse.Namespace, echo: str) -> int:
    graphs = _input_graphs(args.infile)
    worst = EXIT_OK
    for g in graphs:
        started = time.perf_counter()
        spec = _spec_for(args, g)
        decision = h_factor_decide(g, spec, budget=args.budget)
        payload = decision.to_json_dict()
        if args.mode == "check":
            payload.pop("certificate", None)
        result = {"spec": list(spec.allowed), "decision": payload}
        human = (
            f"{decision.verdict} (spec={{{','.join(map(str, spec.allowed))}}}, "
            f"method={decision.method}, nodes={decision.nodes_explored})"
        )
        if args.mode == "find" and decision.certificate is not None:
            human += "\ncertificate: " + json.dumps([list(e) for e in decision.certificate])
        _emit(_report(echo, g, result, started), human, args.json)
        if decision.verdict == EXISTS:
            code = EXIT_OK
        elif decision.verdict == NOT_EXISTS:
            code = EXIT_NEGATIVE
        else:
            code = EXIT_INCONCLUSIVE
        worst = max(worst, code)
    return worst


def _cmd_verify(args: argparse.Namespace, echo: str) -> int:
    graphs = _input_graphs(args.infile)
    worst = EXIT_OK
    for g in graphs:
        started = time.perf_counter()
        if args.check == "thm2":
            try:
                holds = verify_theorem2(g)
            except ValueError as exc:
                raise CliError(f"precondition violated: {exc}") from exc
            except SearchInconclusive:
                holds = None
            result = {"theorem": "half-degree-factor-iff-even-order", "holds": holds}
            if holds is None:
                human, code = INCONCLUSIVE_MESSAGE, EXIT_INCONCLUSIVE
            else:
                human = "theorem holds" if holds else "theorem VIOLATED on this instance"
                code = EXIT_OK if holds else EXIT_NEGATIVE
        elif args.check == "gallai":
            if args.k is None:
                raise CliError("verify gallai requires --k")
            report = gallai_check(g, args.k)
            factor_exists = None
            if report.applicable:
                decision = h_factor_decide(g, FactorSpec.of(args.k))
                if decision.verdict != INCONCLUSIVE:
                    factor_exists = decision.exists
            result = {"report": report.to_json_dict(), "factor_exists": factor_exists}
            if not report.applicable:
                human = f"not applicable: {report.reason}"
                code = EXIT_NEGATIVE
            elif factor_exists is None:
                human, code = INCONCLUSIVE_MESSAGE, EXIT_INCONCLUSIVE
            elif factor_exists:
                human = f"applicable (m={report.m}) and the {args.k}-factor exists"
                code = EXIT_OK
            else:
                human = "hypotheses hold but no factor found: bound VIOLATED"
                code = EXIT_NEGATIVE
        else:  # no-factor
            if args.k is None:
                raise CliError("verify no-factor requires --k")
            if args.hubs is None:
                raise CliError("verify no-factor requires --hubs")
            try:
                hubs = [int(part) for part in args.hubs.split(",") if part.strip()]
            except ValueError as exc:
                raise CliError(f"bad hub list {args.hubs!r}") from exc
            r = regularity(g)
            if r is None:
                raise CliError("no-factor analysis expands {k, r-k} and needs a regular graph")
            try:
                spec = FactorSpec.complementary(args.k, r)
                cert = hub_parity_analysis(g, hubs, spec)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            if cert is None:
                result = {"applicable": False, "certificate": None}
                human = "not applicable: parity hypotheses fail for this hub set"
                code = EXIT_NEGATIVE
            else:
                valid = check_certificate(g, cert)
                result = {
                    "applicable": True,
                    "certificate": cert.to_json_dict(),
                    "certificate_valid": valid,
                }
                if cert.conclusion and valid:
                    human = (
                        f"no {{{','.join(map(str, spec.allowed))}}}-factor: hub degrees "
                        f"pinned to {[list(d) for d in cert.achievable_hub_degrees]}"
                    )
                    code = EXIT_OK
                else:
                    human = "certificate proves nothing: achievable hub degrees meet the spec"
                    code = EXIT_NEGATIVE
        _emit(_report(echo, g, result, started), human, args.json)
        worst = max(worst, code)
    return worst


def _cmd_convert(args: argparse.Namespace) -> int:
    text = _read_text(args.infile)
    try:
        graphs = gio.read_graphs(text, args.src)
    except ValueError as exc:
        raise CliError(f"malformed {args.src} input: {exc}") from exc
    out = "".join(gio.write_graph(g, args.dst) for g in graphs)
    _write_text(args.out, out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorkit",
        description="Generate regular hub-and-blocks families, decide degree-set "
        "factors exactly, and verify the supporting theorems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a block, G1, or G2 family member")
    p_gen.add_argument("family", choices=("block", "g1", "g2"))
    p_gen.add_argument("--r", type=int, required=True, help="regular degree r")
    p_gen.add_argument("--format", choices=gio.FORMATS, default="graph6")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.add_argument(
        "--descriptor", default=None, help="also write the JSON labeling descriptor here"
    )

    p_factor = sub.add_parser("factor", help="decide whether a degree-set factor exists")
    p_factor.add_argument("mode", choices=("check", "find"))
    spec_group = p_factor.add_mutually_exclusive_group(required=True)
    spec_group.add_argument("--spec", help="comma-separated allowed degrees, e.g. 1,5")
    spec_group.add_argument(
        "--kr", type=int, help="expand to {k, r-k} using the input graph's regularity"
    )
    p_factor.add_argument("--in", dest="infile", default="-", help="graph6 file or - for stdin")
    p_factor.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_factor.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="verify a theorem or a parity certificate")
    p_verify.add_argument("check", choices=("thm2", "gallai", "no-factor"))
    p_verify.add_argument("--in", dest="infile", default="-", help="graph6 file or - for stdin")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--hubs", default=None, help="comma-separated hub vertex ids")
    p_verify.add_argument("--json", action="store_true")

    p_convert = sub.add_parser("convert", help="convert between graph file formats")
    p_convert.add_argument("--from", dest="src", choices=gio.FORMATS, required=True)
    p_convert.add_argument("--to", dest="dst", choices=gio.FORMATS, required=True)
    p_convert.add_argument("--in", dest="infile", default="-", help="input path (default stdin)")
    p_convert.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    echo = "factorkit " + " ".join(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "factor":
            return _cmd_factor(args, echo)
        if args.command == "verify":
            return _cmd_verify(args, echo)
        return _cmd_convert(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())
