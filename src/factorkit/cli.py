"""Command-line front end.

Subcommands: `gen` (emit family members), `factor` (decide degree-set
factors), `verify` (theorem and certificate checks), `convert` (format
conversion). Graphs are read from files or standard input as graph6, one
graph per line; multi-line input runs each line as a batch item.

Exit codes: 0 success / factor exists / theorem holds; 1 no factor or
argument not applicable (a valid answer, not an error); 2 usage or input
error, including input that cannot be read or decoded and output that
cannot be written (a closed pipe too); 3 search hit its node budget
(inconclusive); 4 internal error (a fault in factorkit, reported as one
line on stderr, never as an answer).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from . import io as gio
from .constructions import build_g1, build_g2, near_complete_block
from .graph import Graph, regularity
from .solver import DEFAULT_NODE_BUDGET, FactorSpec, h_factor_decide
from .theorems import check_certificate, gallai_check, hub_parity_analysis, verify_theorem2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 4
# An answer's exit code: yes, no, or None when the search hit its node budget.
EXIT_CODE = {True: EXIT_OK, False: 1, None: 3}

NO_VERDICT_MESSAGE = "inconclusive: the factor search hit its node budget"


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as f:
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


def _complementary(g: Graph, k: int, irregular: str) -> FactorSpec:
    """{k, r-k} for the r-regular input; `irregular` is the error otherwise."""
    r = regularity(g)
    if r is None:
        raise CliError(irregular)
    try:
        return FactorSpec.complementary(k, r)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _int_list(text: str) -> list[int]:
    return [gio.ascii_int(part.strip()) for part in text.split(",") if part.strip()]


def _answer_factor(args: argparse.Namespace, g: Graph) -> tuple[dict, str, int]:
    if args.spec is None:
        spec = _complementary(g, args.kr, "--kr needs a regular input graph to expand {k, r-k}")
    else:
        try:
            spec = FactorSpec(tuple(_int_list(args.spec)))
        except ValueError as exc:
            raise CliError(f"bad degree set {args.spec!r}: {exc}") from exc
    decision = h_factor_decide(g, spec, budget=args.budget)
    payload = decision.to_json_dict()
    if args.mode == "check":
        payload.pop("certificate", None)
    human = (
        f"{decision.verdict} (spec={{{','.join(map(str, spec.allowed))}}}, "
        f"method={decision.method}, nodes={decision.nodes_explored})"
    )
    if args.mode == "find" and decision.certificate is not None:
        human += "\ncertificate: " + json.dumps([list(e) for e in decision.certificate])
    return {"spec": list(spec.allowed), "decision": payload}, human, EXIT_CODE[decision.exists]


def _answer_thm2(args: argparse.Namespace, g: Graph) -> tuple[dict, str, int]:
    try:
        holds = verify_theorem2(g)
    except ValueError as exc:
        raise CliError(f"precondition violated: {exc}") from exc
    human = {
        True: "theorem holds",
        False: "theorem VIOLATED on this instance",
        None: NO_VERDICT_MESSAGE,
    }
    result = {"theorem": "half-degree-factor-iff-even-order", "holds": holds}
    return result, human[holds], EXIT_CODE[holds]


def _answer_gallai(args: argparse.Namespace, g: Graph) -> tuple[dict, str, int]:
    if args.k is None:
        raise CliError("verify gallai requires --k")
    try:
        report = gallai_check(g, args.k)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    factor_exists = None
    if report.applicable:
        factor_exists = h_factor_decide(g, FactorSpec.of(args.k)).exists
    result = {"report": report.to_json_dict(), "factor_exists": factor_exists}
    if not report.applicable:
        return result, f"not applicable: {report.reason}", EXIT_CODE[False]
    human = {
        True: f"applicable (m={report.m}) and the {args.k}-factor exists",
        False: "hypotheses hold but no factor found: bound VIOLATED",
        None: NO_VERDICT_MESSAGE,
    }
    return result, human[factor_exists], EXIT_CODE[factor_exists]


def _answer_no_factor(args: argparse.Namespace, g: Graph) -> tuple[dict, str, int]:
    if args.k is None:
        raise CliError("verify no-factor requires --k")
    if args.hubs is None:
        raise CliError("verify no-factor requires --hubs")
    try:
        hubs = _int_list(args.hubs)
    except ValueError as exc:
        raise CliError(f"bad hub list {args.hubs!r}") from exc
    spec = _complementary(
        g, args.k, "no-factor analysis expands {k, r-k} and needs a regular graph"
    )
    try:
        cert = hub_parity_analysis(g, hubs, spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if cert is None:
        result = {"applicable": False, "certificate": None}
        return result, "not applicable: parity hypotheses fail for this hub set", EXIT_CODE[False]
    valid = check_certificate(g, cert)
    result = {"applicable": True, "certificate": cert.to_json_dict(), "certificate_valid": valid}
    if cert.conclusion and valid:
        human = (
            f"no {{{','.join(map(str, spec.allowed))}}}-factor: hub degrees "
            f"pinned to {[list(d) for d in cert.achievable_hub_degrees]}"
        )
        return result, human, EXIT_OK
    human = "certificate proves nothing: achievable hub degrees meet the spec"
    return result, human, EXIT_CODE[False]


VERIFY_ANSWERS = {"thm2": _answer_thm2, "gallai": _answer_gallai, "no-factor": _answer_no_factor}


def _each_graph(args: argparse.Namespace, echo: str, answer) -> int:
    """Answer each input graph in turn; returns the worst exit code."""
    text = _read_text(args.infile)
    try:
        graphs = gio.read_graphs(text, "graph6")
    except ValueError as exc:
        raise CliError(f"malformed graph input from {args.infile}: {exc}") from exc
    worst = EXIT_OK
    for g in graphs:
        started = time.perf_counter()
        result, human, code = answer(args, g)
        if args.json:
            report = {
                "command": echo,
                "input": {"n": g.n, "edges": g.m, "regularity": regularity(g)},
                "result": result,
                "wall_time_s": round(time.perf_counter() - started, 6),
            }
            print(json.dumps(report, sort_keys=True))
        else:
            print(human)
        worst = max(worst, code)
    return worst


def _cmd_gen(args: argparse.Namespace) -> int:
    r = args.r
    try:
        if args.family == "block":
            block = near_complete_block(r)
            g = block.graph
            descriptor = {"r": r, "family": "block", "unsaturated": list(block.unsaturated)}
        else:
            out = (build_g1 if args.family == "g1" else build_g2)(r)
            g, descriptor = out.graph, out.to_descriptor()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_text(args.out, gio.write_graph(g, args.format))
    if args.descriptor:
        _write_text(args.descriptor, json.dumps(descriptor, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_convert(args: argparse.Namespace) -> int:
    text = _read_text(args.infile)
    try:
        graphs = gio.read_graphs(text, args.src)
    except ValueError as exc:
        raise CliError(f"malformed {args.src} input: {exc}") from exc
    if len(graphs) > 1 and args.dst != "graph6":
        raise CliError(f"cannot convert {len(graphs)} graphs to {args.dst}, which holds one")
    try:
        out = "".join(gio.write_graph(g, args.dst) for g in graphs)
    except ValueError as exc:
        raise CliError(f"cannot convert to {args.dst}: {exc}") from exc
    _write_text(args.out, out)
    return EXIT_OK


def _node_budget(text: str) -> int:
    try:
        budget = gio.ascii_int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return budget


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse's own print_help drops a failed write, and --help would exit 0.
        (file or sys.stdout).write(self.format_help())


def _build_parser(command: str | None, alone: bool) -> argparse.ArgumentParser:
    """Arguments only for `command`, and when `alone` (argv[0] is a command), no
    other subparser: argparse reads those only to list the commands, in the usage
    line, kept by the metavar, and in the invalid-choice error and the top-level
    help, which such a call never reaches. Every other call builds all four and no
    metavar, which would also rename the action in "argument command: ..." errors."""
    parser = _Parser(
        prog="factorkit",
        description="Generate regular hub-and-blocks families, decide degree-set "
        "factors exactly, and verify the supporting theorems.",
    )
    metavar = "{gen,factor,verify,convert}" if alone else None
    sub = parser.add_subparsers(dest="command", required=True, prog="factorkit", metavar=metavar)

    if not alone or command == "gen":
        p_gen = sub.add_parser("gen", help="generate a block, G1, or G2 family member")
    if command == "gen":
        p_gen.add_argument("family", choices=("block", "g1", "g2"))
        p_gen.add_argument("--r", type=gio.ascii_int, required=True, help="regular degree r")
        p_gen.add_argument("--format", choices=gio.FORMATS, default="graph6")
        p_gen.add_argument("--out", default=None, help="output path (default stdout)")
        p_gen.add_argument(
            "--descriptor", default=None, help="also write the JSON labeling descriptor here"
        )

    if not alone or command == "factor":
        p_factor = sub.add_parser("factor", help="decide whether a degree-set factor exists")
    if command == "factor":
        p_factor.add_argument("mode", choices=("check", "find"))
        spec_group = p_factor.add_mutually_exclusive_group(required=True)
        spec_group.add_argument("--spec", help="comma-separated allowed degrees, e.g. 1,5")
        spec_group.add_argument(
            "--kr", type=gio.ascii_int, help="expand to {k, r-k} using the input graph's regularity"
        )
        p_factor.add_argument("--in", dest="infile", default="-", help="graph6 file or - for stdin")
        p_factor.add_argument("--budget", type=_node_budget, default=DEFAULT_NODE_BUDGET)
        p_factor.add_argument("--json", action="store_true")

    if not alone or command == "verify":
        p_verify = sub.add_parser("verify", help="verify a theorem or a parity certificate")
    if command == "verify":
        p_verify.add_argument("check", choices=("thm2", "gallai", "no-factor"))
        p_verify.add_argument("--in", dest="infile", default="-", help="graph6 file or - for stdin")
        p_verify.add_argument("--k", type=gio.ascii_int, default=None)
        p_verify.add_argument("--hubs", default=None, help="comma-separated hub vertex ids")
        p_verify.add_argument("--json", action="store_true")

    if not alone or command == "convert":
        p_convert = sub.add_parser("convert", help="convert between graph file formats")
    if command == "convert":
        p_convert.add_argument("--from", dest="src", choices=gio.FORMATS, required=True)
        p_convert.add_argument("--to", dest="dst", choices=gio.FORMATS, required=True)
        p_convert.add_argument("--in", dest="infile", default="-", help="input path (default stdin)")
        p_convert.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _dispatch(argv: list[str]) -> int:
    command = next((a for a in argv if not a.startswith("-")), None)
    alone = command in ("gen", "factor", "verify", "convert") and argv[0] == command
    try:
        args = _build_parser(command, alone).parse_args(argv)
    except SystemExit as exc:  # argparse has printed help, or a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "convert":
        return _cmd_convert(args)
    answer = _answer_factor if args.command == "factor" else VERIFY_ANSWERS[args.check]
    return _each_graph(args, "factorkit " + " ".join(argv), answer)


def _complain(line: str) -> None:
    """One line to stderr; stderr that cannot be written loses only the line,
    never the exit code."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe fails here, not silently at exit
        return code
    except CliError as exc:
        _complain(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:  # only stdout is left unwrapped: a closed pipe or a full disk
        _complain(f"error: cannot write -: {exc}")
        return EXIT_USAGE
    except Exception as exc:
        _complain(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:
        # Python flushes stdout again at exit; send what stdout refused to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
