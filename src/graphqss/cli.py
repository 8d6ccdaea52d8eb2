"""Command line front end.

Every subcommand prints one JSON document on success.  Vertices are
0-indexed everywhere; coalition and encoding sets are comma-separated
vertex lists, and --A defaults to all vertices.  Exit codes: 0 success,
1 negative verdict (e.g. the queried set cannot access), 2 usage or input
error, 3 resource limit, 4 internal failure (a witness or protocol state
that failed its own check).  Identical argv (and seed) produce
byte-identical output; randomized paths take --seed and default to seed 0.
A reader that closes stdout early gets no traceback: ``main`` prints
nothing on stderr and exits with the command's own code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from typing import Optional

from . import access, bounds, graphs, protocol, quantum
from .errors import (
    GraphParseError,
    InsufficientSharesError,
    NoWitnessError,
    ResourceLimitError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _parse_ints(text: str, what: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise GraphParseError(f"{what}: expected comma-separated integers") from None


def _refuse_unread(args: argparse.Namespace, source: str, options: tuple[str, ...], reads: list[str]) -> None:
    """Refuse each of ``options`` given on the command line that ``source`` does not read."""
    unread = [
        f"--{opt.replace('_', '-')}" for opt in options if opt not in reads and getattr(args, opt) is not None
    ]
    if unread:
        raise GraphParseError(f"{source} does not read {', '.join(unread)}")


def _load_graph(args: argparse.Namespace, vertex_cap: Optional[int] = None) -> graphs.Graph:
    """The graph named by --graph or --family.

    A command whose library call refuses graphs over ``vertex_cap`` vertices
    passes that cap.  A generated graph over it is returned edgeless, after
    the builder's own argument checks: the command refuses it on its order,
    with the same message and after the same input checks as the full graph,
    and it is never built.  Of --n, --p and --i, an option the source does
    not read is refused, and so is --format with --family.
    """
    name = args.family
    if not name and not args.graph:
        raise GraphParseError("no graph given: use --graph PATH or --family NAME")
    reads = {"c5pow": ["i"], "random": ["n", "p"]}.get(name, ["n"] if name else ["format"])
    _refuse_unread(args, f"--family {name}" if name else "--graph", ("n", "p", "i", "format"), reads)
    if name:
        if name == "c5pow":
            if args.i is None:
                raise GraphParseError("--family c5pow requires --i")
            order = graphs.c5_power_order(args.i)
        else:
            if args.n is None:
                raise GraphParseError(f"--family {name} requires --n")
            order = graphs.family_order(name, args.n, p=args.p)
        if vertex_cap is not None and order > vertex_cap:
            return graphs.Graph.empty(order)
        if name == "c5pow":
            return graphs.c5_power(args.i)
        return graphs.family(name, args.n, p=args.p, seed=args.seed)
    if args.graph == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GraphParseError(f"cannot read {args.graph}: {exc}") from None
    return graphs.parse_graph(text, fmt=args.format or "edgelist")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graph", help="graph file path, or - for stdin")
    p.add_argument("--format", choices=["edgelist", "graph6"])
    source.add_argument(
        "--family",
        choices=["cycle", "complete", "path", "random", "c5pow"],
        help="generate a named graph instead of reading one",
    )
    p.add_argument("--n", type=int, help="vertex count for --family")
    p.add_argument("--p", type=float, help="edge probability for --family random")
    p.add_argument("--i", type=int, help="power for --family c5pow")
    seed_help = "seed for randomized paths; with --family random it also draws the graph"
    seed_help += " (to keep a graph, write it with 'qss family' and pass it back with --graph)"
    p.add_argument("--seed", type=int, default=0, help=seed_help)


def _sets(args: argparse.Namespace, g: graphs.Graph) -> tuple[graphs.VertexSet, Optional[graphs.VertexSet]]:
    a = graphs.VertexSet.full(g.n)
    if args.A is not None:
        a = graphs.VertexSet.from_iterable(g.n, _parse_ints(args.A, "--A"))
    b = None
    if getattr(args, "B", None) is not None:
        b = graphs.VertexSet.from_iterable(g.n, _parse_ints(args.B, "--B"))
    return a, b


def _members(s: Optional[graphs.VertexSet]) -> Optional[list[int]]:
    return None if s is None else list(s.members())


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qss", description=__doc__.splitlines()[0])
    top.add_argument("--json", action="store_true", help="compact single-line JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classical/quantum verdict for one coalition")
    _add_graph_source(p)
    p.add_argument("--A", help="encoding set (0-indexed, comma separated); default all")
    p.add_argument("--B", required=True, help="coalition (0-indexed, comma separated)")

    p = sub.add_parser("witness", help="reconstruction witness pair for a coalition")
    _add_graph_source(p)
    p.add_argument("--A")
    p.add_argument("--B", required=True)

    p = sub.add_parser("threshold", help="smallest size at which every coalition accesses")
    _add_graph_source(p)
    p.add_argument("--A")

    p = sub.add_parser("product", help="threshold parameters of a scheme product")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)

    p = sub.add_parser("family", help="emit a named graph in both text formats")
    _add_graph_source(p)

    p = sub.add_parser("simulate", help="distinguishability oracle for one coalition")
    _add_graph_source(p)
    p.add_argument("--A")
    p.add_argument("--B", required=True)
    p.add_argument("--dump-state", action="store_true", help="include encoded state dumps")

    p = sub.add_parser("protocol-run", help="deal a secret and reconstruct with a coalition")
    _add_graph_source(p)
    p.add_argument("--A")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--coalition", required=True, help="player ids, comma separated")
    p.add_argument("--secret", default="0.6,0.8", help="real amplitude pair 'a,b'")

    p = sub.add_parser("bound", help="counting lower-bound arithmetic")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    # None when absent, as --max-k is, so the unread-option check sees it only when passed
    p.add_argument("--min-k", action="store_true", default=None, help="smallest feasible k for --n")
    p.add_argument("--pure-qss", action="store_true", help="scan the n = 2k-1 regime")
    p.add_argument("--max-k", type=int)

    p = sub.add_parser("search", help="thresholds of every labelled graph on n vertices")
    p.add_argument("--n", type=int, required=True)

    return top


def _cmd_classify(args) -> tuple[dict, int]:
    g = _load_graph(args)
    a, b = _sets(args, g)
    report = access.access_report(g, a, b)
    accessing = report.c_verdict is access.CVerdict.ACCESSING
    doc = {
        "n": g.n,
        "A": _members(a),
        "coalition": _members(b),
        "c_verdict": report.c_verdict.value,
        "q_verdict": report.q_verdict.value,
        "rank_residual": int(accessing),
        "witness_D": _members(report.witness if accessing else None),
        "witness_C": _members(None if accessing else report.witness),
    }
    code = EXIT_OK if report.q_verdict is access.QVerdict.Q_ACCESSING else EXIT_NEGATIVE
    return doc, code


def _cmd_witness(args) -> tuple[dict, int]:
    g = _load_graph(args)
    a, b = _sets(args, g)
    try:
        d, c = access.reconstruction_witnesses(g, a, b)
    except NoWitnessError as exc:
        return {"n": g.n, "coalition": _members(b), "q_accessing": False, "error": str(exc)}, EXIT_NEGATIVE
    return {
        "n": g.n,
        "coalition": _members(b),
        "q_accessing": True,
        "D": _members(d),
        "C": _members(c),
    }, EXIT_OK


def _cmd_threshold(args) -> tuple[dict, int]:
    g = _load_graph(args, access.ENUMERATION_LIMIT)
    a, _ = _sets(args, g)
    report = access.qstar_threshold(g, a)
    return {
        "n": g.n,
        "A": _members(a),
        "k_star": report.k_star,
        "certificate_fail": _members(report.certificate_fail),
        "sets_checked": report.sets_checked,
    }, EXIT_OK


def _cmd_product(args) -> tuple[dict, int]:
    n, k = access.product_threshold_bound(args.n1, args.k1, args.n2, args.k2)
    _check_printable(n=n, k=k)
    return {"n1": args.n1, "k1": args.k1, "n2": args.n2, "k2": args.k2, "n": n, "k": k}, EXIT_OK


def _cmd_family(args) -> tuple[dict, int]:
    g = _load_graph(args)
    return {
        "n": g.n,
        "edge_count": g.edge_count(),
        "edgelist": graphs.serialize_graph(g, "edgelist"),
        "graph6": graphs.serialize_graph(g, "graph6"),
    }, EXIT_OK


def _cmd_simulate(args) -> tuple[dict, int]:
    g = _load_graph(args, quantum.QUBIT_LIMIT)
    a, b = _sets(args, g)
    ov, dist = quantum.distinguishability(g, a, b)
    if ov < quantum.ATOL_ZERO_TEST:
        verdict = "Accessing"
    elif dist < quantum.ATOL_ZERO_TEST:
        verdict = "Blind"
    else:
        verdict = "Partial"
    doc = {
        "n": g.n,
        "A": _members(a),
        "B": _members(b),
        "overlap": ov,
        "trace_distance": dist,
        "oracle_verdict": verdict,
    }
    if args.dump_state:
        doc["state_0"] = quantum.dump_state(quantum.encode_classical(g, a, 0))
        doc["state_1"] = quantum.dump_state(quantum.encode_classical(g, a, 1))
    return doc, EXIT_OK if verdict == "Accessing" else EXIT_NEGATIVE


def _cmd_protocol_run(args) -> tuple[dict, int]:
    g = _load_graph(args, access.ENUMERATION_LIMIT)
    a, _ = _sets(args, g)
    try:
        sa, sb = (float(tok) for tok in args.secret.split(","))
    except ValueError:
        raise GraphParseError("--secret expects two comma-separated reals") from None
    cfg = protocol.ProtocolConfig(g, a, args.k, c=args.c, seed=args.seed)
    coalition = _parse_ints(args.coalition, "--coalition")
    t = protocol.deal(cfg, (sa, sb))
    try:
        rec = protocol.reconstruct(t, coalition)
    except (InsufficientSharesError, NoWitnessError) as exc:
        doc = protocol.serialize_transcript(t)
        doc["coalition"] = sorted(set(coalition))
        doc["error"] = str(exc)
        return doc, EXIT_NEGATIVE
    doc = protocol.serialize_transcript(t, rec)
    doc["coalition"] = sorted(set(coalition))
    ok = rec.fidelity >= 1.0 - protocol.FIDELITY_ATOL
    return doc, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_bound(args) -> tuple[dict, int]:
    mode = "--pure-qss" if args.pure_qss else "--min-k" if args.min_k else "bound --n --k"
    reads = {"--pure-qss": ["max_k"], "--min-k": ["min_k", "n"]}.get(mode, ["n", "k"])
    _refuse_unread(args, mode, ("n", "k", "min_k", "max_k"), reads)
    if args.pure_qss:
        return dict(vars(bounds.pure_qss_feasibility(100 if args.max_k is None else args.max_k))), EXIT_OK
    if args.min_k:
        if args.n is None:
            raise GraphParseError("--min-k requires --n")
        k = bounds.min_feasible_k(args.n)
        return {"n": args.n, "min_feasible_k": k, "ratio": k / args.n}, EXIT_OK
    if args.n is None or args.k is None:
        raise GraphParseError("bound requires --n and --k (or --min-k / --pure-qss)")
    report = bounds.counting_inequality(args.n, args.k)
    doc = dict(vars(report))
    _check_printable(**doc)
    return doc, EXIT_OK if report.holds else EXIT_NEGATIVE


def _check_printable(**values: int) -> None:
    """Refuse an integer longer than the interpreter's int-to-str limit,
    which json.dumps would otherwise raise on after the work is done."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    for name, value in values.items():
        # a value of at most 3 * limit bits is below 8**limit < 10**limit
        if value.bit_length() > 3 * limit and value >= 10**limit:
            raise ResourceLimitError(f"{name} has more than {limit} digits, the int-to-str limit")


def _cmd_search(args) -> tuple[dict, int]:
    report = access.exhaustive_graph_search(args.n)
    return {
        "n": args.n,
        "graphs": len(report.k_stars),
        "min_k_star": min(report.histogram),
        "k_star_histogram": {str(k): count for k, count in report.histogram.items()},
        "attainer_count": len(report.attainers_graph6),
        "attainers_graph6": list(report.attainers_graph6),
    }, EXIT_OK


_HANDLERS = {
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "threshold": _cmd_threshold,
    "product": _cmd_product,
    "family": _cmd_family,
    "simulate": _cmd_simulate,
    "protocol-run": _cmd_protocol_run,
    "bound": _cmd_bound,
    "search": _cmd_search,
}


_PARSER = build_parser()


def _bind_secret(argv: list[str]) -> list[str]:
    """argv with each --secret joined to the token after it: argparse reads
    a token such as -0.6,0.8 as an option, not as the option's value."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--secret" and not out[i + 1].startswith("--"):
            out[i : i + 2] = [f"--secret={out[i + 1]}"]
    return out


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(_bind_secret(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        doc, code = _HANDLERS[args.command](args)
    except (GraphParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RuntimeError as exc:  # after its ResourceLimitError subclass
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return code


def main() -> None:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run()
    try:
        print(out.getvalue(), end="", flush=True)
    except BrokenPipeError:
        # the reader has gone: keep the exit code, and let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
