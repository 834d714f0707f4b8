"""Command line interface.

Exit codes: 0 success, 1 invalid input (the message names the offending
flag), 2 a verification suite reported a failure.  JSON output is compact
and byte-for-byte deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bijections import bracketing_of, partition_of, partition_to_dyck, tree_of
from .catalan import catalan, q_catalan, q_catalan_via_partitions
from .eg import eg_insert, eg_partition_of, eg_word
from .multiplicity import schubert_multiplicity_at_identity
from .perm import Permutation, dominant_singular, zigzag
from .poly import schubert_polynomial, schubert_via_divided_differences
from .rcgraph import RcGraph, enumerate_rcgraphs
from .verify import SUITES, run_checks


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pipedreams", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("enumerate", help="list all pipe dreams for a permutation")
    p.add_argument("--perm", required=True, help="one-line notation, e.g. 1,4,3,2")
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p.add_argument("--legend", action="store_true",
                   help="print the character mapping before ascii output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("schubert", help="print the Schubert polynomial")
    p.add_argument("--perm", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the divided-difference route")
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("specialize", help="principal specialization x_i -> q^(i-1)")
    p.add_argument("--perm", required=True)
    p.add_argument("--at-one", action="store_true", help="evaluate at q = 1")
    p.set_defaults(func=_cmd_specialize)

    p = sub.add_parser("catalan", help="Catalan numbers and q-Catalan polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", action="store_true", help="print the q-polynomial")
    p.add_argument("--via", choices=("partitions", "recurrence"),
                   help="computation route for the q-polynomial")
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("biject", help="apply a Catalan bijection to the zigzag family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--to", choices=("partition", "dyck", "tree", "eg"), required=True)
    p.add_argument("--rc", help="text-format pipe dream file; defaults to the whole family")
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("multiplicity",
                       help="multiplicity of the singular family member at the identity")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_multiplicity)

    return parser


def _cmd_enumerate(args) -> int:
    w = Permutation.from_string(args.perm)
    graphs = enumerate_rcgraphs(w)
    if args.format == "json":
        payload = {
            "perm": str(w),
            "count": len(graphs),
            "rcgraphs": [g.to_json_dict() for g in graphs],
        }
        print(_dumps(payload))
    else:
        if args.legend:
            print("legend: '+' = cross, '.' = elbow")
        print("\n\n".join(g.to_text() for g in graphs))
    return 0


def _cmd_schubert(args) -> int:
    w = Permutation.from_string(args.perm)
    poly = schubert_polynomial(w)
    print(poly)
    if args.oracle:
        agrees = poly == schubert_via_divided_differences(w)
        print(f"oracle agreement: {'yes' if agrees else 'no'}")
        if not agrees:
            print("divided-difference oracle disagrees", file=sys.stderr)
            return 2
    return 0


def _cmd_specialize(args) -> int:
    w = Permutation.from_string(args.perm)
    spec = schubert_polynomial(w).principal_specialization()
    print(spec.at_one() if args.at_one else spec)
    return 0


def _cmd_catalan(args) -> int:
    if args.n < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return 1
    if args.via and not args.q:
        print("error: --via requires --q", file=sys.stderr)
        return 1
    if args.q:
        route = q_catalan_via_partitions if args.via == "partitions" else q_catalan
        print(route(args.n))
    else:
        print(catalan(args.n))
    return 0


def _item(d: RcGraph, n: int, to: str) -> dict:
    entry: dict = {"rc": d.to_json_dict()}
    if to == "partition":
        entry["partition"] = partition_of(d).to_json()
    elif to == "dyck":
        entry["dyck"] = partition_to_dyck(partition_of(d), n).steps
    elif to == "tree":
        b = bracketing_of(d)
        entry["bracketing"] = str(b)
        entry["tree"] = tree_of(b).to_nested()
    else:
        p, q = eg_insert(eg_word(d))
        entry["p"] = p.to_json()
        entry["q"] = q.to_json()
        entry["partition"] = eg_partition_of(d).to_json()
    return entry


def _cmd_biject(args) -> int:
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return 1
    if args.rc:
        try:
            text = Path(args.rc).read_text()
        except FileNotFoundError:
            print(f"error: --rc file {args.rc} not found", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: --rc file {args.rc} cannot be read: {exc.strerror}",
                  file=sys.stderr)
            return 1
        graphs = [RcGraph.from_text(text)]
        if graphs[0].m != args.n + 1:
            print(
                f"error: --rc grid is for S_{graphs[0].m}, but --n {args.n} "
                f"needs S_{args.n + 1}",
                file=sys.stderr,
            )
            return 1
    else:
        graphs = enumerate_rcgraphs(zigzag(args.n))
    items = [_item(d, args.n, args.to) for d in graphs]
    print(_dumps({"n": args.n, "to": args.to, "items": items}))
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        print("error: --max-n must be positive", file=sys.stderr)
        return 1
    results = run_checks(args.suite, args.max_n)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} [{r.ident}] {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        summary = ", ".join(f"[{r.ident}] {r.name}" for r in failed)
        print(f"failed: {summary}", file=sys.stderr)
        return 2
    return 0


def _cmd_multiplicity(args) -> int:
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return 1
    print(schubert_multiplicity_at_identity(dominant_singular(args.n)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
