"""Command line interface.

Exit codes: 0 success, 1 invalid input (the message names the offending
flag), 2 a verification suite reported a failure.  JSON output is compact
and byte-for-byte deterministic for identical inputs.

Sizes are bounded up front, because run time and memory grow exponentially
with them.  Each limit is the largest size whose worst case took about 10 s
or less and under 400 MB on a 2-vCPU host with Python 3.11; larger input
exits 1 with "error: --<flag> ... exceeds the limit of N".

  --perm (enumerate, schubert, specialize)  size 9; worst measured case
      1,3,2,9,8,7,6,5,4 (163,592 fillings): enumerate --format json 8.9 s
  catalan --n  5000 (the value has about 3,000 digits; printing stops
      working near 7,150)
  catalan --n with --q  60 by the recurrence (7.2 s), 13 with --via
      partitions (2.6 s; 14 takes 11 s and 630 MB)
  biject --n  10 for the whole family (not with --rc); --to eg is the
      slowest target, 7.0 s
  multiplicity --n  12, 2.3 s (13 takes 10 s and 440 MB)
  verify --max-n  9, 10 s
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

MAX_PERM_SIZE = 9
MAX_CATALAN_N = 5000
MAX_Q_CATALAN_N = 60
MAX_Q_CATALAN_PARTITIONS_N = 13
MAX_BIJECT_N = 10
MAX_MULTIPLICITY_N = 12
MAX_VERIFY_N = 9


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{what} {value} exceeds the limit of {limit}")


def _perm(text: str) -> Permutation:
    w = Permutation.from_string(text)
    _check_limit("--perm of size", w.size, MAX_PERM_SIZE)
    return w


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pipedreams", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("enumerate", help="list all pipe dreams for a permutation")
    perm_help = f"one-line notation, e.g. 1,4,3,2; size at most {MAX_PERM_SIZE}"
    p.add_argument("--perm", required=True, help=perm_help)
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p.add_argument("--legend", action="store_true",
                   help="print the character mapping before ascii output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("schubert", help="print the Schubert polynomial")
    p.add_argument("--perm", required=True, help=perm_help)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the divided-difference route")
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("specialize", help="principal specialization x_i -> q^(i-1)")
    p.add_argument("--perm", required=True, help=perm_help)
    p.add_argument("--at-one", action="store_true", help="evaluate at q = 1")
    p.set_defaults(func=_cmd_specialize)

    p = sub.add_parser("catalan", help="Catalan numbers and q-Catalan polynomials")
    p.add_argument("--n", type=int, required=True,
                   help=f"at most {MAX_CATALAN_N}; with --q at most "
                        f"{MAX_Q_CATALAN_N}, or {MAX_Q_CATALAN_PARTITIONS_N} "
                        "with --via partitions")
    p.add_argument("--q", action="store_true", help="print the q-polynomial")
    p.add_argument("--via", choices=("partitions", "recurrence"),
                   help="computation route for the q-polynomial")
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("biject", help="apply a Catalan bijection to the zigzag family")
    p.add_argument("--n", type=int, required=True,
                   help=f"at most {MAX_BIJECT_N} unless --rc is given")
    p.add_argument("--to", choices=("partition", "dyck", "tree", "eg"), required=True)
    p.add_argument("--rc", help="text-format pipe dream file; defaults to the whole family")
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--max-n", type=int, default=6, dest="max_n",
                   help=f"at most {MAX_VERIFY_N}")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("multiplicity",
                       help="multiplicity of the singular family member at the identity")
    p.add_argument("--n", type=int, required=True,
                   help=f"at most {MAX_MULTIPLICITY_N}")
    p.set_defaults(func=_cmd_multiplicity)

    return parser


def _cmd_enumerate(args) -> int:
    w = _perm(args.perm)
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
    w = _perm(args.perm)
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
    w = _perm(args.perm)
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
    if args.via == "partitions":
        _check_limit("--via partitions --n", args.n, MAX_Q_CATALAN_PARTITIONS_N)
        print(q_catalan_via_partitions(args.n))
    elif args.q:
        _check_limit("--q --n", args.n, MAX_Q_CATALAN_N)
        print(q_catalan(args.n))
    else:
        _check_limit("--n", args.n, MAX_CATALAN_N)
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
        _check_limit("--n", args.n, MAX_BIJECT_N)
        graphs = enumerate_rcgraphs(zigzag(args.n))
    items = [_item(d, args.n, args.to) for d in graphs]
    print(_dumps({"n": args.n, "to": args.to, "items": items}))
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        print("error: --max-n must be positive", file=sys.stderr)
        return 1
    _check_limit("--max-n", args.max_n, MAX_VERIFY_N)
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
    _check_limit("--n", args.n, MAX_MULTIPLICITY_N)
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
