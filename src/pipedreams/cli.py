"""Command line interface.

Exit codes: 0 success, 1 invalid input (the message names the offending
flag) or stdout closed before all output was written, 2 a verification
suite reported a failure.  JSON output is compact and byte-for-byte
deterministic for identical inputs.

Sizes are bounded up front, because run time and memory grow exponentially
with them.  Each limit is the largest size whose worst case took about 10 s
or less and under 400 MB on a 2-vCPU host with Python 3.11; larger input
exits 1 with "error: --<flag> ... exceeds the limit of N".

  --perm (enumerate, schubert, specialize)  size 9; worst measured case
      1,3,2,9,8,7,6,5,4 (163,592 fillings): enumerate --format json
      3.1-3.3 s, 55 MB
  catalan --n  5000 (the value has about 3,000 digits; printing stops
      working near 7,150)
  catalan --n with --q  80, 0.43-0.57 s and 33 MB; kept at 80, although
      larger n now fits the rule (120 takes 1.6 s and 81 MB in process)
  biject --n  10 for the whole family, whose items are written in batches
      as they are built: 0.6-2.0 s and 23 MB, --to eg being the slowest
      target; 450 for one --rc grid (--to eg, the slowest, takes 2.3-2.7 s
      and 40 MB on five grids); an --rc file is read up to m(m+3)/2 + 16
      bytes, m = --n + 1, the largest grid for S_m and 16 extra newlines
  multiplicity --n  17, 6.1-7.0 s and 154 MB (18 takes 14.8 s and 246 MB
      in process)
  verify --max-n  10, 4.5-6.7 s and 25 MB over seven runs, the slowest
      while the host ran slow (9 takes 1.1-1.8 s and 18.6 MB)
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .bijections import bracketing_of, partition_of, partition_to_dyck, tree_of
from .catalan import catalan, q_catalan_via_partitions
from .eg import _recording_partition, eg_insert, eg_word
from .multiplicity import schubert_multiplicity_at_identity
from .perm import NotAPermutationError, Permutation, dominant_singular, zigzag
from .poly import (
    schubert_polynomial,
    schubert_specialization,
    schubert_via_divided_differences,
)
from .rcgraph import (
    RcGraph,
    RcGraphError,
    count_rcgraphs,
    enumerate_rcgraphs,
    zigzag_index,
)
from .verify import SUITES, run_checks

MAX_PERM_SIZE = 9
MAX_CATALAN_N = 5000
MAX_Q_CATALAN_N = 80
MAX_BIJECT_N = 10
MAX_BIJECT_RC_N = 450
MAX_MULTIPLICITY_N = 17
MAX_VERIFY_N = 10
RC_EXTRA_NEWLINES = 16


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_writer():
    """The compact JSON encoder; only the commands that write JSON load json."""
    import json
    return json.JSONEncoder(separators=(",", ":")).encode


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{what} {value} exceeds the limit of {limit}")


def _perm(text: str) -> Permutation:
    try:
        w = Permutation.from_string(text)
    except NotAPermutationError as exc:
        raise NotAPermutationError(f"--perm: {exc}") from None
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
                   help=f"at most {MAX_CATALAN_N}; with --q at most {MAX_Q_CATALAN_N}")
    p.add_argument("--q", action="store_true", help="print the q-polynomial")
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("biject", help="apply a Catalan bijection to the zigzag family")
    p.add_argument("--n", type=int, required=True,
                   help=f"at most {MAX_BIJECT_N}, or {MAX_BIJECT_RC_N} with --rc")
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


def _write_listing(head: str, items, fmt, sep: str, tail: str) -> None:
    """Write head, fmt of each item joined by sep, and tail to stdout in
    batches of items, so the output is never held whole and an unbuffered
    stdout (python -u) is not written to once per item."""
    write = sys.stdout.write
    write(head)
    for i in range(0, len(items), 1024):
        write((sep if i else "") + sep.join(map(fmt, items[i:i + 1024])))
    write(tail)


def _cmd_enumerate(args) -> int:
    w = _perm(args.perm)
    graphs = enumerate_rcgraphs(w)
    if args.format == "json":
        dumps = _json_writer()
        head = f'{{"perm":{dumps(str(w))},"count":{len(graphs)},"rcgraphs":['
        _write_listing(head, graphs, lambda g: dumps(g.to_json_dict()), ",", "]}\n")
    else:
        head = "legend: '+' = cross, '.' = elbow\n" if args.legend else ""
        _write_listing(head, graphs, RcGraph.to_text, "\n\n", "\n")
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
    print(count_rcgraphs(w) if args.at_one else schubert_specialization(w))
    return 0


def _cmd_catalan(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.q:
        _check_limit("--q --n", args.n, MAX_Q_CATALAN_N)
        print(q_catalan_via_partitions(args.n))
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
        entry["tree"] = tree_of(b)
    else:
        p, q = eg_insert(eg_word(d))
        entry["p"] = p.to_json()
        entry["q"] = q.to_json()
        entry["partition"] = _recording_partition(q).to_json()
    return entry


def _cmd_biject(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be positive")
    if args.rc:
        _check_limit("--rc --n", args.n, MAX_BIJECT_RC_N)
        m = args.n + 1
        # m rows of m+1-i cells and a newline each, and the extra newlines
        # that RcGraph.from_text strips
        limit = m * (m + 3) // 2 + RC_EXTRA_NEWLINES
        try:
            with open(args.rc, "rb") as f:
                data = f.read(limit + 1)
            if len(data) > limit:
                raise ValueError(f"--rc file {args.rc} exceeds the limit of "
                                 f"{limit} bytes for --n {args.n}")
            # decoded as a text-mode read, universal newlines included
            text = io.TextIOWrapper(io.BytesIO(data)).read()
        except FileNotFoundError:
            raise ValueError(f"--rc file {args.rc} not found") from None
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise ValueError(f"--rc file {args.rc} cannot be read: {reason}") from None
        try:
            d = RcGraph.from_text(text)
            zigzag_index(d)
        except RcGraphError as exc:
            raise ValueError(f"--rc file {args.rc}: {exc}") from None
        if d.m != m:
            raise ValueError(f"--rc grid is for S_{d.m}, but --n {args.n} "
                             f"needs S_{m}")
        graphs = [d]
    else:
        _check_limit("--n", args.n, MAX_BIJECT_N)
        graphs = enumerate_rcgraphs(zigzag(args.n))
    dumps = _json_writer()
    _write_listing(f'{{"n":{args.n},"to":{dumps(args.to)},"items":[', graphs,
                   lambda d: dumps(_item(d, args.n, args.to)), ",", "]}\n")
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be positive")
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
        raise ValueError("--n must be positive")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
