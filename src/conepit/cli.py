"""Command-line front door.

One subcommand per engine; output is deterministic for fixed inputs and
seeds, with every scalar printed in canonical decimal.  Exit codes:

* 0 -- success (verdict ZERO where a zero/nonzero distinction is the query)
* 1 -- verdict NONZERO (pit, bfpit, szpit, diag-pit)
* 2 -- usage error (bad arguments or malformed input documents)
* 3 -- computational precondition failure

Diagnostics go to stderr only; stdout carries the result.  ``--json``
switches any subcommand to a machine-readable mirror of the same data.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import documents
from .circuits import Oracle, load_circuit, serialize
from .conebasis import cone_closed_basis_after_shift, find_cone_closed, transfer_submatrix
from .diagonal import diag_pit, diagonal_from_json
from .errors import ConepitError, UsageError
from .extraction import extract_coefficient
from .fields import Field
from .hsg import build_annihilator, fischer_rewrite, greedy_design, hsg_from_json, local_kronecker
from .linalg import bareiss_echelon
from .pit import brute_force_pit, low_cone_pit, sz_pit
from .polys import (
    coeff_rank,
    enumerate_low_cone,
    format_monomial,
    is_cone_closed,
    parse_monomial,
    pd_space_dim,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _circuit_oracle(args) -> Oracle:
    circuit = load_circuit(args.circuit)
    if getattr(args, "field", None):
        circuit = circuit.with_field(Field.from_spec(args.field))
    return Oracle(circuit)


def positive_int(text: str) -> int:
    """argparse type; argparse reports the ValueError as an invalid value."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated non-negative integers."""
    values = tuple(int(x) for x in text.split(","))
    if any(v < 0 for v in values):
        raise ValueError(text)
    return values


def _format_set(vectors) -> str:
    return "{" + ",".join("(" + ",".join(str(x) for x in v) + ")" for v in vectors) + "}"


def _verdict_json(verdict) -> dict:
    out = {"verdict": verdict.outcome, "tested": verdict.monomials_tested, "calls": verdict.oracle_calls}
    if verdict.witness is not None:
        out["witness"] = format_monomial(verdict.witness)
    if verdict.coefficient is not None:
        out["coeff"] = str(verdict.coefficient)
    return out


def _emit_basis(A, rank: int, as_json: bool) -> int:
    closed = is_cone_closed(A)
    if as_json:
        print(json.dumps({"A": [list(v) for v in A], "rank": rank, "cone_closed": closed}))
    else:
        print(f"A={_format_set(A)} rank={rank} cone_closed={'true' if closed else 'false'}")
    return 0


def _emit_verdict(verdict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(_verdict_json(verdict)))
    else:
        print(verdict.render())
    return 0 if verdict.is_zero else 1


def cmd_pit(args) -> int:
    return _emit_verdict(low_cone_pit(_circuit_oracle(args), args.k), args.json)


def cmd_bfpit(args) -> int:
    return _emit_verdict(brute_force_pit(_circuit_oracle(args)), args.json)


def cmd_szpit(args) -> int:
    return _emit_verdict(sz_pit(_circuit_oracle(args), args.trials, args.seed), args.json)


def cmd_coef(args) -> int:
    oracle = _circuit_oracle(args)
    e = parse_monomial(args.monomial, oracle.arity)
    c = extract_coefficient(oracle, e)
    if args.json:
        print(json.dumps({"monomial": format_monomial(e), "coefficient": str(c)}))
    else:
        print(oracle.field.render(c))
    return 0


def cmd_cones(args) -> int:
    vectors = enumerate_low_cone(args.n, args.k, args.dcap)
    if args.json:
        print(json.dumps({"count": len(vectors), "vectors": [list(v) for v in vectors]}))
        return 0
    print(f"count={len(vectors)}")
    if args.list:
        for v in vectors:
            print(format_monomial(v))
    return 0


def cmd_cone_closed(args) -> int:
    arity, vectors = documents.monomial_set_from_json(_read(args.set))
    A = find_cone_closed(vectors, arity)
    T = transfer_submatrix(A, vectors)
    return _emit_basis(A, len(bareiss_echelon(T)[0]) if T else 0, args.json)


def cmd_annihilate(args) -> int:
    t = hsg_from_json(_read(args.hsg))
    g = build_annihilator(t)
    if args.json:
        print(json.dumps({"g": documents.multipoly_to_obj(g), "degree": g.degree()}))
    else:
        print(f"degree={g.degree()} g={g.render()}")
    return 0


def cmd_design(args) -> int:
    fam = greedy_design(args.l, args.n, args.d)
    if args.json:
        print(json.dumps({"count": len(fam.subsets), "subsets": [[i + 1 for i in s] for s in fam.subsets]}))
    else:
        text = fam.render()
        if text:
            print(text)
    return 0


def cmd_fischer(args) -> int:
    groups = documents.product_terms_from_json(_read(args.terms))
    pairs = fischer_rewrite(groups)
    if args.json:
        print(json.dumps([{"c": str(c), "h": documents.multipoly_to_obj(h)} for c, h in pairs]))
    else:
        for c, h in pairs:
            print(f"c={c} h={h.render()}")
    return 0


def cmd_kron(args) -> int:
    circuit = load_circuit(args.circuit)
    print(serialize(local_kronecker(circuit, args.block)))
    return 0


def cmd_shift_basis(args) -> int:
    f = documents.vectorpoly_from_json(_read(args.vectorpoly))
    A = cone_closed_basis_after_shift(f, args.weights)
    return _emit_basis(A, coeff_rank(f), args.json)


def cmd_diag_pit(args) -> int:
    circuit = diagonal_from_json(_read(args.diag))
    return _emit_verdict(diag_pit(circuit), args.json)


def cmd_derivdim(args) -> int:
    poly = documents.multipoly_from_json(_read(args.poly))
    dim = pd_space_dim(poly)
    if args.json:
        print(json.dumps({"dim": dim}))
    else:
        print(f"dim={dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conepit",
        description="Exact blackbox identity testing, cone analysis, and hitting-set construction tools.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    shared = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subcommand-level flag from clobbering a --json
    # given before the subcommand.
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return subparsers.add_parser(name, parents=[shared], **kw)

    p = add_parser("pit", help="low-cone blackbox identity test of a circuit oracle")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--k", type=positive_int, required=True, help="cone-size budget (partial-derivative dimension promise)")
    p.add_argument("--field", help="override the circuit's field spec")
    p.set_defaults(fn=cmd_pit)

    p = add_parser("bfpit", help="ground-truth identity test by dense grid expansion")
    p.add_argument("--circuit", required=True)
    p.add_argument("--field")
    p.set_defaults(fn=cmd_bfpit)

    p = add_parser("szpit", help="randomized identity test by seeded point evaluation")
    p.add_argument("--circuit", required=True)
    p.add_argument("--trials", type=positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--field")
    p.set_defaults(fn=cmd_szpit)

    p = add_parser("coef", help="blackbox extraction of one monomial coefficient")
    p.add_argument("--circuit", required=True)
    p.add_argument("--monomial", required=True, help="monomial text, e.g. x1^2*x3")
    p.add_argument("--field")
    p.set_defaults(fn=cmd_coef)

    p = add_parser("cones", help="enumerate monomials of bounded cone size")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--dcap", type=int, default=None, help="total-degree cap (default unbounded)")
    p.add_argument("--list", action="store_true", help="print the monomials after the count")
    p.set_defaults(fn=cmd_cones)

    p = add_parser("cone-closed", help="cone-closed rewrite of a monomial set and its transfer-matrix rank")
    p.add_argument("--set", required=True, help="monomial set JSON file")
    p.set_defaults(fn=cmd_cone_closed)

    p = add_parser("annihilate", help="annihilating polynomial of a univariate tuple")
    p.add_argument("--hsg", required=True, help="univariate tuple JSON file")
    p.set_defaults(fn=cmd_annihilate)

    p = add_parser("design", help="greedy bounded-intersection set design")
    p.add_argument("--l", type=int, required=True, help="base set size")
    p.add_argument("--n", type=int, required=True, help="subset size")
    p.add_argument("--d", type=int, required=True, help="pairwise intersection bound")
    p.set_defaults(fn=cmd_design)

    p = add_parser("fischer", help="rewrite sums of products as signed sums of powers")
    p.add_argument("--terms", required=True, help="product terms JSON file")
    p.set_defaults(fn=cmd_fischer)

    p = add_parser("kron", help="blockwise variable-collapsing power substitution")
    p.add_argument("--circuit", required=True)
    p.add_argument("--block", type=int, required=True, help="variables per block")
    p.set_defaults(fn=cmd_kron)

    p = add_parser("shift-basis", help="cone-closed coefficient basis of a polynomial after a weighted shift")
    p.add_argument("--vectorpoly", required=True, help="vector polynomial JSON file")
    p.add_argument("--weights", type=int_list, required=True, help="comma-separated non-negative variable weights")
    p.set_defaults(fn=cmd_shift_basis)

    p = add_parser("diag-pit", help="identity test for sums of powers of affine forms")
    p.add_argument("--diag", required=True, help="diagonal circuit JSON file")
    p.set_defaults(fn=cmd_diag_pit)

    p = add_parser("derivdim", help="dimension of the iterated partial-derivative span")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.set_defaults(fn=cmd_derivdim)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse (Python 3.11) reads "--opt=--" as an empty list and skips
        # the option's type; no option here takes a list
        if any(isinstance(v, list) for v in vars(args).values()):
            parser.error("an option value may not be '--'")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConepitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
