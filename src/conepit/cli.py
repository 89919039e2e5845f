"""Command-line front door.

One subcommand per engine; output is deterministic for fixed inputs and
seeds, with every scalar printed in canonical decimal.  Exit codes:

* 0 -- success (verdict ZERO where a zero/nonzero distinction is the query)
* 1 -- verdict NONZERO (pit, bfpit, szpit, diag-pit)
* 2 -- usage error (bad arguments or malformed input documents)
* 3 -- computational precondition failure

Diagnostics go to stderr only; stdout carries the result.  ``--json``
switches any subcommand to a machine-readable mirror of the same data.
Each ``cmd_*`` returns its result as ``(object, text, exit code)``, and
:func:`run` alone writes it: the object as one JSON line under ``--json``,
else the text, and nothing when the text is empty.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import documents
from .circuits import Oracle, circuit_to_document, parse
from .conebasis import cone_closed_basis_after_shift, find_cone_closed, transfer_submatrix
from .diagonal import diag_pit, diagonal_from_json
from .errors import ConepitError, UsageError
from .extraction import extract_coefficient
from .fields import Field
from .hsg import build_annihilator, fischer_rewrite, greedy_design, hsg_from_json, local_kronecker
from .linalg import bareiss_echelon
from .pit import brute_force_pit, low_cone_pit, sz_pit
from .polys import (
    enumerate_low_cone,
    format_monomial,
    is_cone_closed,
    parse_monomial,
    pd_space_dim,
)

Result = tuple[object, str, int]  # see the module docstring


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _circuit_oracle(args) -> Oracle:
    circuit = parse(_read(args.circuit))
    if args.field:
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


def natural_int(text: str) -> int:
    """argparse type: one non-negative integer."""
    (value,) = int_list(text)
    return value


def _format_set(vectors) -> str:
    return "{" + ",".join("(" + ",".join(str(x) for x in v) + ")" for v in vectors) + "}"


def _verdict(verdict) -> Result:
    """A verdict's result, which exits 1 for NONZERO."""
    obj = {"verdict": verdict.outcome, "tested": verdict.monomials_tested, "calls": verdict.oracle_calls}
    if verdict.witness is not None:
        obj["witness"] = format_monomial(verdict.witness)
    if verdict.coefficient is not None:
        obj["coeff"] = str(verdict.coefficient)
    return obj, verdict.render(), 0 if verdict.is_zero else 1


def _basis(A, rank: int) -> Result:
    closed = is_cone_closed(A)
    obj = {"A": [list(v) for v in A], "rank": rank, "cone_closed": closed}
    return obj, f"A={_format_set(A)} rank={rank} cone_closed={'true' if closed else 'false'}", 0


def cmd_pit(args) -> Result:
    return _verdict(low_cone_pit(_circuit_oracle(args), args.k))


def cmd_bfpit(args) -> Result:
    return _verdict(brute_force_pit(_circuit_oracle(args)))


def cmd_szpit(args) -> Result:
    return _verdict(sz_pit(_circuit_oracle(args), args.trials, args.seed))


def cmd_coef(args) -> Result:
    oracle = _circuit_oracle(args)
    e = parse_monomial(args.monomial, oracle.arity)
    c = extract_coefficient(oracle, e)
    return {"monomial": format_monomial(e), "coefficient": str(c)}, oracle.field.render(c), 0


def cmd_cones(args) -> Result:
    vectors = enumerate_low_cone(args.n, args.k, args.dcap)
    lines = [f"count={len(vectors)}"] + ([format_monomial(v) for v in vectors] if args.list else [])
    return {"count": len(vectors), "vectors": [list(v) for v in vectors]}, "\n".join(lines), 0


def cmd_cone_closed(args) -> Result:
    arity, vectors = documents.monomial_set_from_json(_read(args.set))
    A = find_cone_closed(vectors, arity)
    T = transfer_submatrix(A, vectors)
    return _basis(A, len(bareiss_echelon(T)[0]) if T else 0)


def cmd_annihilate(args) -> Result:
    t = hsg_from_json(_read(args.hsg))
    g = build_annihilator(t)
    return {"g": documents.multipoly_to_obj(g), "degree": g.degree()}, f"degree={g.degree()} g={g.render()}", 0


def cmd_design(args) -> Result:
    fam = greedy_design(args.l, args.n, args.d)
    return {"count": len(fam.subsets), "subsets": [[i + 1 for i in s] for s in fam.subsets]}, fam.render(), 0


def cmd_fischer(args) -> Result:
    groups = documents.product_terms_from_json(_read(args.terms))
    pairs = fischer_rewrite(groups)
    obj = [{"c": str(c), "h": documents.multipoly_to_obj(h)} for c, h in pairs]
    return obj, "\n".join(f"c={c} h={h.render()}" for c, h in pairs), 0


def cmd_kron(args) -> Result:
    circuit = parse(_read(args.circuit))
    doc = circuit_to_document(local_kronecker(circuit, args.block))
    return doc, json.dumps(doc), 0


def cmd_shift_basis(args) -> Result:
    f = documents.vectorpoly_from_json(_read(args.vectorpoly))
    A = cone_closed_basis_after_shift(f, args.weights)
    return _basis(A, len(A))


def cmd_diag_pit(args) -> Result:
    circuit = diagonal_from_json(_read(args.diag))
    return _verdict(diag_pit(circuit))


def cmd_derivdim(args) -> Result:
    poly = documents.multipoly_from_json(_read(args.poly))
    dim = pd_space_dim(poly)
    return {"dim": dim}, f"dim={dim}", 0


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

    # the circuit commands' oracle, as _circuit_oracle reads it
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--circuit", required=True, help="circuit JSON file")
    oracle.add_argument("--field", help="override the circuit's field spec")

    def add_parser(name, *parents, **kw):
        return subparsers.add_parser(name, parents=[shared, *parents], **kw)

    p = add_parser("pit", oracle, help="low-cone blackbox identity test of a circuit oracle")
    p.add_argument("--k", type=positive_int, required=True, help="cone-size budget (partial-derivative dimension promise)")
    p.set_defaults(fn=cmd_pit)

    p = add_parser("bfpit", oracle, help="ground-truth identity test by dense grid expansion")
    p.set_defaults(fn=cmd_bfpit)

    p = add_parser("szpit", oracle, help="randomized identity test by seeded point evaluation")
    p.add_argument("--trials", type=positive_int, required=True)
    p.add_argument("--seed", type=natural_int, required=True)
    p.set_defaults(fn=cmd_szpit)

    p = add_parser("coef", oracle, help="blackbox extraction of one monomial coefficient")
    p.add_argument("--monomial", required=True, help="monomial text, e.g. x1^2*x3")
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
        obj, text, code = args.fn(args)
        out = json.dumps(obj) if args.json else text
        if out:
            print(out)
        return code
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
