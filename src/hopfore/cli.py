"""Command line surface.

Subcommands:
  algebra dihedral --m M [--json]
  tensor --left L --right R [--method closed|matrix|both] [--json]
  ring mul --ring green|groth --expr E [--basis canonical|x1|x2] [--json]
  verify fusion [--tmax T] [--teig T] [--betas LIST] [--json]
  verify presentation [--suite S] [--betas LIST] [--tmax T] [--verbose] [--json]
  module export --label L --out FILE

Commands that need an algebra take either --m M (dihedral parameter, odd,
default 3) or --algebra FILE with a JSON descriptor:

  {"kind": "dihedral", "m": 3}

or a custom group datum:

  {"kind": "custom",
   "field_order": n,
   "mul_table": [[...], ...],          row i, column j = index of g_i * g_j
   "generators": [i, ...],             generating set, indices into the table
   "names": ["e", "a", ...],           optional element names
   "central": k,                       index of the central element
   "chi": ["literal", ...],            character value on each group element
   "simples": [{"label": "c0", "matrices": [[["literal", ...], ...], ...]},
               ...]}                   one matrix per generator

Scalar literals are written over a primitive root of unity "w" of order
field_order, e.g. "1/2", "-w^2 + 1".  Labels and expressions follow the
little language in the syntax module ("V[2](eps;1)", "x^3 - 3*x", ...).

Exit codes: 0 success; 1 mathematical disagreement or failed verification
(errors.MathError); 2 usage errors (bad flags, unparsable input, unknown
labels: errors.UsageError).

The matrix route builds the tensor product of two modules, so `tensor
--method matrix|both` and `verify fusion` refuse, with exit 2 and before
any module is built, a product of dimension above MAX_TENSOR_DIM.
`verify fusion` also refuses a grid of more than MAX_GRID_PAIRS ordered
pairs.
"""

import argparse
import json
import sys

from .decompose import decompose
from .errors import InvalidParameter, MathError, UsageError
from .fusion import tensor_labels
from .greenring import (
    GREEN, GROTH, eval_expr, groth_to_x2_basis, groth_to_x_basis,
    verify_presentation, _term_text,
)
from .grid import build_module, grid_labels, run_grid
from .groups import algebra_from_descriptor, dihedral_algebra
from .labels import label_dim, sorted_items
from .modules import tensor
from .syntax import (
    format_label, format_multiset, format_terms, parse_cyclotomic, parse_label,
)

# the dimension of A (x) B is dim A * dim B, while a label's own is bounded
# by syntax.MAX_LABEL_DIM
MAX_TENSOR_DIM = 1024
# verify fusion runs both routes on every ordered pair of its grid; the
# full m = 7 grid is 4900 pairs
MAX_GRID_PAIRS = 10_000


def _add_algebra_flags(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--m", type=int, default=3, metavar="M",
                   help="dihedral parameter (odd, >= 3); default 3")
    g.add_argument("--algebra", metavar="FILE",
                   help="JSON algebra descriptor (see module docstring)")


def _load_algebra(args):
    if getattr(args, "algebra", None):
        try:
            with open(args.algebra) as fh:
                desc = json.load(fh)
        except OSError as e:
            raise InvalidParameter(f"cannot read {args.algebra}: {e}") from e
        except json.JSONDecodeError as e:
            raise InvalidParameter(f"{args.algebra} is not valid JSON: {e}") from e
        return algebra_from_descriptor(desc)
    return dihedral_algebra(args.m)


def _parse_betas(alg, text):
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        vals.append(parse_cyclotomic(alg.field_order, part))
    return vals


def _check_tensor_dim(what, dim):
    if dim > MAX_TENSOR_DIM:
        raise InvalidParameter(
            f"{what} has dimension {dim}, above the limit {MAX_TENSOR_DIM}")


def _multiset_json(alg, counts):
    return [{"label": format_label(lab), "mult": c}
            for lab, c in sorted_items(alg, counts)]


# -- algebra ----------------------------------------------------------------

def cmd_algebra(args):
    alg = dihedral_algebra(args.m)
    info = {
        "kind": "dihedral",
        "m": args.m,
        "group_order": alg.group.size,
        "field_order": alg.field_order,
        "q": alg.q.to_literal(),
        "s": alg.s,
        "fusion_ready": alg.fusion_ready,
        "simples": [{"label": str(r.label), "dim": r.dim} for r in alg.simples],
        "sigma": {str(l): str(alg.sigma[l]) for l in alg.labels},
        "omega": {str(l): alg.omega[l].to_literal() for l in alg.labels},
        "orbit_reps": [str(l) for l in alg.orbit_reps],
    }
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    print(f"dihedral m={args.m}: group order {alg.group.size}, "
          f"scalars in Q(zeta_{alg.field_order})")
    print(f"q = {info['q']}, s = {alg.s}, fusion ready: "
          f"{'yes' if alg.fusion_ready else 'no'}")
    print("simples: " + ", ".join(f"{d['label']}:{d['dim']}" for d in info["simples"]))
    print("sigma: " + ", ".join(f"{k}->{v}" for k, v in info["sigma"].items()))
    print("omega: " + ", ".join(f"{k}:{v}" for k, v in info["omega"].items()))
    print("orbit representatives: " + ", ".join(info["orbit_reps"]))
    return 0


# -- tensor -----------------------------------------------------------------

def cmd_tensor(args):
    alg = _load_algebra(args)
    left = parse_label(args.left, alg)
    right = parse_label(args.right, alg)
    if args.method != "closed":
        _check_tensor_dim("the tensor product",
                          label_dim(alg, left) * label_dim(alg, right))
    out = {"left": format_label(left), "right": format_label(right)}
    closed = matrix = None
    if args.method in ("closed", "both"):
        closed = tensor_labels(alg, left, right)
        out["closed"] = _multiset_json(alg, closed)
    if args.method in ("matrix", "both"):
        prod = tensor(build_module(alg, left), build_module(alg, right))
        matrix = decompose(prod).counter()
        out["matrix"] = _multiset_json(alg, matrix)
        out["dim"] = prod.dim
    agree = True
    if args.method == "both":
        agree = closed == matrix
        out["agree"] = agree
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        if closed is not None:
            print("closed: " + format_multiset(alg, closed))
        if matrix is not None:
            print("matrix: " + format_multiset(alg, matrix))
        if args.method == "both":
            print(f"agree: {'true' if agree else 'false'}")
    return 0 if agree else 1


# -- ring -------------------------------------------------------------------

def _x1_degree_char(name):
    # X_1 names are x^k (k >= 1) and the characters 1 (eps), lam, chi, lamchi
    if name.startswith("x"):
        return int(name[2:] or 1), "eps"
    return 0, "eps" if name == "1" else name


def cmd_ring_mul(args):
    alg = _load_algebra(args)
    elt = eval_expr(alg, args.expr, args.ring)
    if args.basis == "canonical":
        pairs = [(_term_text(alg, args.ring, lab), c) for lab, c in sorted_items(alg, elt.coeffs)]
    elif args.ring != GROTH:
        raise InvalidParameter("power bases apply to the Grothendieck ring; "
                               "use --ring groth")
    else:
        pairs = (groth_to_x_basis if args.basis == "x1" else groth_to_x2_basis)(elt)
    text = format_terms(pairs)
    terms = [[name, c] for name, c in pairs if c]
    if args.basis == "x1":
        terms = sorted(([*_x1_degree_char(name), c] for name, c in terms),
                       key=lambda t: (-t[0], t[1]))
    if args.json:
        print(json.dumps({"ring": args.ring, "basis": args.basis,
                          "expr": args.expr, "result": text, "terms": terms}))
    else:
        print(text)
    return 0


# -- verify -----------------------------------------------------------------

def cmd_verify_fusion(args):
    alg = _load_algebra(args)
    betas = _parse_betas(alg, args.betas)
    teig = args.teig if args.teig is not None else min(2, args.tmax)
    labels = grid_labels(alg, args.tmax, teig, betas)
    # grid labels do not pass through the parser's label limit
    _check_tensor_dim("the grid's largest tensor product",
                      max((label_dim(alg, lab) for lab in labels), default=0) ** 2)
    pairs = len(labels) ** 2
    if pairs > MAX_GRID_PAIRS:
        raise InvalidParameter(
            f"the grid has {pairs} ordered pairs, above the limit {MAX_GRID_PAIRS}")
    summary = run_grid(alg, labels)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"labels\t{summary['labels']}")
        print(f"pairs\t{summary['pairs']}")
        print(f"mismatches\t{len(summary['mismatches'])}")
        print(f"ok\t{'true' if summary['ok'] else 'false'}")
        for rec in summary["mismatches"]:
            print("mismatch\t{left}\t{right}\t{closed}\t{matrix}".format(**rec))
    return 0 if summary["ok"] else 1


def cmd_verify_presentation(args):
    alg = _load_algebra(args)
    betas = _parse_betas(alg, args.betas)
    report = verify_presentation(alg, which=args.suite, betas=betas,
                                 t_max=args.tmax)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"suite\t{report['suite']}")
        print(f"checks\t{report['checks']}")
        print(f"failed\t{report['failed']}")
        print(f"ok\t{'true' if report['ok'] else 'false'}")
        for entry in report["entries"]:
            if entry["status"] != "pass":
                print(f"FAIL\t{entry['identity']}\t{entry['lhs']}\t{entry['rhs']}")
            elif args.verbose:
                print(f"ok\t{entry['identity']}")
    return 0 if report["ok"] else 1


# -- module -----------------------------------------------------------------

def cmd_module_export(args):
    alg = _load_algebra(args)
    label = parse_label(args.label, alg)
    mod = build_module(alg, label)
    text = mod.to_json()
    if args.out == "-":
        print(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise InvalidParameter(f"cannot write {args.out}: {e}") from e
        print(f"wrote {format_label(label)} (dim {mod.dim}) to {args.out}")
    return 0


# -- parser -----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfore",
        description="Exact tensor decompositions and representation rings "
                    "for Hopf-Ore extensions of group algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="inspect algebra data")
    alg_sub = p_alg.add_subparsers(dest="which", required=True)
    p_dih = alg_sub.add_parser("dihedral", help="dihedral family summary")
    p_dih.add_argument("--m", type=int, default=3, metavar="M",
                       help="dihedral parameter (odd, >= 3); default 3")
    p_dih.add_argument("--json", action="store_true")
    p_dih.set_defaults(func=cmd_algebra)

    p_t = sub.add_parser("tensor", help="decompose a tensor product of labels")
    _add_algebra_flags(p_t)
    p_t.add_argument("--left", required=True, metavar="L")
    p_t.add_argument("--right", required=True, metavar="R")
    p_t.add_argument("--method", choices=("closed", "matrix", "both"),
                     default="closed")
    p_t.add_argument("--json", action="store_true")
    p_t.set_defaults(func=cmd_tensor)

    p_r = sub.add_parser("ring", help="representation ring arithmetic")
    ring_sub = p_r.add_subparsers(dest="which", required=True)
    p_mul = ring_sub.add_parser("mul", help="evaluate a ring expression")
    _add_algebra_flags(p_mul)
    p_mul.add_argument("--ring", choices=(GREEN, GROTH), required=True)
    p_mul.add_argument("--expr", required=True, metavar="E")
    p_mul.add_argument("--basis", choices=("canonical", "x1", "x2"),
                       default="canonical")
    p_mul.add_argument("--json", action="store_true")
    p_mul.set_defaults(func=cmd_ring_mul)

    p_v = sub.add_parser("verify", help="verification suites")
    ver_sub = p_v.add_subparsers(dest="which", required=True)

    p_vf = ver_sub.add_parser(
        "fusion", help="closed rules vs matrix oracle on a label grid")
    _add_algebra_flags(p_vf)
    p_vf.add_argument("--tmax", type=int, default=3,
                      help="largest nilpotent-type t; default 3")
    p_vf.add_argument("--teig", type=int, default=None,
                      help="largest eigen-type t; default min(2, tmax)")
    p_vf.add_argument("--betas", default="1,-1,2,1/2",
                      help="comma-separated nonzero eigenvalue literals")
    p_vf.add_argument("--json", action="store_true")
    p_vf.set_defaults(func=cmd_verify_fusion)

    p_vp = ver_sub.add_parser(
        "presentation", help="ring generator and relation identities")
    _add_algebra_flags(p_vp)
    p_vp.add_argument("--suite", default="combined",
                      choices=("combined", "groth_kDn", "groth_H",
                               "green_R", "green_H"))
    p_vp.add_argument("--betas", default="1,-1,2,-2,1/2",
                      help="comma-separated nonzero eigenvalue literals")
    p_vp.add_argument("--tmax", type=int, default=6)
    p_vp.add_argument("--verbose", action="store_true",
                      help="print passing identities too")
    p_vp.add_argument("--json", action="store_true")
    p_vp.set_defaults(func=cmd_verify_presentation)

    p_m = sub.add_parser("module", help="explicit module utilities")
    mod_sub = p_m.add_subparsers(dest="which", required=True)
    p_me = mod_sub.add_parser("export", help="write an explicit module as JSON")
    _add_algebra_flags(p_me)
    p_me.add_argument("--label", required=True, metavar="L")
    p_me.add_argument("--out", required=True, metavar="FILE",
                      help="output path, or - for stdout")
    p_me.set_defaults(func=cmd_module_export)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MathError as e:
        print(f"inconsistency: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
