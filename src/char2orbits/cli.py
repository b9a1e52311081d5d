"""Command line interface: orbit tables, classification, verification.

Subcommands

  orbits       one row per nilpotent orbit of the chosen group
  classify     label a functional given as a matrix file
  normal-form  build the standard witness of a label
  centralizer  dimension and component data of a label's stabilizer
  verify       run the acceptance suites

Exit codes: 0 success, 1 verification failure, 2 invalid request,
3 size bounds exceeded, 4 classify input not nilpotent, 141 (128 + SIGPIPE)
when the reader closes standard output early.

Labels are pure combinatorics, so only combinatorics and centralizers load
with this module; a command that builds matrices imports the numpy-backed
modules inside its own function.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import centralizers as cz
from . import combinatorics as cb

LIST_CAP = 12
# the verify suites, in run order; a test pins this to verify.SUITES
SUITES = ("combinatorics", "sp", "so-odd", "so-even", "centralizers")


class SizeBound(Exception):
    pass


class BadRequest(Exception):
    pass


# ----------------------------------------------------------------------
# table plumbing


def _emit(rows: list[dict], columns: list[str], fmt: str, meta: dict) -> None:
    if fmt == "json":
        print(json.dumps({**meta, "rows": rows}, indent=2))
        return
    flat = [{c: str(r[c]) for c in columns} for r in rows]
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(columns)
        for r in flat:
            w.writerow([r[c] for c in columns])
        return
    widths = {c: max([len(c)] + [len(r[c]) for r in flat]) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    print("  ".join("-" * widths[c] for c in columns))
    for r in flat:
        print("  ".join(r[c].ljust(widths[c]) for c in columns))


# ----------------------------------------------------------------------
# orbits


def _label_rank(label) -> int:
    if isinstance(label, cb.OddLabel):
        return label.m + sum(b.m for b in label.blocks)
    return sum(b.m for b in label)


def _label_row(kind: str, label) -> dict:
    """Every field the commands print about one label.

    label is a block tuple for kind "sp" and an OddLabel for "so-odd",
    decorated or closed; dim_orbit is taken at the rank the label encodes.
    """
    if kind == "sp":
        symbol = [(b.m, b.l) for b in label]
        pair, blocks = cb.symp_symbol_to_pair(symbol), label
        rep = cz.symp_report(symbol)
        text, closed = cb.format_blocks(label), cb.format_symp_symbol(symbol)
        label_json = cb.blocks_to_json(label)
    else:
        pair, blocks = label.pair(), label.blocks
        rep = cz.oodd_report(pair)
        text, closed = cb.format_label(label), cb.format_label(label.closed())
        label_json = cb.label_to_json(label)
    eps = [b.eps for b in blocks]
    return {"label": text,
            "closed_label": closed,
            "pair": cb.format_pair(pair, odd=kind == "so-odd"),
            "eps": None if None in eps else "".join(eps),
            "label_json": label_json,
            "dim_z": rep.dim_z,
            "comp_rank": rep.comp_rank,
            "component_group": rep.component_group(),
            "dim_orbit": cz.algebra_dim(_label_rank(label)) - rep.dim_z,
            "fq_classes": 2 ** rep.comp_rank,
            "points_leading_q2": rep.point_count_leading(2),
            "points_leading_q4": rep.point_count_leading(4)}


def _pick(row: dict, *keys: str) -> dict:
    return {k: row[k] for k in keys}


def _closed_rows(kind: str, n: int) -> list[dict]:
    if kind == "sp":
        labels = [tuple(cb.BlockLabel(m, l) for m, l in cb.symp_pair_to_symbol(p))
                  for p in cb.symp_pairs(n)]
    else:
        labels = [cb.pair_to_label(p) for p in cb.oodd_pairs(n)]
    rows = []
    for lab in labels:
        row = _label_row(kind, lab)
        rows.append({"label": row["closed_label"],
                     **_pick(row, "pair", "dim_orbit", "component_group",
                             "fq_classes")})
    return rows


def _rational_rows(kind: str, n: int, q: int) -> list[dict]:
    labels = cb.rational_symbols(n) if kind == "sp" else cb.rational_labels(n)
    rows = []
    for lab in labels:
        row = _label_row(kind, lab)
        rows.append({**_pick(row, "label", "eps", "pair", "dim_orbit",
                             "component_group"),
                     "stabilizer_leading": row[f"points_leading_q{q}"],
                     "label_json": row["label_json"]})
    return rows


def _even_rows(n: int, e: int) -> list[dict]:
    from . import classical as cl
    from . import oracle as orc

    space = cl.space_for("so-even", n, e)
    try:
        reports = orc.all_nilpotent_orbits(space, classify=False)
    except ValueError:
        # so-even duals fit orc.POINT_LIMIT up to n = 2 (F_2), n = 1 (F_4)
        raise SizeBound(
            f"so-even over GF({space.field.q}) is answered by an exhaustive "
            f"census, which stops at n = {3 - e}; n = {n} is out of reach")
    rows = []
    for r in reports:
        rows.append({
            "orbit_size": r.orbit_size,
            "stabilizer_order": r.stabilizer_order,
            "representative": cl.dual_to_json(space, r.representative)["X"],
        })
    return rows


def _cmd_orbits(args) -> int:
    if args.n > LIST_CAP:
        raise SizeBound(f"orbit listings stop at n = {LIST_CAP}")
    meta = {"kind": args.type, "n": args.n, "q": args.q}
    if args.type == "so-even":
        if args.q == "closed":
            raise BadRequest(
                "no closed-field labels for the even orthogonal family; "
                "use --q 2 or --q 4 for an exhaustive table")
        rows = _even_rows(args.n, 1 if args.q == "2" else 2)
        _emit(rows, ["orbit_size", "stabilizer_order", "representative"],
              args.format, meta)
        return 0
    if args.q == "closed":
        rows = _closed_rows(args.type, args.n)
        cols = ["label", "pair", "dim_orbit", "component_group", "fq_classes"]
    else:
        rows = _rational_rows(args.type, args.n, int(args.q))
        cols = ["label", "eps", "pair", "dim_orbit", "component_group",
                "stabilizer_leading"]
    _emit(rows, cols, args.format, meta)
    return 0


# ----------------------------------------------------------------------
# classify


def _read_matrix(path: str, type_flag: str | None, e: int):
    from .classical import dual_from_json

    try:
        with open(path) as f:
            text = f.read()
        if text.lstrip().startswith("{"):
            return dual_from_json(json.loads(text))
        return _read_grid(text, type_flag, e)
    except OSError as exc:
        raise BadRequest(f"cannot read matrix file {path}: {exc}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise BadRequest(f"malformed matrix file {path}: "
                         f"{type(exc).__name__}: {exc}")


def _read_grid(text: str, type_flag: str | None, e: int):
    import numpy as np

    from .classical import space_for
    from .finite_field import field_for

    if type_flag is None:
        raise BadRequest("plain matrix files need --type")
    field = field_for(e)
    rows = [line.split() for line in text.splitlines() if line.split()]
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise BadRequest(f"matrix must be square, got {d} lines")
    want_odd = type_flag == "so-odd"
    if d % 2 != want_odd:
        raise BadRequest(f"{type_flag} needs a {'odd' if want_odd else 'even'}"
                         f"-dimensional matrix, got {d}")
    n = d // 2
    if n < 1:
        raise BadRequest("matrix is too small")
    space = space_for(type_flag, n, e)
    X = np.array([[field.parse_element(t) for t in r] for r in rows],
                 dtype=np.uint8)
    return space, X


def _cmd_classify(args) -> int:
    from . import classical as cl
    from . import form_modules as fm
    from . import odd_split as od

    e = 1 if args.q == "2" else 2
    space, X = _read_matrix(args.matrix, args.type, e)
    report: dict = {"kind": space.kind, "n": space.n, "q": space.field.q,
                    "nilpotent": cl.is_nilpotent_functional(space, X)}
    if not report["nilpotent"]:
        print(json.dumps(report, indent=2))
        return 4
    if space.kind == "sp":
        label = fm.classify_fq(fm.build_module(space, X))
    elif space.kind == "so-odd":
        label = od.rational_odd_label(od.split_odd_functional(space, X))
    else:
        report.update({
            "label": None,
            "note": "the even orthogonal family carries no label theory "
                    "here; nilpotence was decided by matrix transport"})
        print(json.dumps(report, indent=2))
        return 0
    row = _label_row(space.kind, label)
    report.update(_pick(row, "label", "label_json", "closed_label"))
    report["centralizer"] = _pick(row, "dim_z", "comp_rank",
                                  "component_group", "dim_orbit")
    print(json.dumps(report, indent=2))
    return 0


# ----------------------------------------------------------------------
# normal-form and centralizer


def _parse_label(kind: str, text: str):
    """A valid label of rank 1..LIST_CAP: a block tuple (sp) or an OddLabel
    (so-odd).

    A decorated label must be canonical: "d" only at splitting positions.
    The rank cap bounds every command's work before any of it starts.
    """
    try:
        if kind == "sp":
            label = cb.parse_blocks(text)
            valid = cb.validate_blocks(label, kind="sp")
        else:
            label = cb.parse_label(text)
            valid = (cb.oodd_pair_valid(*label.pair())
                     and cb.validate_blocks(label.blocks, kind="orth"))
    except ValueError as exc:
        raise BadRequest(str(exc))
    if not valid:
        raise BadRequest(f"invalid {kind} label {text!r}")
    rank = _label_rank(label)
    if rank < 1:
        raise BadRequest(f"label {text!r} has rank 0; ranks must be >= 1")
    if kind == "sp":
        blocks, free = label, cb.split_positions(label)
    else:
        blocks, free = label.blocks, cb.odd_split_positions(label.m, label.blocks)
    if any(b.eps == "d" and i not in free for i, b in enumerate(blocks)):
        raise BadRequest(f"label {text!r} is not canonical: \"d\" may only "
                         f"sit at its splitting positions {free} (0-based)")
    if rank > LIST_CAP:
        raise SizeBound(f"labels stop at rank {LIST_CAP}; {text!r} has rank {rank}")
    return label


def _matrix_tokens(field, M) -> list[list[str]]:
    return [[field.format_element(int(x)) for x in row] for row in M]


def _cmd_normal_form(args) -> int:
    from . import form_modules as fm
    from . import odd_split as od
    from .finite_field import field_for

    field = field_for(1 if args.q == "2" else 2)
    label = _parse_label(args.type, args.label)
    if args.type == "sp":
        mod, X = fm.build_normal_form(label, field)
        out = {"kind": "sp", "q": field.q, "label": cb.format_blocks(label),
               "dim": mod.dim,
               "gram": _matrix_tokens(field, mod.gram),
               "op": _matrix_tokens(field, mod.op),
               "quad": [field.format_element(int(x)) for x in mod.quad],
               "functional": _matrix_tokens(field, X)}
    else:
        if None in label.eps():
            raise BadRequest(f"so-odd witnesses need a decorated label, "
                             f"got {args.label!r}")
        space, X = od.odd_witness(label, field)
        out = {"kind": "so-odd", "q": field.q,
               "label": cb.format_label(label), "dim": space.d,
               "functional": _matrix_tokens(field, X)}
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        for key, val in out.items():
            if isinstance(val, list) and val and isinstance(val[0], list):
                print(f"{key}:")
                for row in val:
                    print("  " + " ".join(row))
            elif isinstance(val, list):
                print(f"{key}: " + " ".join(val))
            else:
                print(f"{key}: {val}")
    return 0


def _cmd_centralizer(args) -> int:
    row = _label_row(args.type, _parse_label(args.type, args.label))
    out = {"kind": args.type,
           **_pick(row, "label", "dim_z", "comp_rank", "component_group",
                   "dim_orbit", "points_leading_q2", "points_leading_q4")}
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        for key, val in out.items():
            print(f"{key}: {val}")
    return 0


# ----------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from . import verify as vf

    suites = SUITES if args.suite == "all" else (args.suite,)
    results = vf.run(suites, max_n=args.max_n)
    if args.format == "json":
        print(json.dumps({
            "max_n": args.max_n,
            "passed": all(r.passed for r in results),
            "checks": [{"suite": r.suite, "name": r.name, "passed": r.passed,
                        "seconds": round(r.seconds, 3), "detail": r.detail}
                       for r in results]}, indent=2))
    else:
        for r in results:
            print(r.line())
        good = sum(r.passed for r in results)
        print(f"{good}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="char2orbits",
        description="Nilpotent coadjoint orbits of classical groups in "
                    "characteristic two")
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser("orbits", help="table of nilpotent orbits")
    po.add_argument("--type", required=True,
                    choices=["sp", "so-odd", "so-even"])
    po.add_argument("--n", type=int, required=True, help="group rank, >= 1")
    po.add_argument("--q", default="closed", choices=["closed", "2", "4"],
                    help="closed for geometric classes, 2 or 4 for "
                         "rational orbit classes")
    po.add_argument("--format", default="table",
                    choices=["table", "json", "csv"])
    po.set_defaults(fn=_cmd_orbits)

    pc = sub.add_parser("classify", help="label a functional from a file")
    pc.add_argument("--matrix", required=True,
                    help="matrix file: whitespace grid of field elements, "
                         "or the JSON form written by this package")
    pc.add_argument("--type", choices=["sp", "so-odd", "so-even"])
    pc.add_argument("--q", default="2", choices=["2", "4"])
    pc.set_defaults(fn=_cmd_classify)

    pn = sub.add_parser("normal-form", help="standard witness of a label")
    pn.add_argument("--type", required=True, choices=["sp", "so-odd"])
    pn.add_argument("--label", required=True,
                    help="sp: block text like \"(2)^2_1:d (1)^2_1:0\"; "
                         "so-odd: \"m=1; (1)^2_1:0\" (- for no blocks)")
    pn.add_argument("--q", default="2", choices=["2", "4"])
    pn.add_argument("--format", default="json", choices=["json", "table"])
    pn.set_defaults(fn=_cmd_normal_form)

    pz = sub.add_parser("centralizer", help="stabilizer data of a label")
    pz.add_argument("--type", required=True, choices=["sp", "so-odd"])
    pz.add_argument("--label", required=True)
    pz.add_argument("--format", default="json", choices=["json", "table"])
    pz.set_defaults(fn=_cmd_centralizer)

    pv = sub.add_parser("verify", help="run the acceptance suites")
    pv.add_argument("--suite", default="all",
                    choices=("all",) + SUITES)
    pv.add_argument("--max-n", type=int, default=None,
                    help="cap the check ranges; default runs each check's "
                         "full documented range")
    pv.add_argument("--format", default="text", choices=["text", "json"])
    pv.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    max_n = getattr(args, "max_n", None)
    if getattr(args, "n", 1) < 1 or (max_n is not None and max_n < 1):
        print("ranks must be >= 1", file=sys.stderr)
        return 2
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BadRequest as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SizeBound as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader is gone: end quietly, as a writer killed by SIGPIPE
        # would, with stdout pointed at devnull so the exit flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
