"""Command line interface: orbit tables, classification, verification.

Subcommands

  orbits       one row per nilpotent orbit of the chosen group
  classify     label a functional given as a matrix file
  normal-form  build the standard witness of a label
  centralizer  dimension and component data of a label's stabilizer
  verify       run the acceptance suites

Exit codes: 0 success, 1 verification failure, 2 invalid request,
3 size bounds exceeded, 4 classify input not nilpotent, 141 (128 + SIGPIPE)
when the reader closes standard output early.  Exits 2, 3 and 4 write one
line to stderr, argparse usage errors included; 4 still prints the classify
report.

Every command does bounded work: orbit tables, labels and classify
inputs stop at rank LIST_CAP (exit 3, checked before any space is built).
The sp and so-odd tables are built pair by pair: building a pair's closed
label is its one validity check, and the table columns that depend only
on the pair are computed once per pair, not once per row.  A label read
from the command line is checked once, when it is parsed.

Labels are pure combinatorics, so only combinatorics and centralizers load
with this module, and neither needs more of the standard library than
argparse and json.  A command imports the layers it runs inside its own
function: normal-form --type sp never loads odd_split, csv loads only for
--format csv, and only verify loads the exhaustive search in isometry,
the reference its checks compare against.  The matrix layers are plain
Python: numpy loads only for the exhaustive census behind orbits --type
so-even, and for verify.
"""

from __future__ import annotations

import argparse
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
        import csv

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


def _print_record(out: dict, fmt: str) -> None:
    "One record: JSON, or key: value lines with matrix rows indented."
    if fmt == "json":
        print(json.dumps(out, indent=2))
        return
    for key, val in out.items():
        if isinstance(val, list) and val and isinstance(val[0], list):
            print(f"{key}:")
            for row in val:
                print("  " + " ".join(row))
        elif isinstance(val, list):
            print(f"{key}: " + " ".join(val))
        else:
            print(f"{key}: {val}")


# ----------------------------------------------------------------------
# orbits


def _pair_cells(fam, pair) -> dict:
    """The fields every label of a checked pair shares, centralizer data
    included; dim_orbit is taken at the rank the pair encodes, its size."""
    rep = cz.pair_report(fam, pair)
    return {"pair": fam.pair_text(pair),
            "dim_z": rep.dim_z,
            "comp_rank": rep.comp_rank,
            "component_group": rep.component_group(),
            "dim_orbit": cz.algebra_dim(sum(map(sum, pair))) - rep.dim_z,
            "fq_classes": 2 ** rep.comp_rank,
            "points_leading_q2": rep.point_count_leading(2),
            "points_leading_q4": rep.point_count_leading(4)}


def _label_cells(fam, label, pair) -> dict:
    "The fields of one label, given its pair, that the pair does not fix."
    eps = [b.eps for b in fam.blocks(label)]
    return {"label": fam.format(label),
            "eps": None if None in eps else "".join(eps),
            "label_json": fam.to_json(label, pair)}


def _label_row(kind: str, label) -> dict:
    """Every field the commands print about one valid label of the kind's
    family, decorated or closed: its own cells and its pair's."""
    fam = cb.FAMILIES[kind]
    pair = fam.pair(label)
    return {**_label_cells(fam, label, pair),
            "closed_label": fam.closed_text(label), **_pair_cells(fam, pair)}


def _pick(row: dict, *keys: str) -> dict:
    return {k: row[k] for k in keys}


def _table_rows(kind: str, n: int, q: str) -> list[dict]:
    """The orbit table of rank n, pair by pair: one closed row per pair, or
    (q = "2" or "4") one row per rational label of the pair.  Building the
    pair's closed label is the one validity check; the pair's cells are
    computed once and shared by its rows."""
    fam = cb.FAMILIES[kind]
    rows = []
    for pair in fam.pairs(n):
        closed = fam.closed(pair)
        cells = _pair_cells(fam, pair)
        if q == "closed":
            rows.append({"label": fam.closed_text(closed),
                         **_pick(cells, "pair", "dim_orbit",
                                 "component_group", "fq_classes")})
            continue
        shared = {**_pick(cells, "pair", "dim_orbit", "component_group"),
                  "stabilizer_leading": cells[f"points_leading_q{q}"]}
        for label in fam.decorate(closed, fam.free(pair)):
            own = _label_cells(fam, label, pair)
            rows.append({"label": own["label"], "eps": own["eps"], **shared,
                         "label_json": own["label_json"]})
    return rows


def _even_rows(n: int, e: int) -> list[dict]:
    from . import classical as cl

    top = cl.even_reach(e)
    if n > top:
        raise SizeBound(
            f"so-even over GF({1 << e}) is answered by an exhaustive "
            f"census, which stops at n = {top}; n = {n} is out of reach")
    from . import oracle as orc

    space = cl.space_for("so-even", n, e)
    reports = orc.all_nilpotent_orbits(space, classify=False)
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
        cols = ["label", "pair", "dim_orbit", "component_group", "fq_classes"]
    else:
        cols = ["label", "eps", "pair", "dim_orbit", "component_group",
                "stabilizer_leading"]
    _emit(_table_rows(args.type, args.n, args.q), cols, args.format, meta)
    return 0


# ----------------------------------------------------------------------
# classify


def _read_matrix(path: str, type_flag: str | None, q_flag: str | None):
    """The space and functional of a matrix file.  A JSON file carries its
    own kind and field, which --type and --q may repeat but not contradict;
    a grid takes both from the flags, q = 2 by default.  Either form checks
    the rank cap once it is well formed, before any space is built."""
    from .classical import Space, dual_parts_from_json

    try:
        with open(path) as f:
            text = f.read()
        if text.lstrip().startswith("{"):
            kind, n, field, X = dual_parts_from_json(json.loads(text))
        else:
            kind, n, field, X = _grid_parts(text, type_flag, q_flag)
    except OSError as exc:
        raise BadRequest(f"cannot read matrix file {path}: {exc}")
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        raise BadRequest(f"malformed matrix file {path}: "
                         f"{type(exc).__name__}: {exc}")
    for flag, value, given in (("--type", kind, type_flag),
                               ("--q", str(field.q), q_flag)):
        if given not in (None, value):
            raise BadRequest(f"matrix file {path} gives {flag[2:]} {value}, "
                             f"but {flag} {given} was requested")
    if n > LIST_CAP:
        raise SizeBound(f"classify stops at rank {LIST_CAP}; "
                        f"the matrix file gives n = {n}")
    return Space(kind, n, field), X


def _grid_parts(text: str, type_flag: str | None, q_flag: str | None):
    "A grid's kind, rank, field and functional, as dual_parts_from_json's."
    from .finite_field import field_for

    if type_flag is None:
        raise BadRequest("plain matrix files need --type")
    field = field_for(2 if q_flag == "4" else 1)
    rows = [line.split() for line in text.splitlines() if line.split()]
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise BadRequest(f"matrix must be square, got {d} lines")
    want_odd = type_flag == "so-odd"
    if d % 2 != want_odd:
        raise BadRequest(f"{type_flag} needs an {'odd' if want_odd else 'even'}"
                         f"-dimensional matrix, got {d}")
    if d < 2:
        raise BadRequest("matrix is too small")
    X = [[field.parse_element(t) for t in r] for r in rows]
    return type_flag, d // 2, field, X


def _cmd_classify(args) -> int:
    space, X = _read_matrix(args.matrix, args.type, args.q)
    # the classifiers load only once the file has been read and checked
    from . import odd_split as od
    from .form_modules import NotNilpotentError

    report: dict = {"kind": space.kind, "n": space.n, "q": space.field.q}
    try:
        label = od.rational_label(space, X)
    except NotNilpotentError:
        report["nilpotent"] = False
        _print_record(report, "json")
        print("the functional is not nilpotent", file=sys.stderr)
        return 4
    report["nilpotent"] = True
    if label is None:
        report.update({
            "label": None,
            "note": "the even orthogonal family carries no label theory "
                    "here; nilpotence was decided by matrix transport"})
    else:
        row = _label_row(space.kind, label)
        report.update(_pick(row, "label", "label_json", "closed_label"))
        report["centralizer"] = _pick(row, "dim_z", "comp_rank",
                                      "component_group", "dim_orbit")
    _print_record(report, "json")
    return 0


# ----------------------------------------------------------------------
# normal-form and centralizer


def _parse_label(kind: str, text: str):
    """A valid label of the kind's family, of rank 1..LIST_CAP.

    A decorated label must be canonical: "d" only at splitting positions.
    The rank cap bounds every command's work before any of it starts.
    """
    fam = cb.FAMILIES[kind]
    try:
        label = fam.parse(text)
        valid = fam.valid(label)
    except ValueError as exc:
        raise BadRequest(str(exc))
    if not valid:
        raise BadRequest(f"invalid {kind} label {text!r}")
    pair = fam.pair(label)
    rank, free = sum(map(sum, pair)), fam.free(pair)
    if rank < 1:
        raise BadRequest(f"label {text!r} has rank 0; ranks must be >= 1")
    if any(b.eps == "d" and i not in free
           for i, b in enumerate(fam.blocks(label))):
        raise BadRequest(f"label {text!r} is not canonical: \"d\" may only "
                         f"sit at its splitting positions {free} (0-based)")
    if rank > LIST_CAP:
        raise SizeBound(f"labels stop at rank {LIST_CAP}; {text!r} has rank {rank}")
    return label


def _matrix_tokens(field, M) -> list[list[str]]:
    return [[field.format_element(x) for x in row] for row in M]


def _cmd_normal_form(args) -> int:
    from .finite_field import field_for

    field = field_for(1 if args.q == "2" else 2)
    label = _parse_label(args.type, args.label)
    if args.type == "sp":
        from . import form_modules as fm

        mod, X = fm.build_normal_form(label, field)
        module = {"gram": _matrix_tokens(field, mod.gram),
                  "op": _matrix_tokens(field, mod.op),
                  "quad": [field.format_element(x) for x in mod.quad]}
    else:
        if None in label.eps():
            raise BadRequest(f"so-odd witnesses need a decorated label, "
                             f"got {args.label!r}")
        from . import odd_split as od

        _, X = od.odd_witness(label, field)
        module = {}
    _print_record({"kind": args.type, "q": field.q,
                   "label": cb.FAMILIES[args.type].format(label),
                   "dim": len(X), **module,
                   "functional": _matrix_tokens(field, X)}, args.format)
    return 0


def _cmd_centralizer(args) -> int:
    row = _label_row(args.type, _parse_label(args.type, args.label))
    out = {"kind": args.type,
           **_pick(row, "label", "dim_z", "comp_rank", "component_group",
                   "dim_orbit", "points_leading_q2", "points_leading_q4")}
    _print_record(out, args.format)
    return 0


# ----------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from . import verify as vf

    suites = SUITES if args.suite == "all" else (args.suite,)
    results = vf.run(suites, max_n=args.max_n)
    if args.format == "json":
        _print_record({
            "max_n": args.max_n,
            "passed": all(r.passed for r in results),
            "checks": [{"suite": r.suite, "name": r.name, "passed": r.passed,
                        "seconds": round(r.seconds, 3), "detail": r.detail}
                       for r in results]}, "json")
    else:
        for r in results:
            print(r.line())
        good = sum(r.passed for r in results)
        print(f"{good}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line, "<prog>: error: <message>", and
    exit 2, as for every other invalid request; --help is unchanged.
    Subcommand parsers inherit the class, so their prog names the command."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def _add_orbits(sub) -> None:
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


def _add_classify(sub) -> None:
    pc = sub.add_parser("classify", help="label a functional from a file")
    pc.add_argument("--matrix", required=True,
                    help="matrix file: whitespace grid of field elements, "
                         "or the JSON form written by this package")
    pc.add_argument("--type", choices=["sp", "so-odd", "so-even"])
    pc.add_argument("--q", choices=["2", "4"],
                    help="field of a grid file (default 2); a JSON file "
                         "gives its own")
    pc.set_defaults(fn=_cmd_classify)


def _add_normal_form(sub) -> None:
    pn = sub.add_parser("normal-form", help="standard witness of a label")
    pn.add_argument("--type", required=True, choices=["sp", "so-odd"])
    pn.add_argument("--label", required=True,
                    help="sp: block text like \"(2)^2_1:d (1)^2_1:0\"; "
                         "so-odd: \"m=1; (1)^2_1:0\" (- for no blocks)")
    pn.add_argument("--q", default="2", choices=["2", "4"])
    pn.add_argument("--format", default="json", choices=["json", "table"])
    pn.set_defaults(fn=_cmd_normal_form)


def _add_centralizer(sub) -> None:
    pz = sub.add_parser("centralizer", help="stabilizer data of a label")
    pz.add_argument("--type", required=True, choices=["sp", "so-odd"])
    pz.add_argument("--label", required=True)
    pz.add_argument("--format", default="json", choices=["json", "table"])
    pz.set_defaults(fn=_cmd_centralizer)


def _add_verify(sub) -> None:
    pv = sub.add_parser("verify", help="run the acceptance suites")
    pv.add_argument("--suite", default="all",
                    choices=("all",) + SUITES)
    pv.add_argument("--max-n", type=int, default=None,
                    help="cap the check ranges; default runs each check's "
                         "full documented range")
    pv.add_argument("--format", default="text", choices=["text", "json"])
    pv.set_defaults(fn=_cmd_verify)


# the subcommands in help order, each with the function adding its parser
_COMMANDS = {"orbits": _add_orbits, "classify": _add_classify,
            "normal-form": _add_normal_form, "centralizer": _add_centralizer,
            "verify": _add_verify}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  When argv[0] names a command, only that
    command's subparser is built, since parsing the rest of argv reads no
    other; otherwise (top-level help, a missing or unknown command) all
    five are, as that help and those errors list them."""
    p = _Parser(
        prog="char2orbits",
        description="Nilpotent coadjoint orbits of classical groups in "
                    "characteristic two")
    sub = p.add_subparsers(dest="command", required=True)
    names = [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        _COMMANDS[name](sub)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    if [] in vars(args).values():
        # argparse reads "--label=--" as an empty list of values
        print("an option's value is '--'", file=sys.stderr)
        return 2
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
