"""The three benchmark workloads: their inputs, their ops, and the checks.

Every op calls the package through its public functions or its command
line, and every op's output is checked against a known answer: the
golden files under ``golden/`` (recorded at the commit that added this
benchmark, see make_golden.py) or the label the input was built from.

An op returns an ``OpResult``.  ``digest`` is a short text of the op's
output, used to check that the traced run computes what the untraced
run computes.  ``malformed`` marks ops whose input is malformed on
purpose; their failures break the CLI's exit-code contract rather than
give a wrong answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
WORK = Path(__file__).resolve().parent / "out" / "work"

WORKLOADS = ("census", "classify", "cli")


@dataclass
class OpResult:
    ok: bool
    digest: str
    reason: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[], OpResult]
    malformed: bool = False


def verify_workers() -> int:
    "Worker processes for verify's census pool: the CLI default, capped by nproc."
    return min(4, len(os.sched_getaffinity(0)))


# ----------------------------------------------------------------------
# census: exhaustive orbit censuses, one space per op


# The two F_4 censuses, which set op_p50_s, sit seconds apart in a pass, so
# that one spell of a busy host does not slow both.
CENSUS_SPACES = (("sp", 1, 1), ("sp", 1, 2), ("sp", 2, 1), ("so-odd", 1, 1),
                 ("so-odd", 2, 1), ("so-odd", 1, 2), ("so-even", 2, 1))


def space_name(kind: str, n: int, e: int) -> str:
    group = {"sp": f"Sp({2 * n})", "so-odd": f"O({2 * n + 1})",
             "so-even": f"O+({2 * n})"}[kind]
    return f"{group}/F{2 ** e}"


def census_ops() -> list[Op]:
    """The seven censuses, then the adjoint count.

    The spaces are fixed, so this workload ignores the seed: they are every
    space the oracle reaches.  The adjoint count comes last because it
    reuses the O+(4) group its census built, as any caller in one process
    does.
    """
    from char2orbits import centralizers as cz
    from char2orbits import combinatorics as cb
    from char2orbits import oracle as orc
    from char2orbits.classical import space_for

    golden = json.loads((GOLDEN / "census.json").read_text())
    ops = []
    for kind, n, e in CENSUS_SPACES:
        name = space_name(kind, n, e)
        want = golden[name]

        def run(kind=kind, n=n, e=e, want=want) -> OpResult:
            space = space_for(kind, n, e)
            group = orc.enumerate_group(space)
            reports = orc.all_nilpotent_orbits(space, group,
                                               classify=kind != "so-even")
            got = sorted([r.orbit_size, r.stabilizer_order, label_text(r.label)]
                         for r in reports)
            digest = json.dumps(got)
            q = 2 ** e
            if got != sorted(want["orbits"]):
                return OpResult(False, digest, "orbit sizes, stabilizers or "
                                               "labels differ from golden")
            count = 3 if kind == "so-even" else cb.p2(n)
            if len(got) != count:
                return OpResult(False, digest, f"{len(got)} orbits, want {count}")
            if sum(r[0] for r in got) != q ** (space.dim_algebra - n):
                return OpResult(False, digest, "orbit sizes do not sum to "
                                               "q^(dim - rank)")
            if group.order != want["group_order"] or (
                    kind != "so-even" and group.order != cz.group_order(n, q)):
                return OpResult(False, digest, f"group order {group.order}")
            return OpResult(True, digest)

        ops.append(Op(name, run))

    def adjoint() -> OpResult:
        count = orc.adjoint_nilpotent_orbit_count(space_for("so-even", 2, 1))
        return OpResult(count == 3, str(count),
                        "" if count == 3 else f"{count} adjoint orbits, want 3")

    ops.append(Op("adjoint O+(4)/F2", adjoint))
    return ops


def label_text(label) -> str | None:
    from char2orbits import form_modules as fm
    from char2orbits import odd_split as od
    if label is None:
        return None
    if isinstance(label, od.OddLabel):
        return od.format_label(label)
    return fm.format_blocks(label)


# ----------------------------------------------------------------------
# classify: label seeded random conjugates of every rational label, n <= 3


CONJUGATE_SETS = 4      # passes cycle through this many seeded input sets


def classify_labels():
    "(kind, field degree, label) for every rational label with n = 1..3."
    from char2orbits import form_modules as fm
    from char2orbits import odd_split as od
    out = []
    for e in (1, 2):
        for n in (1, 2, 3):
            out += [("sp", e, sym) for sym in fm.rational_symbols(n)]
            out += [("so-odd", e, lab) for lab in od.rational_labels(n)]
    return out


def classify_inputs(seed: int) -> list[list[Op]]:
    """CONJUGATE_SETS lists of 68 ops; op i of every list carries label i.

    Each op's input is g X g^-1 for the label's normal form (sp) or odd
    witness (so-odd) X and a seeded random group element g.
    """
    from char2orbits import classical as cl
    from char2orbits import form_modules as fm
    from char2orbits import odd_split as od
    from char2orbits.classical import space_for
    from char2orbits.finite_field import field_for

    rng = np.random.default_rng(seed)
    bases = []
    for kind, e, label in classify_labels():
        F = field_for(e)
        if kind == "sp":
            space = space_for("sp", sum(b.m for b in label), e)
            _, X = fm.build_normal_form(label, F)
        else:
            space, X = od.odd_witness(label, F)
        bases.append((kind, space, X, label_text(label)))
    out = []
    for _ in range(CONJUGATE_SETS):
        ops = []
        for kind, space, X, want in bases:
            Y = cl.coadjoint(space, cl.random_group_element(space, rng), X)
            name = f"{kind} q{space.field.q} {want}"
            ops.append(Op(name, _classify_op(kind, space, Y, want)))
        out.append(ops)
    return out


def _classify_op(kind, space, X, want):
    from char2orbits import form_modules as fm
    from char2orbits import odd_split as od

    def run() -> OpResult:
        if kind == "sp":
            label = fm.classify_fq(fm.build_module(space, X))
        else:
            label = od.rational_odd_label(od.split_odd_functional(space, X))
        got = label_text(label)
        return OpResult(got == want, got, "" if got == want else f"got {got}")
    return run


# ----------------------------------------------------------------------
# cli: a serial user session, one command per op


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    malformed: bool = False


ORBIT_TABLES = (("sp", "closed"), ("so-odd", "closed"), ("sp", "2"), ("so-odd", "4"))
SP_LABELS = {
    2: ("(1)^2_0:0 (1)^2_0:0", "(2)^2_1:0", "(2)^2_1:d", "(1)^2_1:0 (1)^2_1:0",
        "(2)^2_2:0"),
    3: ("(1)^2_0:0 (1)^2_0:0 (1)^2_0:0", "(2)^2_1:0 (1)^2_0:0",
        "(2)^2_1:d (1)^2_0:0", "(3)^2_1:0", "(2)^2_1:0 (1)^2_1:0",
        "(1)^2_1:0 (1)^2_1:0 (1)^2_1:0", "(3)^2_2:0", "(3)^2_2:d",
        "(2)^2_2:0 (1)^2_1:0", "(3)^2_3:0")}
ODD_LABELS = {
    2: ("m=0; (1)^2_1:0 (1)^2_1:0", "m=0; (2)^2_2:0", "m=1; (1)^2_1:0",
        "m=1; (1)^2_1:d", "m=2; -"),
    3: ("m=0; (1)^2_1:0 (1)^2_1:0 (1)^2_1:0", "m=0; (2)^2_2:0 (1)^2_1:0",
        "m=0; (3)^2_3:0", "m=1; (1)^2_1:0 (1)^2_1:0", "m=1; (1)^2_1:d (1)^2_1:0",
        "m=1; (2)^2_2:0", "m=1; (2)^2_1:0", "m=2; (1)^2_1:0", "m=2; (1)^2_1:d",
        "m=3; -")}


def classify_files() -> list[tuple[str, str, str, str]]:
    """(kind, label, q, file format) of the session's classify inputs.

    Every rational label at n = 3 over F_2 and at n = 2 over F_4, and the
    three nilpotent O+(4) orbits over F_2; a so-even "label" is the orbit's
    index in the golden census, since that family has no label theory.
    """
    out = []
    for kind, table in (("sp", SP_LABELS), ("so-odd", ODD_LABELS)):
        for n, q in ((3, "2"), (2, "4")):
            out += [(kind, label, q, ("grid", "json")[i % 2])
                    for i, label in enumerate(table[n])]
    out += [("so-even", str(i), "2", fmt) for i in range(3)
            for fmt in ("json", "grid")]
    return out


def cli_commands(work: Path) -> list[Command]:
    "The session's commands; classify inputs are files under ``work``."
    cmds = []
    for kind, q in ORBIT_TABLES:
        for fmt in ("table", "json", "csv"):
            cmds.append(Command(f"orbits {kind} q={q} n=12 {fmt}",
                                ("orbits", "--type", kind, "--n", "12",
                                 "--q", q, "--format", fmt)))
    cmds.append(Command("orbits so-even q=2 n=2",
                        ("orbits", "--type", "so-even", "--n", "2", "--q", "2")))
    labels = [("sp", lab) for n in (2, 3) for lab in SP_LABELS[n]] + \
             [("so-odd", lab) for n in (2, 3) for lab in ODD_LABELS[n]]
    for i, (kind, label) in enumerate(labels):
        q, fmt = ("2", "4")[i % 2], ("table", "json", "json")[i % 3]
        cmds.append(Command(f"normal-form {kind} q={q} {fmt} {label}",
                            ("normal-form", "--type", kind, "--label", label,
                             "--q", q, "--format", fmt)))
    rank3 = [("sp", lab) for lab in SP_LABELS[3]] + \
            [("so-odd", lab) for lab in ODD_LABELS[3]]
    for i, (kind, label) in enumerate(rank3):
        fmt = ("json", "table")[i % 2]
        cmds.append(Command(f"centralizer {kind} {fmt} {label}",
                            ("centralizer", "--type", kind, "--label", label,
                             "--format", fmt)))
    for i, (kind, label, q, fmt) in enumerate(classify_files()):
        path = work / f"classify{i}.{'txt' if fmt == 'grid' else 'json'}"
        argv = ("classify", "--matrix", str(path), "--q", q)
        if fmt == "grid":
            argv += ("--type", kind)
        cmds.append(Command(f"classify {kind} q={q} {fmt} {label}", argv))
    cmds.append(Command("verify all json",
                        ("verify", "--suite", "all", "--format", "json")))
    for name, fname, extra in (("bad hex token", "bad_hex.txt", ("--type", "sp")),
                               ("json without X", "no_x.json", ()),
                               ("GF(2^9) header", "gf512.json", ())):
        cmds.append(Command(f"malformed {name}",
                            ("classify", "--matrix", str(work / fname)) + extra,
                            malformed=True))
    return cmds


def write_cli_inputs(seed: int, work: Path) -> None:
    "Seeded conjugates for the classify commands, and the malformed files."
    from char2orbits import classical as cl
    from char2orbits import form_modules as fm
    from char2orbits import odd_split as od
    from char2orbits.classical import space_for
    from char2orbits.finite_field import field_for

    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    even = json.loads((GOLDEN / "census.json").read_text())["O+(4)/F2"]
    for i, (kind, label, q, fmt) in enumerate(classify_files()):
        e = 1 if q == "2" else 2
        if kind == "sp":
            blocks = fm.parse_blocks(label)
            space = space_for("sp", sum(b.m for b in blocks), e)
            _, X = fm.build_normal_form(blocks, field_for(e))
        elif kind == "so-odd":
            space, X = od.odd_witness(od.parse_label(label), field_for(e))
        else:
            space = space_for("so-even", 2, e)
            X = space.dual_from_values(even["values"][int(label)])
        Y = cl.coadjoint(space, cl.random_group_element(space, rng), X)
        if fmt == "grid":
            text = "\n".join(" ".join(space.field.format_element(int(x))
                                      for x in row) for row in Y) + "\n"
            (work / f"classify{i}.txt").write_text(text)
        else:
            (work / f"classify{i}.json").write_text(
                json.dumps(cl.dual_to_json(space, Y)) + "\n")
    (work / "bad_hex.txt").write_text("0 1 0 0\n1 0 0 0\n0 0 0 z\n0 0 1 0\n")
    (work / "no_x.json").write_text(
        json.dumps({"kind": "sp", "n": 1, "field": "GF(2^1)/11"}) + "\n")
    (work / "gf512.json").write_text(json.dumps(
        {"kind": "sp", "n": 1, "field": "GF(2^9)/1000010001",
         "X": "0 1 1 0"}) + "\n")


_SECONDS = re.compile(rb'"seconds": [0-9.eE+-]+')


def normalized_stdout(argv, out: bytes) -> bytes:
    "verify reports each check's run time; everything else must be identical."
    return _SECONDS.sub(b'"seconds": _', out) if argv[0] == "verify" else out


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["ORBITS_THREADS"] = str(verify_workers())
    return env


def run_subprocess(argv) -> tuple[int, bytes, bytes]:
    p = subprocess.run([sys.executable, "-m", "char2orbits.cli", *argv],
                       cwd=ROOT, env=cli_env(), capture_output=True,
                       timeout=150)
    return p.returncode, p.stdout, p.stderr


def run_in_process(argv) -> tuple[int, bytes, bytes]:
    """cli.main in this process, with the per-process memos emptied first.

    An exception escaping main exits 1, as the interpreter would; stderr
    gets the exception line alone, since the traceback's length depends
    on the frames around main, which tracing changes.
    """
    from char2orbits import cli, oracle, verify
    oracle._group_memo.clear()
    verify._census_memo.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            print("".join(traceback.format_exception_only(exc)).rstrip(),
                  file=sys.stderr)
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def cli_ops(cmds: list[Command], in_process: bool) -> list[Op]:
    golden = json.loads((GOLDEN / "cli.json").read_text())
    runner = run_in_process if in_process else run_subprocess
    ops = []
    for cmd in cmds:
        want = golden[cmd.name]

        def run(cmd=cmd, want=want) -> OpResult:
            code, out, err = runner(cmd.argv)
            out = normalized_stdout(cmd.argv, out)
            lines = len(err.decode(errors="replace").splitlines())
            sha = hashlib.sha256(out).hexdigest()
            digest = f"exit={code} stderr_lines={lines} stdout={sha[:16]}"
            bad = []
            if code != want["exit"]:
                bad.append(f"exit {code}, want {want['exit']}")
            if lines != want["stderr_lines"]:
                bad.append(f"{lines} stderr lines, want {want['stderr_lines']}")
            if sha != want["stdout_sha256"]:
                bad.append("stdout differs from golden")
            return OpResult(not bad, digest, "; ".join(bad))

        ops.append(Op(cmd.name, run, cmd.malformed))
    return ops
