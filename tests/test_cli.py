import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from char2orbits import centralizers as cz
from char2orbits import classical as cl
from char2orbits import cli
from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
from char2orbits import linalg as la
from char2orbits import odd_split as od
from char2orbits.classical import space_for
from char2orbits.finite_field import field_for

F2 = field_for(1)
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def table_rows(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return lines[2:]  # header and dashes


def write_grid(path, X):
    path.write_text("\n".join(" ".join(str(int(v)) for v in row)
                              for row in X))
    return str(path)


# ----------------------------------------------------------------------
# orbits


def test_orbits_sp2_closed_has_four_rows(capsys):
    rc, out, _ = run(capsys, ["orbits", "--type", "sp", "--n", "2"])
    assert rc == 0
    assert len(table_rows(out)) == 4


def test_orbits_sp2_rational_has_five_rows(capsys):
    rc, out, _ = run(capsys, ["orbits", "--type", "sp", "--n", "2",
                              "--q", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 5
    assert sorted(r["eps"] for r in doc["rows"]) == ["0", "0", "00", "00", "d"]


def test_orbits_so_odd_n1_has_two_rows(capsys):
    rc, out, _ = run(capsys, ["orbits", "--type", "so-odd", "--n", "1"])
    assert rc == 0
    assert len(table_rows(out)) == 2


def test_orbits_fq_classes_column_sums_to_rational_count(capsys):
    rc, closed, _ = run(capsys, ["orbits", "--type", "sp", "--n", "3",
                                 "--format", "json"])
    assert rc == 0
    rc, rational, _ = run(capsys, ["orbits", "--type", "sp", "--n", "3",
                                   "--q", "4", "--format", "json"])
    assert rc == 0
    fanout = sum(r["fq_classes"] for r in json.loads(closed)["rows"])
    assert fanout == len(json.loads(rational)["rows"])


def test_orbits_so_even_closed_is_invalid(capsys):
    rc, _, err = run(capsys, ["orbits", "--type", "so-even", "--n", "2"])
    assert rc == 2
    assert "--q 2" in err


def test_orbits_so_even_f2_matches_exhaustive_census(capsys):
    rc, out, _ = run(capsys, ["orbits", "--type", "so-even", "--n", "2",
                              "--q", "2", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert sorted(r["orbit_size"] for r in rows) == [1, 6, 9]
    for r in rows:
        assert r["orbit_size"] * r["stabilizer_order"] == 72


def test_orbits_size_bounds(capsys):
    rc, _, _ = run(capsys, ["orbits", "--type", "sp", "--n", "13"])
    assert rc == 3
    rc, _, err = run(capsys, ["orbits", "--type", "so-even", "--n", "4",
                              "--q", "2"])
    assert rc == 3
    assert "stops at n = 3" in err
    for n, q, rows in [("3", "2", 5), ("2", "4", 3)]:
        rc, out, _ = run(capsys, ["orbits", "--type", "so-even", "--n", n,
                                  "--q", q, "--format", "json"])
        assert rc == 0 and len(json.loads(out)["rows"]) == rows
    for n, q in [("4", "2"), ("3", "4"), ("12", "2")]:
        rc, out, err = run(capsys, ["orbits", "--type", "so-even", "--n", n,
                                    "--q", q])
        assert rc == 3 and out == "" and len(err.splitlines()) == 1
        assert f"n = {n} is out of reach" in err


def test_orbits_rejects_bad_rank_and_bad_q(capsys):
    rc, _, _ = run(capsys, ["orbits", "--type", "sp", "--n", "0"])
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbits", "--type", "sp", "--n", "2", "--q", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,prog", [
    ([], "char2orbits"),
    (["classify"], "char2orbits classify"),
    (["classify", "--matrix", "m.txt", "--q", "3"], "char2orbits classify"),
    (["centralizer", "--q", "4"], "char2orbits centralizer"),
    (["verify", "--max-n", "x"], "char2orbits verify"),
    (["orbits", "--type", "gl", "--n", "2"], "char2orbits orbits"),
    (["normal-form", "--type", "sp", "--label", "(1)^2_0:0", "extra\nline"],
     "char2orbits"),
    (["nonsense"], "char2orbits"),
])
def test_usage_errors_are_one_line(capsys, argv, prog):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{prog}: error: ")


def test_help_keeps_its_usage_text(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: char2orbits classify")
    assert len(out.splitlines()) > 1


def test_orbits_output_is_deterministic(capsys):
    argv = ["orbits", "--type", "so-odd", "--n", "3", "--q", "2",
            "--format", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_orbits_csv_and_json_agree(capsys):
    _, csv_text, _ = run(capsys, ["orbits", "--type", "sp", "--n", "2",
                                  "--q", "2", "--format", "csv"])
    _, json_text, _ = run(capsys, ["orbits", "--type", "sp", "--n", "2",
                                   "--q", "2", "--format", "json"])
    csv_labels = [line.split(",")[0] for line in csv_text.splitlines()[1:]]
    json_labels = [r["label"] for r in json.loads(json_text)["rows"]]
    assert csv_labels == json_labels


def _rows_label_by_label(kind, n, q):
    """An orbit table built one label at a time: each closed label or each
    rational label, then the library's centralizer report of that label."""
    fam = cb.FAMILIES[kind]
    labels = ([fam.closed(p) for p in fam.pairs(n)] if q == "closed"
              else fam.rational(n))
    rows = []
    for label in labels:
        pair = fam.pair(label)
        rep = cz.report(fam, label)
        dim_orbit = cz.algebra_dim(n) - rep.dim_z
        if q == "closed":
            rows.append({"label": fam.closed_text(label),
                         "pair": fam.pair_text(pair), "dim_orbit": dim_orbit,
                         "component_group": rep.component_group(),
                         "fq_classes": 2 ** rep.comp_rank})
            continue
        eps = [b.eps for b in fam.blocks(label)]
        rows.append({"label": fam.format(label), "eps": "".join(eps),
                     "pair": fam.pair_text(pair), "dim_orbit": dim_orbit,
                     "component_group": rep.component_group(),
                     "stabilizer_leading": rep.point_count_leading(int(q)),
                     "label_json": fam.to_json(label)})
    return rows


@pytest.mark.parametrize("kind", ["sp", "so-odd"])
def test_table_rows_match_rows_built_label_by_label(kind):
    fam = cb.FAMILIES[kind]
    for n in range(1, 9):
        for q in ("closed", "2", "4"):
            got = cli._table_rows(kind, n, q)
            want = _rows_label_by_label(kind, n, q)
            assert got == want
            # the same keys in the same order: JSON prints rows as built
            assert [list(r) for r in got] == [list(r) for r in want]
        for pair in fam.pairs(n):
            closed = fam.closed(pair)
            free = fam.free(pair)
            blocks = cb.decorations(fam.blocks(closed), free)
            want = [b if kind == "sp" else cb.OddLabel(closed.m, b)
                    for b in blocks]
            assert fam.decorate(closed, free) == want


# ----------------------------------------------------------------------
# classify


def test_classify_symplectic_witness(capsys, tmp_path):
    label = (cb.BlockLabel(2, 1, "d"),)
    _, X = fm.build_normal_form(label, F2)
    path = write_grid(tmp_path / "w.txt", X)
    rc, out, _ = run(capsys, ["classify", "--matrix", path, "--type", "sp"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["nilpotent"] is True
    assert doc["label"] == "(2)^2_1:d"
    assert doc["centralizer"]["component_group"] == "(Z/2)^1"
    assert doc["label_json"] == {"blocks": [{"m": 2, "l": 1, "eps": "d"}]}


def test_classify_json_file_is_self_describing(capsys, tmp_path):
    space = space_for("so-odd", 2, 1)
    label = cb.OddLabel(1, (cb.BlockLabel(1, 1, "0"),))
    _, X = od.odd_witness(label, F2)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(cl.dual_to_json(space, X)))
    rc, out, _ = run(capsys, ["classify", "--matrix", str(path)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "so-odd"
    assert doc["label_json"] == {"m": 1, "pair": {"nu": [1], "mu": [1]},
                                 "eps": ["0"]}


def test_classify_json_file_keeps_its_own_field(capsys, tmp_path):
    # no --q default: a GF(8) file classifies over GF(8), and flags that
    # repeat the file's kind and field are accepted
    F8 = field_for(3)
    blocks = cb.parse_blocks("(2)^2_1:d")
    _, X = fm.build_normal_form(blocks, F8)
    path = tmp_path / "gf8.json"
    path.write_text(json.dumps(cl.dual_to_json(cl.Space("sp", 2, F8), X)))
    for extra in ([], ["--type", "sp"]):
        rc, out, _ = run(capsys, ["classify", "--matrix", str(path)] + extra)
        assert rc == 0
        doc = json.loads(out)
        assert (doc["q"], doc["label"]) == (8, "(2)^2_1:d")
    path = tmp_path / "gf4.json"
    _, X = fm.build_normal_form(blocks, field_for(2))
    path.write_text(json.dumps(cl.dual_to_json(space_for("sp", 2, 2), X)))
    rc, out, _ = run(capsys, ["classify", "--matrix", str(path), "--q", "4"])
    assert rc == 0 and json.loads(out)["q"] == 4


def test_classify_zero_matrix(capsys, tmp_path):
    path = write_grid(tmp_path / "z.txt", la.zeros(4, 4))
    rc, out, _ = run(capsys, ["classify", "--matrix", path, "--type", "sp"])
    assert rc == 0
    assert json.loads(out)["label"] == "(1)^2_0:0 (1)^2_0:0"


@pytest.mark.parametrize("kind,X", [
    ("sp", [[0, 0, 0, 0], [1, 1, 1, 0], [0, 0, 1, 0], [1, 0, 1, 1]]),
    ("so-odd", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ("so-even", [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
], ids=["sp", "so-odd", "so-even"])
def test_classify_non_nilpotent_reports_and_exits_4(capsys, tmp_path,
                                                     kind, X):
    path = write_grid(tmp_path / "n.txt", X)
    rc, out, err = run(capsys, ["classify", "--matrix", path, "--type", kind])
    assert rc == 4
    assert list(json.loads(out).items()) == [
        ("kind", kind), ("n", len(X) // 2), ("q", 2), ("nilpotent", False)]
    assert len(err.splitlines()) == 1


def test_classify_plain_grid_needs_type(capsys, tmp_path):
    path = write_grid(tmp_path / "z.txt", la.zeros(4, 4))
    rc, _, err = run(capsys, ["classify", "--matrix", path])
    assert rc == 2
    assert "--type" in err


def test_classify_dimension_parity_mismatch(capsys, tmp_path):
    path = write_grid(tmp_path / "z.txt", la.zeros(4, 4))
    rc, _, err = run(capsys, ["classify", "--matrix", path, "--type", "so-odd"])
    assert rc == 2
    assert "so-odd needs an odd-dimensional matrix, got 4" in err


def test_classify_missing_file(capsys):
    rc, _, _ = run(capsys, ["classify", "--matrix", "/tmp/does-not-exist-x",
                            "--type", "sp"])
    assert rc == 2


@pytest.mark.parametrize("name,text,extra", [
    ("bad_hex.txt", "0 1 0 0\n1 0 0 0\n0 0 0 z\n0 0 1 0\n", ["--type", "sp"]),
    ("no_x.json", json.dumps({"kind": "sp", "n": 1, "field": "GF(2^1)/11"}),
     []),
    ("gf512.json", json.dumps({"kind": "sp", "n": 1,
                               "field": "GF(2^9)/1000010001", "X": "0 1 1 0"}),
     []),
    # a rank of 100000 would make a 200000 x 200000 space; X is checked first
    ("huge_n.json", json.dumps({"kind": "sp", "n": 100000,
                                "field": "GF(2^1)/11", "X": "0"}), []),
    ("float_n.json", json.dumps({"kind": "sp", "n": 1.9,
                                 "field": "GF(2^1)/11", "X": "0 1 1 0"}), []),
    ("bool_n.json", json.dumps({"kind": "sp", "n": True,
                                "field": "GF(2^1)/11", "X": "0 1 1 0"}), []),
    ("prefixed.txt", "0 0x1\n1 0\n", ["--type", "sp"]),
    # header() never writes a leading zero; int() alone would take it
    ("gf4_zero.json", json.dumps({"kind": "sp", "n": 1,
                                  "field": "GF(2^02)/111", "X": "0 1 1 0"}),
     []),
    # nesting deeper than the recursion limit; explicit ids keep them short
    pytest.param("deep.json", '{"a": ' * 100000, [], id="deep.json"),
    pytest.param("deep_x.json", '{"kind": "sp", "n": 1, "field": "GF(2^1)/11", '
                 '"X": ' + "[" * 5000 + "]" * 5000 + "}", [], id="deep_x.json"),
    # a JSON file gives its own kind and field; a flag may not contradict it
    pytest.param("type_clash.json", json.dumps({
        "kind": "sp", "n": 1, "field": "GF(2^1)/11", "X": "0 1 1 0"}),
        ["--type", "so-odd"], id="type_clash.json"),
    pytest.param("q_clash.json", json.dumps({
        "kind": "sp", "n": 1, "field": "GF(2^1)/11", "X": "0 1 1 0"}),
        ["--q", "4"], id="q_clash.json"),
])
def test_classify_malformed_input_is_one_line(capsys, tmp_path, name, text,
                                              extra):
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run(capsys, ["classify", "--matrix", str(path)] + extra)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert str(path) in err


def test_classify_so_even_decides_nilpotence_only(capsys, tmp_path):
    path = write_grid(tmp_path / "z.txt", la.zeros(4, 4))
    rc, out, _ = run(capsys, ["classify", "--matrix", path,
                              "--type", "so-even"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["nilpotent"] is True and doc["label"] is None


# ----------------------------------------------------------------------
# normal-form and centralizer


def test_normal_form_round_trips_through_classify(capsys, tmp_path):
    rc, out, _ = run(capsys, ["normal-form", "--type", "sp",
                              "--label", "(2)^2_1:0 (1)^2_1:0", "--q", "4"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 6
    grid = "\n".join(" ".join(row) for row in doc["functional"])
    path = tmp_path / "nf.txt"
    path.write_text(grid)
    rc, out, _ = run(capsys, ["classify", "--matrix", str(path),
                              "--type", "sp", "--q", "4"])
    assert rc == 0
    assert json.loads(out)["label"] == "(2)^2_1:0 (1)^2_1:0"


def test_normal_form_odd_witness_classifies_back(capsys, tmp_path):
    text = "m=2; (1)^2_1:0"
    rc, out, _ = run(capsys, ["normal-form", "--type", "so-odd",
                              "--label", text])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 7
    grid = "\n".join(" ".join(row) for row in doc["functional"])
    path = tmp_path / "nf.txt"
    path.write_text(grid)
    rc, out, _ = run(capsys, ["classify", "--matrix", str(path),
                              "--type", "so-odd"])
    assert rc == 0
    assert json.loads(out)["label"] == text


def test_normal_form_rejects_invalid_label(capsys):
    rc, _, _ = run(capsys, ["normal-form", "--type", "sp",
                            "--label", "(1)^2_1:d"])
    assert rc == 2
    rc, _, _ = run(capsys, ["normal-form", "--type", "so-odd",
                            "--label", "m=0; (2)^2_0:0"])
    assert rc == 2


@pytest.mark.parametrize("command,kind,label,code,extra", [
    ("normal-form", "so-odd", "m=0; -", 2, []),
    ("normal-form", "so-odd", "m=1; (2)^2_1:d", 2, []),
    ("centralizer", "so-odd", "m=1; (2)^2_1:d", 2, []),
    ("normal-form", "so-odd", "m=1; (1)^2_1", 2, []),
    ("normal-form", "sp", "", 2, []),
    ("centralizer", "sp", "", 2, []),
    ("normal-form", "sp", "(400)^2_200", 3, []),
    ("normal-form", "so-odd", "m=300; -", 3, []),
    # "d" off the splitting positions: the label is not canonical
    ("normal-form", "so-odd", "m=0;" + " (1)^2_1:d" * 9, 2, ["--q", "4"]),
    ("normal-form", "so-odd", "m=0; (2)^2_2:d", 2, []),
    ("centralizer", "so-odd", "m=0; (2)^2_2:d", 2, []),
    ("normal-form", "sp", "(2)^2_1:d (2)^2_1:0", 2, []),
    ("centralizer", "sp", "(2)^2_1:d (2)^2_1:0", 2, []),
    # ranks above the listing cap: 4^7260 and 4^(10^12) are never formed
    pytest.param("centralizer", "sp", " ".join(["(1)^2_0"] * 60), 3,
                 ["--format", "table"], id="centralizer-sp-60-blocks-table"),
    ("centralizer", "so-odd", "m=1000000000000; -", 3, []),
    ("centralizer", "so-odd", "m=13; -", 3, []),
])
def test_unservable_label_is_one_line(capsys, command, kind, label, code,
                                      extra):
    rc, out, err = run(capsys, [command, "--type", kind, "--label", label]
                       + extra)
    assert rc == code and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["centralizer", "--type", "sp", "--label=--"],
    ["normal-form", "--type", "so-odd", "--label=--"],
    ["classify", "--matrix=--"],
    ["orbits", "--type", "sp", "--n=--"],
    ["orbits", "--type", "sp", "--n", "2", "--q=--"],
    ["verify", "--max-n=--"],
])
def test_option_value_dashes_exit_2(capsys, argv):
    # argparse hands "--opt=--" over as an empty list, not as text
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["centralizer", "normal-form"])
@pytest.mark.parametrize("kind,label", [
    ("so-odd", "m=1_0; -"),
    ("so-odd", "m=+2; -"),
    ("so-odd", "m=\uff12; -"),
    ("sp", "(\u0662)^2_\u0661:d"),
])
def test_label_numbers_other_than_ascii_digits_exit_2(capsys, command, kind,
                                                      label):
    rc, out, err = run(capsys, [command, "--type", kind, "--label", label])
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1


def test_classify_zero_functional_of_sp20(capsys, tmp_path):
    # T = 0 makes every vector a search candidate; the Arf invariants need
    # no search, so the zero functional labels at any rank
    path = write_grid(tmp_path / "z20.txt", la.zeros(20, 20))
    rc, out, _ = run(capsys, ["classify", "--matrix", path, "--type", "sp"])
    assert rc == 0
    assert json.loads(out)["label"] == " ".join(["(1)^2_0:0"] * 10)


@pytest.mark.parametrize("name,kind", [("sp26.txt", "sp"), ("so27.txt", "so-odd"),
                                       ("sp26.json", "sp"), ("so27.json", "so-odd")])
def test_classify_rank_cap(capsys, tmp_path, monkeypatch, name, kind):
    # rank 13 is one past LIST_CAP: exit 3 before any space is built
    def no_space(*args, **kwargs):
        raise AssertionError("a space was built")

    monkeypatch.setattr(cl, "Space", no_space)
    d = 27 if kind == "so-odd" else 26
    path = tmp_path / name
    if name.endswith(".json"):
        path.write_text(json.dumps({"kind": kind, "n": 13,
                                    "field": "GF(2^1)/11",
                                    "X": " ".join(["0"] * d * d)}))
        extra = []
    else:
        write_grid(path, la.zeros(d, d))
        extra = ["--type", kind]
    rc, out, err = run(capsys, ["classify", "--matrix", str(path)] + extra)
    assert (rc, out) == (3, "")
    assert err == f"classify stops at rank {cli.LIST_CAP}; " \
                  f"the matrix file gives n = 13\n"


def test_closed_stdout_ends_quietly():
    # the table is larger than the pipe buffer, so the writer meets the
    # closed pipe and must end with 128 + SIGPIPE and nothing on stderr
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen([sys.executable, "-m", "char2orbits.cli", "orbits",
                           "--type", "sp", "--n", "12"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as p:
        assert p.stdout.readline()
        p.stdout.close()
        err = p.stderr.read()
        assert p.wait(timeout=60) == 141
    assert err == b""


def _command_script(argvs, numpy_absent):
    """Python source running cli.main on each (argv, exit code) pair, and
    asserting numpy stays unimported (or, when absent, is never needed)."""
    lines = ["import contextlib, io, sys"]
    if numpy_absent:
        lines.append("sys.modules['numpy'] = None")
    else:
        lines += ["import char2orbits",
                  "assert 'numpy' not in sys.modules, 'import char2orbits'"]
    lines += [
        "from char2orbits import cli",
        f"for argv, code in {argvs!r}:",
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        "        got = cli.main(argv)",
        "    assert got == code, (argv, got, err.getvalue())",
    ]
    if not numpy_absent:
        lines.append("    assert 'numpy' not in sys.modules, argv")
    return "\n".join(lines)


def _numpy_free_commands(tmp_path):
    """orbits (sp, so-odd), centralizer, normal-form and classify, with the
    exit code each must give: none of them needs numpy."""
    argvs = [(["orbits", "--type", kind, "--n", "3", "--q", q], 0)
             for kind in ("sp", "so-odd") for q in ("closed", "2")]
    argvs += [(["centralizer", "--type", "sp", "--label", "(2)^2_1:d"], 0),
              (["centralizer", "--type", "so-odd", "--label", "m=1; (1)^2_1:d"], 0)]
    for kind, label in (("sp", "(2)^2_1:d (1)^2_0:0"), ("so-odd", "m=1; (1)^2_1:d")):
        for q, fmt in (("2", "json"), ("4", "table")):
            argvs.append((["normal-form", "--type", kind, "--label", label,
                           "--q", q, "--format", fmt], 0))
    F4 = field_for(2)
    sp_label = (cb.BlockLabel(2, 1, "d"), cb.BlockLabel(1, 0, "0"))
    inputs = {
        "sp": (space_for("sp", 3, 2), fm.build_normal_form(sp_label, F4)[1]),
        "so-odd": od.odd_witness(cb.parse_label("m=1; (1)^2_1:d"), F4),
        "so-even": (space_for("so-even", 2, 2), la.zeros(4, 4)),
    }
    for kind, (space, X) in inputs.items():
        grid = write_grid(tmp_path / f"{kind}.txt", X)
        doc = tmp_path / f"{kind}.json"
        doc.write_text(json.dumps(cl.dual_to_json(space, X)))
        argvs.append((["classify", "--matrix", grid, "--type", kind, "--q", "4"], 0))
        argvs.append((["classify", "--matrix", str(doc)], 0))
    X = [[0, 0, 0, 0], [1, 1, 1, 0], [0, 0, 1, 0], [1, 0, 1, 1]]
    argvs.append((["classify", "--matrix", write_grid(tmp_path / "n.txt", X),
                   "--type", "sp"], 4))
    # the three malformed inputs of the benchmark's session
    for name, text, extra in (
            ("bad_hex.txt", "0 1 0 0\n1 0 0 0\n0 0 0 z\n0 0 1 0\n", ["--type", "sp"]),
            ("no_x.json", json.dumps({"kind": "sp", "n": 1,
                                      "field": "GF(2^1)/11"}), []),
            ("gf512.json", json.dumps({"kind": "sp", "n": 1,
                                       "field": "GF(2^9)/1000010001",
                                       "X": "0 1 1 0"}), [])):
        (tmp_path / name).write_text(text)
        argvs.append((["classify", "--matrix", str(tmp_path / name)] + extra, 2))
    # a so-even table past the census's reach is refused before numpy loads
    argvs.append((["orbits", "--type", "so-even", "--n", "12", "--q", "2"], 3))
    return argvs


def test_label_commands_leave_numpy_unimported(tmp_path):
    # the label commands read and print labels, and the matrix commands
    # run on the plain-Python matrix layers: none may pull in numpy
    script = _command_script(_numpy_free_commands(tmp_path), numpy_absent=False)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr


def test_commands_run_with_numpy_absent(tmp_path):
    # with numpy made unimportable, the same commands still succeed
    script = _command_script(_numpy_free_commands(tmp_path), numpy_absent=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    # and the commands that do need numpy say so instead of passing
    script = _command_script([(["verify", "--suite", "combinatorics"], 0)],
                             numpy_absent=True)
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode != 0 and "numpy" in p.stderr


def test_centralizer_reports_match_library(capsys):
    rc, out, _ = run(capsys, ["centralizer", "--type", "sp",
                              "--label", "(2)^2_1:0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim_z"] == 4
    assert doc["dim_orbit"] == 6
    comp = 2 ** doc["comp_rank"]
    assert doc["points_leading_q4"] * comp == doc["points_leading_q2"] ** 2


def test_centralizer_odd_label(capsys):
    rc, out, _ = run(capsys, ["centralizer", "--type", "so-odd",
                              "--label", "m=1; -", "--format", "table"])
    assert rc == 0
    assert "dim_orbit: 2" in out


# ----------------------------------------------------------------------
# verify


def test_verify_combinatorics_passes(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "combinatorics"])
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_verify_json_is_machine_readable(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "combinatorics",
                              "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    for check in doc["checks"]:
        assert check["suite"] == "combinatorics"
        assert isinstance(check["seconds"], float)


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_rejects_a_rank_cap_below_one(capsys, max_n):
    rc, out, err = run(capsys, ["verify", "--suite", "combinatorics",
                                "--max-n", max_n])
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1


def test_verify_centralizers_carries_the_known_failure(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "centralizers",
                              "--max-n", "1", "--format", "json"])
    assert rc == 1
    failed = [c["name"] for c in json.loads(out)["checks"]
              if not c["passed"]]
    assert failed == ["chain-c-claimed"]
