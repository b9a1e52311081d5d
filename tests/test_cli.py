import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from char2orbits import classical as cl
from char2orbits import cli
from char2orbits import combinatorics as cb
from char2orbits import form_modules as fm
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
    rc, _, err = run(capsys, ["orbits", "--type", "so-even", "--n", "3",
                              "--q", "2"])
    assert rc == 3
    assert "n = 2" in err
    for n, q in [("2", "4"), ("12", "2")]:
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


def test_classify_zero_matrix(capsys, tmp_path):
    path = write_grid(tmp_path / "z.txt", np.zeros((4, 4), dtype=np.uint8))
    rc, out, _ = run(capsys, ["classify", "--matrix", path, "--type", "sp"])
    assert rc == 0
    assert json.loads(out)["label"] == "(1)^2_0:0 (1)^2_0:0"


def test_classify_non_nilpotent_reports_and_exits_4(capsys, tmp_path):
    X = np.array([[0, 0, 0, 0],
                  [1, 1, 1, 0],
                  [0, 0, 1, 0],
                  [1, 0, 1, 1]], dtype=np.uint8)
    assert not cl.is_nilpotent_functional(space_for("sp", 2, 1), X)
    path = write_grid(tmp_path / "n.txt", X)
    rc, out, _ = run(capsys, ["classify", "--matrix", path, "--type", "sp"])
    assert rc == 4
    assert json.loads(out)["nilpotent"] is False


def test_classify_plain_grid_needs_type(capsys, tmp_path):
    path = write_grid(tmp_path / "z.txt", np.zeros((4, 4), dtype=np.uint8))
    rc, _, err = run(capsys, ["classify", "--matrix", path])
    assert rc == 2
    assert "--type" in err


def test_classify_dimension_parity_mismatch(capsys, tmp_path):
    path = write_grid(tmp_path / "z.txt", np.zeros((4, 4), dtype=np.uint8))
    rc, _, _ = run(capsys, ["classify", "--matrix", path, "--type", "so-odd"])
    assert rc == 2


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
    path = write_grid(tmp_path / "z.txt", np.zeros((4, 4), dtype=np.uint8))
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


def test_classify_zero_functional_of_sp20(capsys, tmp_path):
    # T = 0 makes every vector a search candidate; the Arf invariants need
    # no search, so the zero functional labels at any rank
    path = write_grid(tmp_path / "z20.txt", np.zeros((20, 20), dtype=np.uint8))
    rc, out, _ = run(capsys, ["classify", "--matrix", path, "--type", "sp"])
    assert rc == 0
    assert json.loads(out)["label"] == " ".join(["(1)^2_0:0"] * 10)


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


def test_label_commands_leave_numpy_unimported():
    # orbits (sp, so-odd) and centralizer read and print labels only, so
    # neither they nor the package import may pull in numpy
    argvs = [["orbits", "--type", kind, "--n", "3", "--q", q]
             for kind in ("sp", "so-odd") for q in ("closed", "2")]
    argvs += [["centralizer", "--type", "sp", "--label", "(2)^2_1:d"],
              ["centralizer", "--type", "so-odd", "--label", "m=1; (1)^2_1:d"]]
    script = "\n".join([
        "import contextlib, io, sys",
        "import char2orbits",
        "assert 'numpy' not in sys.modules, 'import char2orbits'",
        "from char2orbits import cli",
        f"for argv in {argvs!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0, argv",
        "    assert 'numpy' not in sys.modules, argv",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr


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
