"""Property tests of the exit-code contract: label text for centralizer
and normal-form, matrix files (grid, JSON, field header) for classify."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from char2orbits import cli  # noqa: E402

ALPHABET = "()^_:0d0123456789m=; -"


def _blocks(tails):
    "Block text, sizes and levels weakly decreasing, levels near their range."
    block = st.integers(1, 4).flatmap(lambda m: st.builds(
        "({})^2_{}{}".format, st.just(m), st.integers(m // 2, m),
        st.sampled_from(tails)))
    return st.lists(block, min_size=1, max_size=4).map(
        lambda bs: " ".join(sorted(bs, reverse=True)))


# label-shaped text reaches the valid labels that raw text almost never hits
_SHAPED = st.sampled_from([[""], [":0"], [":0", ":d"]]).flatmap(_blocks)
_ODD = st.builds("m={}; {}".format, st.integers(0, 4),
                 st.one_of(st.just("-"), _SHAPED))
LABEL_TEXT = st.one_of(st.text(alphabet=ALPHABET, max_size=40), _SHAPED, _ODD)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["centralizer", "normal-form"]),
       kind=st.sampled_from(["sp", "so-odd"]),
       fmt=st.sampled_from(["json", "table"]),
       text=LABEL_TEXT)
@example(command="centralizer", kind="sp", fmt="table",
         text=" ".join(["(1)^2_0"] * 60))
@example(command="centralizer", kind="so-odd", fmt="json", text="--")
def test_label_text_keeps_the_exit_contract(command, kind, fmt, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--type", kind, f"--label={text}",
                         "--format", fmt])
    assert code in (0, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1 and out.getvalue() == ""
    else:
        assert err.getvalue() == "" and out.getvalue()


# ----------------------------------------------------------------------
# classify: matrix grids, JSON documents, field headers

# hex entries of GF(2) and GF(4), then tokens int(s, 16) alone would take
TOKENS = ["0", "1", "2", "3", "a", "F", "0x1", "+1", "1_0", "10", "z", ""]
HEADERS = ["GF(2^1)/11", "GF(2^2)/111", "GF(2^3)/1011", "GF(2^2)/101",
           "GF(2^9)/1000010001", "GF(2^0)/1", "GF(3^1)/11", "gf(2^1)/11"]
HEADER = st.one_of(st.sampled_from(HEADERS),
                   st.text(alphabet="GF(2^)/01 9x", max_size=14))


def _grid(rows):
    return "\n".join(" ".join(r) for r in rows) + "\n"


# square grids of GF(2) digits, mostly zeros, reach classification
SQUARE = st.integers(0, 5).flatmap(lambda d: st.lists(
    st.lists(st.sampled_from(["0", "0", "0", "1", "2"]), min_size=d,
             max_size=d), min_size=d, max_size=d))
RAGGED = st.lists(st.lists(st.sampled_from(TOKENS), max_size=5), max_size=5)
GRID = st.one_of(SQUARE, RAGGED).map(_grid)


# fields with their digits; sparse entries make nilpotent functionals likely
FIELDS = [("GF(2^1)/11", "01"), ("GF(2^2)/111", "0123")]
RANKS = st.one_of(st.integers(1, 2), st.sampled_from(
    [0, -1, 1.9, True, "2", None, 100000, 10 ** 30]))


@st.composite
def shaped_documents(draw):
    "JSON documents near the valid ones: each part is usually well formed."
    kind = draw(st.sampled_from(["sp", "so-odd", "so-even", "gl"]))
    n = draw(RANKS)
    header, digits = draw(st.one_of(
        st.sampled_from(FIELDS), st.tuples(HEADER, st.just("0123"))))
    d = 2 * n + (kind == "so-odd") if type(n) is int and 0 < n < 3 else 2
    count = draw(st.sampled_from([d * d, d * d, d - 1]))
    token = draw(st.sampled_from([st.sampled_from(["0"] * 6 + list(digits)),
                                  st.sampled_from(TOKENS)]))
    entries = draw(st.lists(token, min_size=count, max_size=count))
    return json.dumps({"kind": kind, "n": n, "field": header,
                       "X": " ".join(entries)})


RAW_DOC = st.dictionaries(st.sampled_from(["kind", "n", "field", "X"]),
                          st.one_of(st.integers(-2, 3), st.text(max_size=8),
                                    st.none(), st.lists(st.integers(0, 1),
                                                        max_size=3))
                          ).map(json.dumps)
DOCUMENT = st.one_of(shaped_documents(), RAW_DOC, st.text(alphabet="{}[]\":,0 ",
                                                  max_size=12))


def _classify(path, text, extra):
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", "--matrix", str(path)] + extra)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.splitlines()) == 1
    else:
        assert err == ""
    if code in (2, 3):
        assert out == ""
    else:
        assert json.loads(out)["nilpotent"] is (code == 0)


@settings(max_examples=200, deadline=None)
@given(text=GRID, kind=st.sampled_from(["sp", "so-odd", "so-even", None]),
       q=st.sampled_from(["2", "4"]))
@example(text="0 1 0 0\n1 0 0 0\n0 0 0 z\n0 0 1 0\n", kind="sp", q="2")
def test_matrix_grids_keep_the_exit_contract(tmp_path_factory, text, kind, q):
    path = tmp_path_factory.mktemp("grid") / "m.txt"
    extra = ["--q", q] + (["--type", kind] if kind else [])
    _assert_contract(*_classify(path, text, extra))


@settings(max_examples=300, deadline=None)
@given(text=DOCUMENT, q=st.sampled_from(["2", "4"]))
@example(text=json.dumps({"kind": "sp", "n": 100000, "field": "GF(2^1)/11",
                          "X": "0"}), q="2")
@example(text=json.dumps({"kind": "sp", "n": 1, "field": "GF(2^1)/11"}),
         q="2")
@example(text=json.dumps({"kind": "sp", "n": 1, "field": "GF(2^9)/1000010001",
                          "X": "0 1 1 0"}), q="2")
def test_json_documents_keep_the_exit_contract(tmp_path_factory, text, q):
    path = tmp_path_factory.mktemp("doc") / "m.json"
    _assert_contract(*_classify(path, text, ["--q", q]))
