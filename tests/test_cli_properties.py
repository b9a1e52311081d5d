"""Property tests of the label commands' exit-code contract."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
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
