"""Fuzzed input contract of the command line.

Random bytes and mutated fixture problem files go through `cli.main`
for all five commands, in text and with --json.  Every run must end in
an exit code 0-3, with exactly one JSON document on stdout under
--json; no exception may escape.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor.cli import COMMANDS, main

FIXTURES = [p.read_bytes() for p in sorted((pathlib.Path(__file__).parent / "problems")
                                           .glob("*.ini"))]

# fragments a mutation may splice in: grammar tokens, section and key
# shapes, numbers near the caps, non-ASCII digits and bytes that are
# not UTF-8
FRAGMENTS = [b"x1", b"x2", b"u1", b"u2", b"^", b"^-", b"/", b"/0", b"(", b")", b"*", b"-",
             b".", b",", b"=", b"\"", b"\n", b"[", b"]", b"exp(", b"log(", b"sqrt(",
             b"sin(", b"0", b"9", b"99", b"10000", b"[operator]\n", b"[Q1]\n", b"[Q2]\n",
             b"[solve]\n", b"g[2,1] = ", b"b[0,1] = ", b"kind = ", b"m = ", b"steps = ",
             b"interval = ", "²".encode(), "٣".encode(), b"\xff", b"\x00"]


@st.composite
def problem_bytes(draw):
    """Random bytes, random text, or a fixture under a few mutations."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.binary(max_size=120))
    if kind == 1:
        return draw(st.text(max_size=120)).encode("utf-8")
    data = bytearray(draw(st.sampled_from(FIXTURES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        op = draw(st.integers(0, 2))
        if op == 0:
            data[at:at + cut] = draw(st.sampled_from(FRAGMENTS))
        elif op == 1:
            del data[at:at + cut + 1]
        else:
            data[at:at] = bytes([draw(st.integers(0, 255))])
    return bytes(data)


@settings(max_examples=200, deadline=2000, derandomize=True)
@given(problem_bytes(), st.sampled_from(COMMANDS), st.booleans())
def test_every_input_ends_in_a_contract_exit(data, command, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        ini = pathlib.Path(tmp) / "fuzz.ini"
        ini.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        argv = [command, str(ini)] + (["--json"] if as_json else [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if as_json:
        doc = json.loads(out.getvalue())
        assert doc["schema"] == 1 and doc["command"] == command
