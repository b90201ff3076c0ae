"""Golden CLI transcripts: every case replays ``cli.main(argv)`` and must
reproduce the recorded stdout, stderr and exit code byte for byte.

Rewrite the transcript file after an intended output change with::

    PYTHONPATH=src python tests/test_transcripts.py
"""

import functools
import json
from pathlib import Path

import pytest

from dcoset.cli import main

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.json")

_SCENARIOS = (
    "background",
    "example1",
    "example2",
    "example3",
    "background-mutated",
    "example1-mutated",
    "example2-mutated",
    "example3-mutated",
)

CASES = (
    *(["verify", name, "--json"] for name in _SCENARIOS),
    ["verify", "--all"],
    ["catalog"],
    ["catalog", "--json"],
    ["oracle", "background", "--primes", "3,5"],
    ["oracle", "example1", "--primes", "3,5", "--json"],
    ["oracle", "example3", "--prime", "3"],
    ["oracle", "example2", "--prime", "3"],
    ["oracle", "example2", "--prime", "5"],
    ["oracle", "example1-mutated", "--prime", "3"],
    ["oracle", "background", "--prime", "101"],
    ["oracle", "background", "--prime", "4"],
    # larger primes, and the mismatch witness beyond p = 3
    ["oracle", "background", "--primes", "7,11"],
    ["oracle", "example1", "--prime", "11", "--json"],
    ["oracle", "example3", "--prime", "13"],
    ["oracle", "example1-mutated", "--primes", "7,11"],
    ["orbit", "--action", "shear-mat2", "--point", "1,2,0,1"],
    ["orbit", "--action", "scale-mat2", "--point", "1,0,0,1"],
    ["orbit", "--action", "isotropic-shear", "--point", "1,0,1,0"],
    ["orbit", "--action", "shear-mat2", "--point", "1,2,0,1", "--same-as", "1,5,0,1"],
    ["gb", "--ring", "x,y", "--order", "lex", "--ideal", "x^2 + y^2 - 1, x - y"],
    ["eliminate", "--ring", "x,y,t", "--drop", "t", "--ideal", "x - t^2, y - t^3"],
    ["member", "--ring", "x,y", "--ideal", "x^2, y", "--poly", "x^2 + 3*y"],
    ["radmember", "--ring", "x,y", "--ideal", "x^3, y^2", "--poly", "x + y"],
    ["saturate", "--ring", "x,y,z", "--ideal", "x*y, x*z^2", "--by", "x"],
    ["image", "--ring", "s,t", "--target", "x,y,z", "--map", "s, s*t, t"],
    [
        "fiber",
        "--ring", "a11,a12,a21,a22",
        "--target", "b1,b2,d",
        "--map", "a21, a22, a11*a22 - a12*a21",
        "--point", "0,0,1",
    ],
    # rings in lex order, the default being grevlex
    ["saturate", "--ring", "x,y,z", "--order", "lex", "--ideal", "x*y - z^2, x*z - y", "--by", "z"],
    ["image", "--ring", "t", "--target", "x,y,z", "--order", "lex", "--map", "t, t^2, t^3"],
    ["fiber", "--ring", "s,t", "--target", "x,y,z", "--order", "lex", "--map", "s, s*t, t", "--point", "2,6,3"],
    ["member", "--ring", "x,y", "--order", "lex", "--ideal", "x^2 + y^2 - 1, x - y", "--poly", "2*y^2 - 1"],
    ["radmember", "--ring", "x,y", "--order", "lex", "--ideal", "x^3, y^2 - x", "--poly", "y"],
    ["eliminate", "--ring", "x,y,z,t", "--order", "lex", "--drop", "t", "--ideal", "x - t, y - t^2, z - t^3"],
    ["gb", "--ring", ",", "--ideal", "x"],
    ["eliminate", "--ring", "x,y", "--ideal", "x - y", "--drop", "x,y"],
    ["orbit", "--space", "x", "--params", "t", "--act", "x, t", "--identity", "1", "--point", "1"],
    ["verify"],
)


def _transcript(argv, code, out, err):
    return {"argv": list(argv), "code": code, "out": out, "err": err}


@functools.cache
def _recorded():
    return {tuple(t["argv"]): t for t in json.loads(TRANSCRIPTS.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_transcript_replays(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert _transcript(argv, code, out.out, out.err) == _recorded()[tuple(argv)]


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(tuple(a) for a in CASES)


if __name__ == "__main__":
    import contextlib
    import io

    records = []
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        records.append(_transcript(argv, code, out.getvalue(), err.getvalue()))
    TRANSCRIPTS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} transcripts to {TRANSCRIPTS.name}")
