import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcoset
from dcoset.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_member_true(capsys):
    code, out, _ = run(capsys, "member", "--ring", "x,y", "--ideal", "x,1-x", "--poly", "1")
    assert code == 0
    assert out.strip() == "true"


def test_member_false(capsys):
    code, out, _ = run(capsys, "member", "--ring", "x,y", "--ideal", "x", "--poly", "y")
    assert code == 1
    assert out.strip() == "false"


def test_radmember(capsys):
    code, out, _ = run(capsys, "radmember", "--ring", "x", "--ideal", "x^2", "--poly", "x")
    assert code == 0
    assert out.strip() == "true"


def test_gb_lex(capsys):
    code, out, _ = run(
        capsys, "gb", "--ring", "x,y", "--order", "lex", "--ideal", "x^2+y^2, x^2-y^2"
    )
    assert code == 0
    assert out.splitlines() == ["x^2", "y^2"]


def test_eliminate(capsys):
    code, out, _ = run(
        capsys, "eliminate", "--ring", "x,y", "--ideal", "x^2+y^2-1, x-y", "--drop", "x"
    )
    assert code == 0
    assert out.strip() == "y^2 - 1/2"


def test_eliminate_keeps_the_chosen_order(capsys):
    # the kept ring has the order given on the command line, so the printed
    # basis is already the reduced lex basis of the eliminated ideal
    code, out, _ = run(
        capsys, "eliminate", "--ring", "x,y,z,t", "--order", "lex",
        "--drop", "t", "--ideal", "x - t, y - t^2, z - t^3",
    )
    assert code == 0
    basis = out.splitlines()
    assert len(basis) == 4
    code, again, _ = run(capsys, "gb", "--ring", "x,y,z", "--order", "lex", "--ideal", ", ".join(basis))
    assert code == 0
    assert again == out


def test_saturate(capsys):
    code, out, _ = run(capsys, "saturate", "--ring", "x,y", "--ideal", "x*y", "--by", "x")
    assert code == 0
    assert out.strip() == "y"


def test_image_closure(capsys):
    code, out, _ = run(
        capsys, "image", "--ring", "t", "--target", "x,y", "--map", "t, t^2"
    )
    assert code == 0
    assert out.strip() == "x^2 - y"


def test_fiber_empty_exit_1(capsys):
    code, out, _ = run(
        capsys,
        "fiber",
        "--ring", "a11,a12,a21,a22",
        "--target", "b1,b2,d",
        "--map", "a21, a22, a11*a22 - a12*a21",
        "--point", "0,0,1",
    )
    assert code == 1
    assert out.strip() == "empty"


def test_fiber_nonempty(capsys):
    code, out, _ = run(
        capsys,
        "fiber",
        "--ring", "a11,a12,a21,a22",
        "--target", "b1,b2,d",
        "--map", "a21, a22, a11*a22 - a12*a21",
        "--point", "1,0,5",
    )
    assert code == 0
    assert out.strip() == "nonempty"


def test_orbit_builtin(capsys):
    code, out, _ = run(
        capsys, "orbit", "--action", "shear-mat2", "--point", "0,0,1,0"
    )
    assert code == 0
    assert set(out.splitlines()) == {"a22", "a21 - 1", "a12"}


def test_orbit_builtin_scaling(capsys):
    code, out, _ = run(
        capsys, "orbit", "--action", "scale-mat2", "--point", "1,2,3,4"
    )
    assert code == 0
    assert set(out.splitlines()) == {"m11 - 1/4*m22", "m12 - 1/2*m22", "m21 - 3/4*m22"}


def test_orbit_same_as(capsys):
    code, out, _ = run(
        capsys,
        "orbit",
        "--action", "isotropic-shear",
        "--point", "1,1,-1,1",
        "--same-as", "0,1,0,1",
    )
    assert code == 0
    assert out.strip() == "same-orbit"


def test_orbit_custom_action(capsys):
    code, out, _ = run(
        capsys,
        "orbit",
        "--space", "m1,m2",
        "--params", "s,u",
        "--act", "s*m1, s*m2",
        "--constraint", "s*u - 1",
        "--identity", "1,1",
        "--point", "2,3",
    )
    assert code == 0
    assert out.strip() == "m1 - 2/3*m2"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "example1")
    assert code == 0
    assert out.startswith("scenario: example1")
    assert out.rstrip().endswith("verdict: pass")


def test_verify_mutant_fails(capsys):
    code, out, _ = run(capsys, "verify", "example3-mutated")
    assert code == 1
    assert "verdict: fail" in out


def test_verify_unknown_exit_2(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown scenario" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "background", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "background"
    assert payload["verdict"] == "pass"


def test_verify_all_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--all", "--json")
    code2, out2, _ = run(capsys, "verify", "--all", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert [r["scenario"] for r in payload] == [
        "background",
        "example1",
        "example2",
        "example3",
    ]


def test_oracle_agreement_message(capsys):
    code, out, _ = run(capsys, "oracle", "example1", "--prime", "3")
    assert code == 0
    assert "27/27 points agree" in out


def test_oracle_primes_list(capsys):
    code, out, _ = run(capsys, "oracle", "example1", "--primes", "3,5")
    assert code == 0
    assert "image-agreement-p3" in out
    assert "image-agreement-p5" in out


def test_oracle_skipped_shadow_is_not_a_pass(capsys):
    # example2's shadow is declared for p = 3 only
    code, out, _ = run(capsys, "oracle", "example2", "--prime", "5")
    assert code == 1
    assert "[skip] projection-agreement-p5" in out
    assert out.rstrip().endswith("verdict: skip")


def test_oracle_skip_beside_a_pass_passes(capsys):
    code, out, _ = run(capsys, "oracle", "example2", "--primes", "3,5")
    assert code == 0
    assert "[pass] projection-agreement-p3" in out
    assert "[skip] projection-agreement-p5" in out
    assert out.rstrip().endswith("verdict: pass")


def test_oracle_mutant_fails(capsys):
    code, out, _ = run(capsys, "oracle", "example1-mutated", "--prime", "3")
    assert code == 1
    assert "first mismatch at (0, 0, 1)" in out


def test_oracle_bad_prime_exit_2(capsys):
    code, _, err = run(capsys, "oracle", "example1", "--prime", "4")
    assert code == 2
    assert "prime" in err


def test_oracle_refuses_unbounded_work(capsys):
    # background's census at p = 101 is 101^5 ~ 1e10 action evaluations;
    # the estimate comes from arities, so the refusal is immediate
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "background", "--prime", "101")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: oracle needs about 1.1e+10 point evaluations")
    # a shadow declared only for p = 3 is skipped, not estimated, at p = 101
    code, out, _ = run(capsys, "oracle", "example2", "--prime", "101")
    assert code == 1
    assert out.rstrip().endswith("verdict: skip")


def test_oracle_refuses_a_large_prime_before_testing_primality(capsys):
    # trial division up to sqrt(p) would run for minutes at p ~ 1e18
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "background", "--prime", "1000000000000000003")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: oracle needs about 1.0e+90 point evaluations")


def test_huge_exponent_is_refused_at_parse_time(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "gb", "--ring", "x", "--ideal", "x^100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: exponent 100000000 at position 3 exceeds the limit of 255\n"


def test_exponent_cap_holds_across_a_product(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "radmember", "--ring", "x,y",
        "--ideal", "x^255*x^255*x^255*x^255 - y", "--poly", "x - 1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: exponent 510 at position 9 exceeds the limit of 255\n"


def test_term_degree_cap_holds_across_variables(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "radmember", "--ring", "x,y", "--ideal", "x^255*y^255 - 1", "--poly", "x*y - 1",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err == "error: term degree 510 at position 9 exceeds the limit of 255\n"


@pytest.mark.parametrize(
    "ideal, message",
    [
        ("x^" + "9" * 5000, "exponent " + "9" * 5000 + " at position 3 exceeds the limit of 255"),
        ("9" * 5000 + "*x", "integer with 5000 digits at position 1 exceeds the limit of 4300 digits"),
        ("x - 1/" + "7" * 5000, "integer with 5000 digits at position 7 exceeds the limit of 4300 digits"),
    ],
    ids=["exponent", "coefficient", "denominator"],
)
def test_overlong_integer_literal_exit_2(capsys, ideal, message):
    code, out, err = run(capsys, "gb", "--ring", "x", "--ideal", ideal)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "example1:" in out
    assert "invariants-constant-on-orbits" in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    payload = json.loads(out)
    names = {entry["name"] for entry in payload}
    assert "example3-mutated" in names


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "gb", "--ring", "x", "--ideal", "x^-1")
    assert code == 2
    assert "negative exponent" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["image", "--ring", "x,y", "--target", "x", "--map", "x"],
        ["orbit", "--space", "x,y", "--params", "a", "--act", "x+a*y, y",
         "--identity", "zz", "--point", "1,2"],
        ["orbit", "--space", "x,y", "--params", "a", "--act", "x+a*y,y",
         "--identity", "1/0", "--point", "1,2"],
        ["oracle", "background", "--primes", ","],
        ["oracle", "background", "--primes", "5,5"],
        ["orbit", "--action", "shear-mat2", "--point", "1e100000,0,0,0"],
        ["orbit", "--action", "shear-mat2", "--point", "1e10000000,0,0,0"],
        ["gb", "--ring", "x", "--ideal", "x^\u00b2"],
        ["gb", "--ring", "x", "--ideal", "x^\u0663"],
    ],
)
def test_library_value_error_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_console_script_end_to_end():
    # run the same checkout this process imported, installed or not
    src = str(Path(dcoset.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dcoset.cli", "member", "--ring", "x,y",
         "--ideal", "x,1-x", "--poly", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


@pytest.mark.skipif(sys.platform != "linux", reason="sizes the pipe with F_SETPIPE_SZ")
def test_console_script_dies_quietly_when_its_pipe_closes():
    """`dcoset catalog --json | head -1`: the installed script closes on the
    broken pipe without a BrokenPipeError traceback."""
    import fcntl

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["dcoset"]
    module, func = target.split(":")
    src = str(Path(dcoset.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "catalog", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    # a one-page pipe holds far less than the ~23 kB report, so the script is
    # still writing when its reader goes away
    fcntl.fcntl(proc.stdout, fcntl.F_SETPIPE_SZ, 4096)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert "Traceback" not in err


# small polynomial-ish texts; exponents are capped at one digit, since
# unbounded exponents are a separate, known limit of the parser
_TEXT = st.text(alphabet="xy01/+-*^, ", max_size=8).map(
    lambda t: re.sub(r"\^(\s*)\d+", lambda m: "^" + m.group(1) + m.group(0)[-1], t)
)
# prime lists stay at p <= 3 so that every oracle run is quick
_PRIMES = st.lists(st.sampled_from(["", " ", "0", "2", "3", "x"]), max_size=3).map(",".join)


# one argv template per verb; A, B and C are filled with drawn texts
_MAP = ["--ring", "x,y", "--target", "u,v", "--map", "A", "--carrier", "B"]
_ARGV = {
    "gb": ["gb", "--ring", "x,y", "--ideal", "A"],
    "member": ["member", "--ring", "x,y", "--ideal", "A", "--poly", "B"],
    "radmember": ["radmember", "--ring", "x,y", "--ideal", "A", "--poly", "B"],
    "saturate": ["saturate", "--ring", "x,y", "--ideal", "A", "--by", "B"],
    "eliminate": ["eliminate", "--ring", "x,y", "--ideal", "A", "--drop", "B"],
    "image": ["image", *_MAP, "--excluded", "C"],
    "fiber": ["fiber", *_MAP, "--point", "C"],
    "orbit": ["orbit", "--space", "x,y", "--params", "a", "--act", "x+a*y,y",
              "--identity", "A", "--point", "B", "--same-as", "C"],
    "orbit-builtin": ["orbit", "--action", "scale-mat2", "--point", "A"],
    "oracle": ["oracle", "background", "--primes", "A"],
}


@pytest.mark.parametrize("verb", sorted(_ARGV))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_exit_contract_on_any_argv(verb, data):
    fill = {
        "A": data.draw(_PRIMES if verb == "oracle" else _TEXT),
        "B": data.draw(_TEXT),
        "C": data.draw(_TEXT),
    }
    argv = [fill.get(tok, tok) for tok in _ARGV[verb]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv list
            code = exc.code
    assert code in (0, 1, 2)
