import io
import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest

import nabla_lmo
from nabla_lmo import matrices
from nabla_lmo.cli import main
from nabla_lmo.gaussian import strut_part_of_aarhus
from nabla_lmo.limits import MAX_LINK_LABELS, MAX_ORDER, MAX_TOR_DIGITS, MAX_WICK_PAIRS
from nabla_lmo.mmr import nu_wheels

TREFOIL_JSON = '{"matrix": [["-1", "1"], ["0", "-1"]], "name": "trefoil"}'
HOPF_SURGERY_JSON = (
    '{"labels": ["x", "a"], "surgery": ["x"], "matrix": [["1", "1"], ["1", "0"]]}'
)
FRACTIONAL_JSON = (
    '{"labels": ["x", "a"], "surgery": ["x"], "matrix": [["1/2", "1"], ["1", "0"]]}'
)
ZERO_DIAGONAL_JSON = (
    '{"labels": ["x","y","a"], "surgery": ["x","y"], '
    '"matrix": [["0","1","1"],["1","0","2"],["1","2","0"]]}'
)


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(TREFOIL_JSON)
    return str(path)


@pytest.fixture
def hopf_file(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(HOPF_SURGERY_JSON)
    return str(path)


def test_nabla_command(capsys, trefoil_file):
    rc, out, err = run(capsys, "nabla", "--seifert", trefoil_file)
    assert rc == 0
    assert out == "1 + z^2\nt^-1 - 1 + t\n"
    assert err == ""


@pytest.mark.parametrize(
    "seifert, expected",
    [
        # rational entries over three different denominators
        (
            '{"matrix": [["1/2", "1", "0", "1/3"], ["0", "-2/3", "1", "0"], '
            '["0", "0", "5/7", "1"], ["1/3", "0", "0", "-1"]]}',
            "1 - 335/126*z^2 - 8/189*z^4\n"
            "-8/189*t^-2 - 941/378*t^-1 + 382/63 - 941/378*t - 8/189*t^2\n",
        ),
        # a trefoil split from an unknot: nabla = 0
        (
            '{"matrix": [["-1", "1", "0"], ["0", "-1", "0"], ["0", "0", "0"]], "components": 2}',
            "0\n0\n",
        ),
    ],
    ids=["rational", "split_link"],
)
def test_nabla_command_frozen_output(capsys, tmp_path, seifert, expected):
    path = tmp_path / "seifert.json"
    path.write_text(seifert)
    assert run(capsys, "nabla", "--seifert", str(path)) == (0, expected, "")


def test_normalize_delta_command(capsys):
    rc, out, _ = run(capsys, "normalize-delta", "--delta", "t - 1 + t^-1", "--h1", "1")
    assert rc == 0
    assert out == "1 + z^2\nt^-1 - 1 + t\n"

    rc, out, _ = run(capsys, "normalize-delta", "--delta", "t + 1 + t^-1", "--h1", "3")
    assert rc == 0
    assert out == "1 + 1/3*z^2\n1/3*t^-1 + 1/3 + 1/3*t\n"


def test_surgery_command(capsys, tmp_path, hopf_file):
    rc, out, _ = run(capsys, "surgery", "--linking", hopf_file)
    assert rc == 0
    assert out == "labels: a\n-1\nsignature: (1, 0)\nh1_order: 1\n"

    # a surgery block with a zero diagonal: its signature needs a 2 x 2 step
    path = tmp_path / "zero_diagonal.json"
    path.write_text(ZERO_DIAGONAL_JSON)
    rc, out, _ = run(capsys, "surgery", "--linking", str(path))
    assert rc == 0
    assert out == "labels: a\n-4\nsignature: (1, 1)\nh1_order: 1\n"


def test_surgery_skips_h1_for_fractional_framing(capsys, tmp_path):
    path = tmp_path / "frac.json"
    path.write_text(FRACTIONAL_JSON)
    rc, out, _ = run(capsys, "surgery", "--linking", str(path))
    assert rc == 0
    assert out == "labels: a\n-2\nsignature: (1, 0)\n"


def test_aarhus_struts_routes(capsys, tmp_path, hopf_file):
    for route_args in ((), ("--route", "both"), ("--route", "wick"), ("--route", "schur")):
        rc, out, _ = run(capsys, "aarhus-struts", "--linking", hopf_file, *route_args)
        assert rc == 0
        assert out == "labels: a\n-1\n"


def test_aarhus_struts_refuses_fractional_framing_on_every_route(capsys, tmp_path):
    """The gluing route alone would integrate out a framing of 1/2; every
    route refuses it with the Schur route's error instead."""
    frac = tmp_path / "frac.json"
    frac.write_text(FRACTIONAL_JSON)
    for route in ("wick", "schur", "both"):
        assert run(capsys, "aarhus-struts", "--linking", str(frac), "--route", route) == (
            1,
            "",
            "error: surgery framings must be integers\n",
        )


def test_aarhus_struts_wick_limit(capsys, monkeypatch, tmp_path):
    """--route wick and both refuse more than MAX_WICK_PAIRS mixed linking
    pairs before either route runs; --route schur has no such limit."""
    k = isqrt(MAX_WICK_PAIRS)
    r = MAX_WICK_PAIRS // k
    assert k * r == MAX_WICK_PAIRS

    def link_file(residual):
        labels = [f"x{i}" for i in range(k)] + [f"a{i}" for i in range(residual)]
        n = len(labels)
        rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        rows[0][k] = rows[k][0] = "2"
        path = tmp_path / f"k{k}r{residual}.json"
        path.write_text(json.dumps({"labels": labels, "surgery": labels[:k], "matrix": rows}))
        return str(path)

    at_limit, past_limit = link_file(r), link_file(r + 1)
    calls = []

    def stub(m):
        calls.append(m)
        return strut_part_of_aarhus(m)

    def refuse(m):
        raise AssertionError("a route ran past the limit")

    monkeypatch.setattr("nabla_lmo.gaussian.gaussian_pair", stub)
    for route in ("wick", "both"):
        rc, out, err = run(capsys, "aarhus-struts", "--linking", at_limit, "--route", route)
        assert (rc, err) == (0, "")
        assert out.startswith("labels: a0 a1 ")
    assert len(calls) == 2

    monkeypatch.setattr("nabla_lmo.gaussian.gaussian_pair", refuse)
    with monkeypatch.context() as patch:
        patch.setattr("nabla_lmo.gaussian.strut_part_of_aarhus", refuse)
        for route in ("wick", "both"):
            assert run(capsys, "aarhus-struts", "--linking", past_limit, "--route", route) == (
                2,
                "",
                f"error: --route {route} takes k·r <= {MAX_WICK_PAIRS} mixed linking pairs, "
                f"got k·r = {k}·{r + 1} = {k * (r + 1)}\n",
            )
    rc, out, err = run(capsys, "aarhus-struts", "--linking", past_limit, "--route", "schur")
    assert (rc, err) == (0, "")
    assert out.splitlines()[1] == "-3" + " 0" * r


def test_aarhus_struts_wick_limit_counts_no_surgery_as_one(capsys, monkeypatch, tmp_path):
    """With no surgery component the Wick route still expands the residual
    struts, so k = 0 is held to the k = 1 bound on r."""
    monkeypatch.setattr("nabla_lmo.cli.MAX_WICK_PAIRS", 3)

    def link_file(k, r):
        labels = [f"x{i}" for i in range(k)] + [f"a{i}" for i in range(r)]
        rows = [["2" if i == j else "1" for j in labels] for i in labels]
        path = tmp_path / f"k{k}r{r}.json"
        path.write_text(json.dumps({"labels": labels, "surgery": labels[:k], "matrix": rows}))
        return str(path)

    for k in (0, 1):
        for route in ("wick", "both"):
            rc, out, err = run(capsys, "aarhus-struts", "--linking", link_file(k, 3), "--route", route)
            assert (rc, err) == (0, "")
            assert out.startswith("labels: a0 a1 a2\n")
    counted = {0: "0·4, counted as 1·4", 1: "1·4"}
    for k in (0, 1):
        for route in ("wick", "both"):
            assert run(capsys, "aarhus-struts", "--linking", link_file(k, 4), "--route", route) == (
                2,
                "",
                f"error: --route {route} takes k·r <= 3 mixed linking pairs, "
                f"got k·r = {counted[k]} = 4\n",
            )
        rc, _, err = run(capsys, "aarhus-struts", "--linking", link_file(k, 4), "--route", "schur")
        assert (rc, err) == (0, "")


LINK_COMMANDS = (
    ("surgery",),
    ("aarhus-struts", "--route", "schur"),
    ("aarhus-struts", "--route", "wick"),
    ("aarhus-struts", "--route", "both"),
)


def label_limit_file(tmp_path, n):
    """A linking file of n labels, the first one surgered: 2 on the
    diagonal and 1 elsewhere."""
    labels = [f"x{i}" for i in range(n)]
    rows = [["2" if i == j else "1" for j in labels] for i in labels]
    path = tmp_path / f"n{n}.json"
    path.write_text(json.dumps({"labels": labels, "surgery": labels[:1], "matrix": rows}))
    return str(path)


def test_linking_label_limit(capsys, monkeypatch, tmp_path):
    """A linking file may list MAX_LINK_LABELS labels; one more is refused,
    for every command that reads one."""
    monkeypatch.setattr("nabla_lmo.parsing.MAX_LINK_LABELS", 3)
    at_limit, past_limit = label_limit_file(tmp_path, 3), label_limit_file(tmp_path, 4)
    for command in LINK_COMMANDS:
        rc, out, err = run(capsys, command[0], "--linking", at_limit, *command[1:])
        assert (rc, err) == (0, "")
        assert out.startswith("labels: x1 x2\n")
        assert run(capsys, command[0], "--linking", past_limit, *command[1:]) == (
            2, "", f'error: {past_limit}: "labels" may list at most 3 components, got 4\n'
        )


def test_linking_label_limit_is_checked_before_the_entries(capsys, monkeypatch, tmp_path):
    """A real file one label past MAX_LINK_LABELS is refused before any
    entry is converted or eliminated."""
    path = label_limit_file(tmp_path, MAX_LINK_LABELS + 1)

    def refuse(*args):
        raise AssertionError("the matrix was read past the label limit")

    monkeypatch.setattr("nabla_lmo.parsing._rational", refuse)
    monkeypatch.setattr(matrices, "_eliminate", refuse)
    for command in LINK_COMMANDS:
        assert run(capsys, command[0], "--linking", path, *command[1:]) == (
            2,
            "",
            f'error: {path}: "labels" may list at most {MAX_LINK_LABELS} components, '
            f"got {MAX_LINK_LABELS + 1}\n",
        )


def test_surgery_commands_multiply_no_matrices(capsys, tmp_path, hopf_file):
    """surgery and the Schur route integrate out the surgery block by
    elimination alone: the package has no matrix product (the test suite's
    is in ``oracles``)."""
    frac = tmp_path / "frac.json"
    frac.write_text(FRACTIONAL_JSON)
    commands = [
        (command, "--linking", path, *route)
        for path in (hopf_file, str(frac))
        for command, route in (
            ("surgery", ()),
            ("aarhus-struts", ("--route", "schur")),
            ("aarhus-struts", ("--route", "both")),
        )
    ]
    outputs = [run(capsys, *argv) for argv in commands]
    assert outputs[:3] == [
        (0, "labels: a\n-1\nsignature: (1, 0)\nh1_order: 1\n", ""),
        (0, "labels: a\n-1\n", ""),
        (0, "labels: a\n-1\n", ""),
    ]
    assert outputs[3] == (0, "labels: a\n-2\nsignature: (1, 0)\n", "")

    assert "matmul" not in vars(matrices)


def test_mmr_command(capsys, trefoil_file):
    rc, out, _ = run(capsys, "mmr", "--seifert", trefoil_file, "--order", "6")
    assert rc == 0
    assert out == "1 + 23/24*h^2 + 247/5760*h^4 + 473/967680*h^6 + O(h^7)\n"


def test_wheels_command(capsys, tmp_path, trefoil_file):
    rc, out, _ = run(
        capsys, "wheels", "--from-series", "1 - 1/24*h^2 + 7/5760*h^4", "--order", "4"
    )
    assert rc == 0
    assert out == "exp( 1/48 w2 - 1/5760 w4 )\n"

    series_file = tmp_path / "series.txt"
    series_file.write_text("1 - 1/24*h^2 + 7/5760*h^4\n")
    rc, file_out, _ = run(capsys, "wheels", "--from-series", str(series_file), "--order", "4")
    assert rc == 0
    assert file_out == out

    rc, out, _ = run(capsys, "wheels", "--from-seifert", trefoil_file, "--order", "6")
    assert rc == 0
    assert out == "exp( -23/48 w2 + 1199/5760 w4 - 45863/362880 w6 )\n"


def test_wheels_from_series_parses_before_looking_for_a_file(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argvs = [("wheels", "--from-series", arg, "--order", "4") for arg in ("1 + h^2", "1")]
    empty_dir = [run(capsys, *argv) for argv in argvs]
    assert empty_dir == [(0, "exp( -1/2 w2 + 1/4 w4 )\n", ""), (0, "exp( 0 )\n", "")]
    (tmp_path / "1 + h^2").write_text("1 - 5*h^2")
    (tmp_path / "1").mkdir()
    assert [run(capsys, *argv) for argv in argvs] == empty_dir


def test_wheels_rejects_links(capsys, tmp_path):
    path = tmp_path / "link.json"
    path.write_text('{"matrix": [["0"]], "components": 2}')
    rc, _, err = run(capsys, "wheels", "--from-seifert", str(path), "--order", "4")
    assert rc == 1
    assert err.startswith("error:")


def test_lmo_text_output(capsys):
    rc, out, _ = run(capsys, "lmo", "--nabla", "1 + z^2", "--tor", "1", "--order", "4")
    assert rc == 0
    assert out == (
        "order: 4\n"
        "h1_order: 1\n"
        "knot_wheels: exp( -23/48 w2 + 1199/5760 w4 )\n"
        "nu_wheels: exp( 1/48 w2 - 1/5760 w4 )\n"
    )


def test_lmo_json_and_invert_round_trip(capsys, tmp_path):
    rc, out, _ = run(
        capsys, "lmo", "--nabla", "1 + z^2", "--tor", "3", "--order", "6", "--json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "order": 6,
        "h1_order": 3,
        "knot_wheels": {"2": "-69/16", "4": "10791/640", "6": "-412767/4480"},
        "nu_wheels": {"2": "1/48", "4": "-1/5760", "6": "1/362880"},
    }

    path = tmp_path / "wheels.json"
    path.write_text(out)
    rc, out, _ = run(capsys, "lmo", "--invert", str(path))
    assert rc == 0
    assert out == "1 + z^2\n"

    rc, _, err = run(capsys, "lmo", "--invert", str(path), "--max-z-degree", "0")
    assert rc == 1
    assert err.startswith("error:")

    # without --max-z-degree every z-degree up to the file's order is recognized
    rc, out, _ = run(capsys, "lmo", "--nabla", "1 + z^10", "--tor", "3", "--json")
    assert rc == 0 and json.loads(out)["order"] == 16
    path.write_text(out)
    assert run(capsys, "lmo", "--invert", str(path)) == (0, "1 + z^10\n", "")

    payload["nu_wheels"] = {"2": "1"}
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "lmo", "--invert", str(path))
    assert rc == 2
    assert out == ""
    assert err == (
        f"error: {path}: nu_wheels disagree with the unknot normalization at this order\n"
    )


def test_roundtrip_command(capsys):
    rc, out, _ = run(
        capsys, "roundtrip", "--nabla", "1 - 3*z^2 + z^4", "--tor", "2", "--order", "10"
    )
    assert rc == 0
    assert out == "roundtrip ok: 1 - 3*z^2 + z^4 (tor_order=2, order=10)\n"


@pytest.mark.parametrize("entry", ("lmo --tor", "roundtrip --tor", "h1_order"))
def test_torsion_order_limit(capsys, monkeypatch, tmp_path, entry):
    """A torsion order of MAX_TOR_DIGITS + 1 digits or more is refused
    before any wheel arithmetic; one digit fewer is accepted."""
    largest = 10 ** MAX_TOR_DIGITS - 1
    path = tmp_path / "wheels.json"
    wheel_json = run(capsys, "lmo", "--nabla", "1 + z^2", "--tor", "1", "--order", "4", "--json")[1]

    def argv(tor):
        if entry == "h1_order":
            path.write_text(wheel_json.replace('"h1_order": 1', f'"h1_order": {tor}'))
            return ("lmo", "--invert", str(path))
        return (entry.split()[0], "--nabla", "1 + z^2", "--tor", str(tor), "--order", "4")

    assert run(capsys, *argv(largest))[0] == 0

    def no_wheels(*args):
        raise AssertionError("wheel arithmetic started")

    for name in ("mmr._unknot", "mmr.z_poly_log", "mmr.z_poly_exp", "mmr.nu_wheels"):
        monkeypatch.setattr(f"nabla_lmo.{name}", no_wheels)
    where = f'{path}: "h1_order"' if entry == "h1_order" else "--tor"
    for tor, digits in ((largest + 1, MAX_TOR_DIGITS + 1), (int("9" * 4000), 4000)):
        assert run(capsys, *argv(tor)) == (
            2, "", f"error: {where} must be below 10^{MAX_TOR_DIGITS}, got a {digits}-digit number\n"
        )


def test_wheel_translation_builds_no_series(capsys, monkeypatch, tmp_path, trefoil_file):
    """lmo, its inverse, roundtrip, the knot wheels and the wheels of a
    series run on integer tables: no c(h) is built."""
    wheel_file = tmp_path / "wheels.json"
    commands = (
        ("lmo", "--nabla", "1 + z^2", "--tor", "1", "--order", "4"),
        ("lmo", "--nabla", "1 - 1/3*z^2 + 2/7*z^4", "--tor", "3", "--order", "33"),
        ("lmo", "--nabla", "1 + z^2", "--tor", "3", "--order", "6", "--json"),
        ("lmo", "--invert", str(wheel_file)),
        ("lmo", "--invert", str(wheel_file), "--max-z-degree", "0"),
        ("roundtrip", "--nabla", "1 - 3*z^2 + 1/2*z^4", "--tor", "7", "--order", "64"),
        ("wheels", "--from-seifert", trefoil_file, "--order", "6"),
        ("wheels", "--from-series", "1 - 1/3*h^2 + 5/2*h^4 - 7/6*h^8", "--order", "128"),
    )
    wheel_file.write_text(run(capsys, *commands[2])[1])
    expected = [run(capsys, *argv) for argv in commands]
    assert expected[0][1].startswith("order: 4\nh1_order: 1\nknot_wheels: exp( -23/48 w2 ")
    assert expected[3] == (0, "1 + z^2\n", "")
    assert expected[4] == (
        1, "", "error: series is not a polynomial in z^2 of z-degree <= 0 at order 6\n"
    )
    assert expected[6][1] == "exp( -23/48 w2 + 1199/5760 w4 - 45863/362880 w6 )\n"
    assert expected[7][1].startswith("exp( 1/6 w2 - 11/9 w4 ") and expected[7][0] == 0

    def no_series(*args):
        raise AssertionError("a Fraction series was built")

    for name in ("hseries.c_series", "mmr.c_series"):
        monkeypatch.setattr(f"nabla_lmo.{name}", no_series)
    assert [run(capsys, *argv) for argv in commands] == expected


def test_fixtures_list(capsys):
    rc, out, _ = run(capsys, "fixtures", "list")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "unknot: components=1, nabla = 1, matrix = []"
    assert (
        "trefoil: components=1, nabla = 1 + z^2, matrix = [[-1, 1], [0, -1]]" in lines
    )
    assert (
        "figure_eight: components=1, nabla = 1 - z^2, matrix = [[1, 1], [0, -1]]"
        in lines
    )
    assert "hopf_positive: components=2, nabla = z, matrix = [[1]]" in lines
    assert len(lines) == 12


def test_exit_codes(capsys, tmp_path):
    rc, _, err = run(capsys, "nabla", "--seifert", str(tmp_path / "missing.json"))
    assert rc == 2
    assert err.startswith("error:")

    rc, _, err = run(capsys, "normalize-delta", "--delta", "z +", "--h1", "1")
    assert rc == 2

    rc, _, err = run(capsys, "lmo", "--nabla", "1 + z^2")
    assert rc == 2  # --tor is required with --nabla

    # flags the chosen direction does not use are refused, not ignored
    wheel_file = tmp_path / "wheels.json"
    wheel_file.write_text(run(capsys, "lmo", "--nabla", "1 + z^2", "--tor", "1", "--json")[1])
    for extra, flag in (
        (("--tor", "5"), "--tor"),
        (("--tor", "0"), "--tor"),
        (("--order", "8"), "--order"),
        (("--json",), "--json"),
        (("--max-z-degree", "2", "--json"), "--json"),
    ):
        assert run(capsys, "lmo", "--invert", str(wheel_file), *extra) == (
            2, "", f"error: {flag} does not apply with --invert\n"
        )
    missing = str(tmp_path / "missing.json")  # refused before the file is read
    assert run(capsys, "lmo", "--invert", missing, "--max-z-degree", "-3") == (
        2, "", "error: --max-z-degree must be non-negative, got -3\n"
    )
    for extra in (("--max-z-degree", "3"), ("--max-z-degree", "0", "--json")):
        assert run(capsys, "lmo", "--nabla", "1 + z^2", "--tor", "1", *extra) == (
            2, "", "error: --max-z-degree does not apply with --nabla\n"
        )

    rc, _, err = run(capsys, "roundtrip", "--nabla", "1", "--tor", "1", "--order", "-3")
    assert rc == 2

    for command in ("lmo", "roundtrip"):
        for nabla in ("1 + z^20", "1 + z^18"):
            rc, out, err = run(capsys, command, "--nabla", nabla, "--tor", "1", "--order", "16")
            assert rc == 1
            assert out == ""
            assert err.startswith("error: z-degree ") and err.count("\n") == 1
            assert "truncation order 16" in err
        rc, _, err = run(capsys, command, "--nabla", "1 + z^16", "--tor", "1", "--order", "16")
        assert rc == 0 and err == ""

    exponent = tmp_path / "exponent.json"
    exponent.write_text('{"matrix": [["1e5"]]}')
    rc, out, err = run(capsys, "nabla", "--seifert", str(exponent))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1

    singular = tmp_path / "singular.json"
    singular.write_text(
        '{"labels": ["x", "a"], "surgery": ["x"], "matrix": [["0", "1"], ["1", "0"]]}'
    )
    rc, _, err = run(capsys, "surgery", "--linking", str(singular))
    assert rc == 1
    assert err.startswith("error:")

    not_utf8 = tmp_path / "bad.json"
    not_utf8.write_bytes(b'{"matrix": [["\xff"]]}')
    for argv in (("nabla", "--seifert"), ("wheels", "--from-series")):
        rc, out, err = run(capsys, *argv, str(not_utf8))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # integers past Python's int conversion limit (4300 digits by default)
    nines = "9" * 5000
    long_entry = tmp_path / "long.json"
    long_entry.write_text('{"matrix": [[%s]]}' % nines)
    for argv in (
        ("lmo", "--nabla", f"1 + z^{nines}", "--tor", "1"),
        ("normalize-delta", "--delta", f"t^{nines} + 1", "--h1", "1"),
        ("nabla", "--seifert", str(long_entry)),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "digits" in err and "Traceback" not in err

    # numbers too long to print end in one error line and an empty stdout
    too_long = (
        f"error: a number to print has more than {sys.get_int_max_str_digits()} digits, "
        "the most Python converts to text\n"
    )
    big_seifert = tmp_path / "big_seifert.json"
    big_seifert.write_text('{"matrix": [["%s", "1"], ["0", "%s"]]}' % (nines[:2500], nines[:2500]))
    big_wheels = tmp_path / "big_wheels.json"
    big_wheels.write_text(json.dumps({
        "order": 4, "h1_order": 1, "knot_wheels": {"2": nines[:3000]},
        "nu_wheels": {str(k): str(v) for k, v in nu_wheels(4).coefficients.items()},
    }))
    for argv in (
        ("lmo", "--nabla", f"1 + {nines[:200]}*z^2", "--tor", "1", "--order", "64"),
        ("lmo", "--nabla", f"1 + {nines[:200]}*z^2", "--tor", "1", "--order", "64", "--json"),
        ("lmo", "--invert", str(big_wheels)),
        ("mmr", "--seifert", str(big_seifert), "--order", "2"),
        ("nabla", "--seifert", str(big_seifert)),
        ("wheels", "--from-series", f"1 + {nines[:3000]}*h^2", "--order", "4"),
    ):
        assert run(capsys, *argv) == (1, "", too_long)

    # a zero denominator in an expression
    for argv in (
        ("lmo", "--nabla", "1 + 1/0*z^2", "--tor", "1"),
        ("normalize-delta", "--delta", "t + 1/0", "--h1", "1"),
        ("wheels", "--from-series", "1 + 1/0*h^2"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: syntax error at position") and err.count("\n") == 1

    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exit_info:
        main(["wheels", "--from-series", "1", "--from-seifert", "x.json"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_expressions_in_the_wrong_variable_exit_2(capsys):
    """Each expression flag reads one variable plus constants; text in
    another variable is malformed input, not a value to compute with."""
    for argv, var in (
        (("roundtrip", "--nabla", "t^0", "--tor", "1"), "z"),
        (("lmo", "--nabla", "t - t", "--tor", "1"), "z"),
        (("normalize-delta", "--delta", "1 + z^2", "--h1", "1"), "t"),
        (("wheels", "--from-series", "t + 1"), "h"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: syntax error at position ") and err.count("\n") == 1
        assert err.endswith(f"expected variable {var}\n")
    assert run(capsys, "lmo", "--nabla", "1 + O(h^3)", "--tor", "1") == (
        2, "", "error: O(h^N) marker is only meaningful for h-series\n"
    )
    # constants are polynomials in every variable
    assert run(capsys, "roundtrip", "--nabla", "1", "--tor", "1")[0] == 0


def test_unencodable_output_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "accent.json"
    path.write_text(
        '{"labels": ["x", "\u00e9"], "surgery": ["x"], "matrix": [["1", "1"], ["1", "0"]]}'
    )
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["surgery", "--linking", str(path)]) == 2
    stdout.flush()
    assert stdout.buffer.getvalue() == b""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe after one line, as `| head -1` does,
    ends the command with exit 0 and nothing on stderr. The output, about
    190 kB, outgrows the pipe buffer, so the write meets the closed pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(nabla_lmo.__file__).resolve().parents[1]))
    argv = ["lmo", "--nabla", "1+z^2", "--tor", "999999", "--order", "256"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "nabla_lmo.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"order: 256\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_output_does_not_depend_on_the_environment(capsys, monkeypatch, trefoil_file):
    """Without --order every command truncates at order 16, whatever
    environment variables named after the package and its options hold."""
    commands = [
        ("mmr", "--seifert", trefoil_file),
        ("wheels", "--from-seifert", trefoil_file),
        ("wheels", "--from-series", "1 - 1/24*h^2 + 7/5760*h^4"),
        ("lmo", "--nabla", "1 + z^2", "--tor", "3", "--json"),
        ("roundtrip", "--nabla", "1 - 3*z^2 + z^4", "--tor", "2"),
    ]
    names = [f"{main.__module__.split('.')[0].upper()}_{option}"
             for option in ("ORDER", "TOR", "MAX_Z_DEGREE")]
    for name in names:
        monkeypatch.delenv(name, raising=False)
    at_16 = [run(capsys, *argv, "--order", "16") for argv in commands]
    assert all(rc == 0 for rc, _, _ in at_16)
    assert [run(capsys, *argv) for argv in commands] == at_16
    for name in names:
        monkeypatch.setenv(name, "4")
    assert [run(capsys, *argv) for argv in commands] == at_16


def test_output_is_deterministic(capsys, trefoil_file):
    first = run(capsys, "lmo", "--nabla", "1 + z^2", "--tor", "3", "--order", "8", "--json")
    second = run(capsys, "lmo", "--nabla", "1 + z^2", "--tor", "3", "--order", "8", "--json")
    assert first == second
    first = run(capsys, "mmr", "--seifert", trefoil_file, "--order", "12")
    second = run(capsys, "mmr", "--seifert", trefoil_file, "--order", "12")
    assert first == second


def test_order_and_exponent_limits(capsys, monkeypatch, tmp_path, trefoil_file):
    def no_series(*args):
        raise AssertionError("series work started")

    for name in (
        "mmr.c_series", "mmr.nu_wheels", "mmr._unknot",
        "hseries._tangent_numbers", "hseries.even_bernoulli", "mmr.even_bernoulli",
        "hseries._cf_second_kind", "hseries._cf_first_kind",
    ):
        monkeypatch.setattr(f"nabla_lmo.{name}", no_series)
    too_big = str(MAX_ORDER + 1)
    message = f"error: truncation order must be at most {MAX_ORDER}, got {too_big}\n"
    for argv in (
        ("mmr", "--seifert", trefoil_file),
        ("wheels", "--from-seifert", trefoil_file),
        ("wheels", "--from-series", "1 + h^2"),
        ("lmo", "--nabla", "1 + z^2", "--tor", "1"),
        ("roundtrip", "--nabla", "1 + z^2", "--tor", "1"),
    ):
        assert run(capsys, *argv, "--order", too_big) == (2, "", message)

    for command in ("lmo", "roundtrip"):
        rc, out, err = run(capsys, command, "--nabla", "1 + z^4000000", "--tor", "1")
        assert (rc, out) == (2, "")
        assert err == (
            f"error: z exponent 4000000 exceeds the limit {MAX_ORDER} "
            "(the largest truncation order)\n"
        )

    def no_rewrite(*args):
        raise AssertionError("rewrite_in_z was called")

    with monkeypatch.context() as patch:
        patch.setattr("nabla_lmo.alexander.rewrite_in_z", no_rewrite)
        rc, out, err = run(capsys, "normalize-delta", "--delta", "t^129 + 1 + t^-129", "--h1", "3")
    assert (rc, out) == (2, "")
    assert err == (
        f"error: t exponents give z-degree 258 (half the span of the t^(1/2) exponents), "
        f"which exceeds the limit {MAX_ORDER} (the largest truncation order)\n"
    )
    rc, out, err = run(capsys, "normalize-delta", "--delta", "t^128 + 1 + t^-128", "--h1", "3")
    assert (rc, err) == (0, "")
    assert out.endswith(f" + 1/3*z^{MAX_ORDER}\n1/3*t^-128 + 1/3 + 1/3*t^128\n")

    wheel_file = tmp_path / "big.json"
    wheel_file.write_text(json.dumps(
        {"order": 4096, "h1_order": 1, "knot_wheels": {}, "nu_wheels": {}}
    ))
    rc, out, err = run(capsys, "lmo", "--invert", str(wheel_file))
    assert (rc, out) == (2, "")
    assert err == f'error: {wheel_file}: "order" must be at most {MAX_ORDER}, got 4096\n'
