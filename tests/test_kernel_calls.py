"""Frozen call counts of the exact kernels, per CLI command.

Each command runs in-process on a fixed small input while the kernels are
wrapped with counters: the elimination kernel, the exp-form series log and
exp, the truncated exponential of a strut form and the Wick gluing. Call
counts are exact where wall times are not, so a job done twice shows up
here as a larger count. A change that moves a count on purpose updates it
here and says why.
"""

import json
from collections import Counter

import pytest

from nabla_lmo import gaussian, hseries, matrices
from nabla_lmo.cli import main

KERNELS = (
    (matrices, "_eliminate"),
    (hseries, "_even_log"),
    (hseries, "_even_exp"),
    (gaussian, "_exp_linear"),
    (gaussian, "wick_pair"),
)

# the trefoil's Seifert matrix twice over: a 4 x 4 matrix, one det(tV - V^T)
SEIFERT_4 = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
SERIES = ("--nabla", "1+z^2", "--tor", "3", "--order", "8")

COMMANDS = [
    # det(tV - V^T) from its values at t = 0..4
    (("nabla", "--seifert", "{seifert}"), {"_eliminate": 5}),
    (("normalize-delta", "--delta", "t-1+t^-1", "--h1", "1"), {}),
    # one symmetric pass: the Schur complement with the block's signature and det
    (("surgery", "--linking", "{linking}"), {"_eliminate": 1}),
    (
        ("aarhus-struts", "--linking", "{linking}", "--route", "both"),
        {"_eliminate": 2, "_exp_linear": 2, "wick_pair": 1},
    ),
    (("aarhus-struts", "--linking", "{linking}", "--route", "schur"), {"_eliminate": 1}),
    (
        ("aarhus-struts", "--linking", "{linking}", "--route", "wick"),
        {"_eliminate": 1, "_exp_linear": 2, "wick_pair": 1},
    ),
    (("mmr", "--seifert", "{seifert}", "--order", "8"), {"_eliminate": 5}),
    (("wheels", "--from-series", "1+h^2", "--order", "8"), {"_even_log": 1}),
    (("wheels", "--from-seifert", "{seifert}", "--order", "8"), {"_eliminate": 5, "_even_log": 1}),
    (("lmo", *SERIES), {"_even_log": 1}),
    (("lmo", "--invert", "{wheel_data}"), {"_even_exp": 1}),
    (("roundtrip", *SERIES), {"_even_log": 1, "_even_exp": 1}),
    # the table is printed as recorded; the tests check it, not the command
    (("fixtures", "list"), {}),
]


@pytest.fixture
def files(tmp_path, capsys):
    """Input files: the 4 x 4 Seifert matrix, a k10 r3 linking matrix with 2
    on the diagonal and 1 elsewhere, and the wheel data of ``SERIES``."""
    k, r = 10, 3
    labels = [f"x{i}" for i in range(k)] + [f"a{i}" for i in range(r)]
    rows = [["2" if i == j else "1" for j in labels] for i in labels]
    contents = {
        "seifert": json.dumps({"matrix": SEIFERT_4}),
        "linking": json.dumps({"labels": labels, "surgery": labels[:k], "matrix": rows}),
    }
    assert main(["lmo", *SERIES, "--json"]) == 0
    contents["wheel_data"] = capsys.readouterr().out
    paths = {}
    for name, text in contents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for module, name in KERNELS:

        def counted(*args, _kernel=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def command_id(argv):
    """The command and its flags, with the flag values that are plain words;
    file paths and expressions are left out."""
    shown = [argv[0]] + [a for a in argv[1:] if a.startswith("--") or a.isalpha()]
    return " ".join(shown)


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=[command_id(a) for a, _ in COMMANDS])
def test_kernel_calls_per_command(capsys, files, calls, argv, expected):
    calls.clear()
    assert main([arg.format(**files) for arg in argv]) == 0
    assert capsys.readouterr().err == ""
    assert dict(calls) == expected


SEIFERT_COMMANDS = [argv for argv, _ in COMMANDS if "{seifert}" in argv]


@pytest.mark.parametrize("argv", SEIFERT_COMMANDS, ids=map(command_id, SEIFERT_COMMANDS))
def test_seifert_commands_eliminate_int_rows(capsys, files, monkeypatch, argv):
    """det(tV - V^T) is interpolated from int evaluation matrices: the
    kernel never receives a Fraction entry."""
    entry_types = set()
    kernel = matrices._eliminate

    def recording(rows, *args, **kwargs):
        entry_types.update(type(x) for row in rows for x in row)
        return kernel(rows, *args, **kwargs)

    monkeypatch.setattr(matrices, "_eliminate", recording)
    assert main([arg.format(**files) for arg in argv]) == 0
    assert capsys.readouterr().err == ""
    assert entry_types == {int}
