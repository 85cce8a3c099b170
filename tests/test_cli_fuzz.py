"""Seeded fuzz test of the command-line contract.

Mutated README expressions, a mutated fixture Seifert file, a mutated
README linking file and mutated README wheel data go through ``cli.main``
in-process. Every run must end in exit 0, 1 or 2 (argparse's
``SystemExit(2)`` counts as 2) with no other exception escaping, and a
second run of the same argv must print the same bytes.
"""

import json
import random
import re

import pytest

from nabla_lmo.cli import main
from nabla_lmo.fixtures import load_fixtures
from test_readme import examples, usage_block

CASES = 300
WHEEL_CASES = 60
SEED = 20240917
EXPR_FLAGS = ("--nabla", "--delta", "--from-series")
TOKENS = (
    "0", "1", "2", "7", "-", "+", "*", "/", "^", "(", ")", " ", ".", "e", "é",
    "z", "h", "t", "x", "^-", "1/0", "9" * 30, '"', "[", "]", ",", "{", "}", ":",
)
VARIABLES = "zht"


def readme_inputs():
    """The README's inline expressions by flag, its hopf.json, and the
    arguments of the command that writes its wheels.json."""
    exprs, linking, wheels_argv = {flag: [] for flag in EXPR_FLAGS}, None, None
    for argv, shown in examples(usage_block()):
        if argv[:2] == ["cat", "hopf.json"]:
            linking = "\n".join(shown)
        if argv[-2:] == [">", "wheels.json"]:
            wheels_argv = argv[1:-2]
        for i, a in enumerate(argv[:-1]):
            if a in exprs:
                exprs[a].append(argv[i + 1])
    return exprs, linking, wheels_argv


def mutate(rng, s):
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(s))
        j = min(len(s), i + rng.randint(1, 3))
        op = rng.randrange(5)
        if op == 0:
            s = s[:i] + s[j:]
        elif op == 1:
            s = s[:i] + rng.choice(TOKENS) + s[i:]
        elif op == 2:
            s = s[:i] + s[i:j] + s[i:]
        elif op == 3:
            s = s.replace(rng.choice(VARIABLES), rng.choice(VARIABLES))
        else:
            s = s[:i] + rng.choice("0123456789") + s[j:]
    return s


def mutate_json(rng, text):
    """``text`` mutated anywhere, or only inside one of its strings."""
    strings = [m.span(1) for m in re.finditer(r'"([^"]*)"', text)]
    if rng.random() < 0.3 or not strings:
        return mutate(rng, text)
    i, j = rng.choice(strings)
    return text[:i] + mutate(rng, text[i:j]) + text[j:]


def argvs(rng, exprs, seifert, linking, wheels, tmp_path):
    """Yield (argv, mutated input text) per case; files are rewritten in place."""
    seifert_file, linking_file = tmp_path / "seifert.json", tmp_path / "linking.json"
    wheels_file = tmp_path / "wheels.json"
    for _ in range(CASES):
        command = rng.choice((
            "nabla", "mmr", "normalize-delta", "surgery", "aarhus-struts",
            "lmo", "roundtrip", "wheels",
        ))
        if command in ("nabla", "mmr"):
            text = mutate_json(rng, seifert)
            seifert_file.write_text(text, encoding="utf-8")
            argv = [command, "--seifert", str(seifert_file)]
        elif command in ("surgery", "aarhus-struts"):
            text = mutate_json(rng, linking)
            linking_file.write_text(text, encoding="utf-8")
            argv = [command, "--linking", str(linking_file)]
            if command == "aarhus-struts":
                argv += ["--route", rng.choice(("wick", "schur", "both"))]
        else:
            flag = {"normalize-delta": "--delta", "wheels": "--from-series"}.get(command, "--nabla")
            text = mutate(rng, rng.choice(exprs[flag]))
            argv = [command, flag, text]
            if command == "normalize-delta":
                argv += ["--h1", rng.choice(("1", "3", "0", "-2"))]
            elif command != "wheels":
                argv += ["--tor", rng.choice(("1", "3", "0", "-2", "9" * 4000))]
            if command == "lmo" and rng.random() < 0.5:
                argv.append("--json")
        if command in ("mmr", "lmo", "roundtrip", "wheels"):
            argv += ["--order", rng.choice(("0", "1", "4", "8", "-1"))]
        yield argv, text
    for _ in range(WHEEL_CASES):
        text = mutate_json(rng, wheels)
        wheels_file.write_text(text, encoding="utf-8")
        argv = ["lmo", "--invert", str(wheels_file)]
        if rng.random() < 0.5:
            argv += ["--max-z-degree", rng.choice(("0", "2", "4", "8"))]
        yield argv, text


def outcome(capsys, argv, text):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the contract: nothing else escapes main
        pytest.fail(f"{argv} on {text!r} raised {exc!r}")
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_contract_on_mutated_inputs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exprs, linking, wheels_argv = readme_inputs()
    trefoil = next(fx for fx in load_fixtures() if fx.name == "trefoil")
    seifert = json.dumps({"matrix": [[str(x) for x in row] for row in trefoil.seifert.entries]})
    assert main(wheels_argv) == 0
    wheels = capsys.readouterr().out
    codes = set()
    for argv, text in argvs(random.Random(SEED), exprs, seifert, linking, wheels, tmp_path):
        first = outcome(capsys, argv, text)
        assert first[0] in (0, 1, 2), (argv, text, first)
        assert outcome(capsys, argv, text) == first, (argv, text)
        codes.add(first[0])
    assert codes == {0, 1, 2}
