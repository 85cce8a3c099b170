"""The examples in README's "Command-line usage" block, run through cli.main.

``$ cat FILE`` writes the lines that follow it to FILE; ``$ nabla-lmo ...``
runs the command (``> FILE`` sends its stdout to FILE) and compares stdout
with the lines shown, where a last line ``...`` asks only for a prefix.
"""

import importlib
import re
import shlex
from pathlib import Path

from nabla_lmo.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def usage_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command-line usage", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def examples(lines: list[str]):
    """Yield (argv, shown output lines) per ``$`` line, in order."""
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ "):
            assert not lines[i], f"README line outside an example: {lines[i]!r}"
            i += 1
            continue
        argv = shlex.split(lines[i][2:])
        i += 1
        shown = []
        while i < len(lines) and lines[i] and not lines[i].startswith("$ "):
            shown.append(lines[i])
            i += 1
        yield argv, shown


def test_readme_usage_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = usage_block()
    commands = 0
    for argv, shown in examples(lines):
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(shown) + "\n")
            continue
        assert argv[0] == "nabla-lmo"
        target = None
        if len(argv) > 2 and argv[-2] == ">":
            argv, target = argv[:-2], argv[-1]
        assert main(argv[1:]) == 0, argv
        out, err = capsys.readouterr()
        assert err == "", argv
        if target is not None:
            assert not shown, argv
            (tmp_path / target).write_text(out)
        elif shown and shown[-1] == "...":
            assert out.splitlines()[: len(shown) - 1] == shown[:-1], argv
        else:
            assert out.splitlines() == shown, argv
        commands += 1
    assert commands == sum(line.startswith("$ nabla-lmo ") for line in lines) > 0


PACKAGE = README.parent / "src" / "nabla_lmo"
IDENTIFIER = r"`([A-Za-z_][A-Za-z0-9_]+)`"


def section(title: str) -> str:
    """README's "## title" section, up to the next "## " heading."""
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def layout_rows() -> list[str]:
    """The table rows of README's "Package layout" section."""
    return [line for line in section("Package layout").splitlines() if line.startswith("| `")]


def package_modules():
    return [
        importlib.import_module(f"nabla_lmo.{p.stem}")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.stem != "__init__"
    ]


def module_attributes() -> set[str]:
    return set().union(*(vars(m) for m in package_modules()))


def test_readme_package_layout_lists_every_module():
    """One "Package layout" row per module file, none for a missing one."""
    rows = [line.split("|")[1].strip().strip("`") for line in layout_rows()]
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert sorted(rows) == modules


def test_readme_package_layout_names_exist():
    """Every backticked identifier in a "Package layout" row names a module
    or an attribute of one; one-letter names are the variables z, h and t."""
    names = module_attributes() | {m.__name__.split(".")[1] for m in package_modules()}
    for row in layout_rows():
        for name in re.findall(IDENTIFIER, row):
            assert name in names, (name, row)


def test_readme_what_it_computes_names_exist():
    """Every backticked identifier in "What it computes" names an attribute
    of a module, so a retired name cannot stay in the list."""
    names = module_attributes()
    found = re.findall(IDENTIFIER, section("What it computes"))
    assert found
    for name in found:
        assert name in names, name
