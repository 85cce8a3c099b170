"""Start-up contract: ``import nabla_lmo`` loads no submodule, and each
command imports only the modules its work runs.

Every case runs in a fresh interpreter and reads the modules that the
command loaded, beyond those the interpreter had loaded at start. No timing
is asserted: the module sets are what a launch pays for.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nabla_lmo

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """\
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
if sys.argv[1:]:
    from nabla_lmo import cli
    with redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    import nabla_lmo
    code = 0
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}))
"""

#: Package modules that a command of the group must never load, and whether
#: ``dataclasses`` is forbidden too.
SERIES = ("alexander", "laurent", "seifert", "hseries", "wheels", "mmr", "fixtures")
NOT_LOADED = {
    "surgery": (SERIES, True),
    "aarhus-struts": (SERIES, True),
    "nabla": (("gaussian", "surgery", "hseries", "wheels", "mmr", "fixtures"), False),
    "normalize-delta": (("gaussian", "surgery", "hseries", "wheels", "mmr", "fixtures"), False),
    "lmo": (("gaussian", "surgery", "fixtures"), False),
    "roundtrip": (("gaussian", "surgery", "fixtures"), False),
}

COMMANDS = [
    ("surgery", "--linking", "{linking}"),
    ("aarhus-struts", "--linking", "{linking}"),
    ("aarhus-struts", "--linking", "{linking}", "--route", "schur"),
    ("nabla", "--seifert", "{seifert}"),
    ("normalize-delta", "--delta", "t - 1 + t^-1", "--h1", "1"),
    ("lmo", "--nabla", "1 + z^2", "--tor", "3", "--order", "6"),
    ("lmo", "--nabla", "1 + z^2", "--tor", "3", "--order", "6", "--json"),
    ("lmo", "--invert", "{wheel_data}"),
    ("roundtrip", "--nabla", "1 - 3*z^2 + z^4", "--tor", "2"),
]


def launch(*args: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def loaded_by(*argv: str) -> tuple[int, set[str]]:
    proc = launch("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["exit"], set(result["loaded"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("start_up")
    contents = {
        "linking": json.dumps({
            "labels": ["x", "y", "a", "b"], "surgery": ["x", "y"],
            "matrix": [["2", "1", "1", "0"], ["1", "-3", "0", "1"],
                       ["1", "0", "0", "2"], ["0", "1", "2", "1"]],
        }),
        "seifert": '{"matrix": [["-1", "1"], ["0", "-1"]]}',
        "wheel_data": json.dumps({
            "order": 2, "h1_order": 1, "knot_wheels": {"2": "-1/2"}, "nu_wheels": {"2": "1/48"},
        }),
    }
    paths = {}
    for name, text in contents.items():
        path = tmp / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_importing_the_package_loads_no_submodule():
    code, loaded = loaded_by()
    assert code == 0
    assert "nabla_lmo" in loaded
    assert sorted(m for m in loaded if m.startswith("nabla_lmo.")) == []


def command_id(argv):
    """The command and its flags, with the flag values that are plain words."""
    return " ".join([argv[0]] + [a for a in argv[1:] if a.startswith("--") or a.isalpha()])


@pytest.mark.parametrize("argv", COMMANDS, ids=map(command_id, COMMANDS))
def test_command_loads_only_what_it_runs(files, argv):
    code, loaded = loaded_by(*[arg.format(**files) for arg in argv])
    assert code == 0
    forbidden, no_dataclasses = NOT_LOADED[argv[0]]
    assert sorted(m for m in forbidden if f"nabla_lmo.{m}" in loaded) == []
    if no_dataclasses:
        assert "dataclasses" not in loaded


def test_exported_names_are_their_home_module_objects():
    for module, names in nabla_lmo._EXPORTS.items():
        home = importlib.import_module(f"nabla_lmo.{module}")
        for name in names:
            assert getattr(nabla_lmo, name) is getattr(home, name), name
    assert len(nabla_lmo.__all__) == 38
    assert nabla_lmo.__all__ == sorted(nabla_lmo.__all__)


def test_lazy_namespace_behaves_like_an_eager_one():
    assert set(nabla_lmo.__all__) <= set(dir(nabla_lmo))
    namespace = {}
    exec("from nabla_lmo import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == nabla_lmo.__all__
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nabla_lmo.no_such_name
    with pytest.raises(ImportError):
        exec("from nabla_lmo import no_such_name", {})


def test_run_as_a_module(tmp_path):
    proc = launch("-m", "nabla_lmo.cli", "fixtures", "list", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("unknot: components=1, nabla = 1, matrix = []\n")
