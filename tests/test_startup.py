"""The start-up design: `import c1atlas` loads no layer, and a command loads
only the layers it uses.

Each test runs in a fresh interpreter, because the test process itself has
long since imported every layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c1atlas

# linalg is heavy too: no catalog question needs a matrix solve
HEAVY_LAYERS = ("chevalley", "shapeops", "scalars", "linalg", "nilcon", "classify", "verify")


def _fresh(script: str, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(c1atlas.__file__).parents[1]))
    env.pop("C1_ATLAS_CATALOG", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the benchmark's start-up probe, then one call per light subcommand
LIGHT_CALLS = {
    "probe": "c1atlas.cli.default_catalog()",
    "grading": 'assert c1atlas.cli.main(["grading", "--type", "B", "--rank", "6", "--j", "2"]) == 0',
    "roots": 'assert c1atlas.cli.main(["roots", "--type", "E8"]) == 0',
    "strings": 'assert c1atlas.cli.main(["strings", "--type", "G2", "--root", "1,0", "--beta", "0,1"]) == 0',
    "catalog": 'assert c1atlas.cli.main(["catalog", "--family", "BC"]) == 0',
}


def _modules_loaded_by(call: str, *flags: str) -> set:
    # a call reads `c1atlas.cli` or imports what it needs itself
    out = _fresh(
        "import io, json, sys, contextlib\n"
        "import c1atlas\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {call}\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        *flags,
    )
    return set(json.loads(out))


def _layers_loaded_by(call: str) -> set:
    loaded = _modules_loaded_by(call)
    return {name.removeprefix("c1atlas.") for name in loaded if name.startswith("c1atlas.")}


@pytest.mark.parametrize("call", sorted(LIGHT_CALLS))
def test_light_commands_load_no_heavy_layer(call):
    loaded = _layers_loaded_by(LIGHT_CALLS[call])
    assert not set(HEAVY_LAYERS) & loaded, loaded


# the mid-weight commands: argv, the layer each runs, the layers it must not load
MID_CALLS = {
    "analyze": (
        ["analyze", "--space", "G2^2/SO(4)", "--j", "2"],
        "nilcon",
        ("chevalley", "shapeops", "linalg", "classify", "verify"),
    ),
    "classify": (["classify", "--space", "E6^{-14}"], "classify", ("chevalley", "shapeops", "linalg", "verify")),
    "shape": (["shape", "--space", "G2^2/SO(4)", "--j", "2"], "shapeops", ("nilcon", "classify", "verify")),
    # the battery's shape checks take no characteristic polynomial, and its
    # root-space identities run on int term dicts: no solve, no rank
    "verify": (["verify"], "verify", ("linalg",)),
}


@pytest.mark.parametrize("command", sorted(MID_CALLS))
def test_mid_weight_commands_load_only_their_layers(command):
    argv, layer, unused = MID_CALLS[command]
    loaded = _layers_loaded_by(f"assert c1atlas.cli.main({argv!r}) == 0")
    assert layer in loaded and not set(unused) & loaded, loaded


def test_shape_with_zero_operators_loads_no_linalg():
    # every operator of SL(3,R)/SO(3) at j=1 is zero, so each charpoly is x^n
    # with no arithmetic; G2^2/SO(4) at j=2 has nonzero operators and may load it
    loaded = _layers_loaded_by('assert c1atlas.cli.main(["shape", "--space", "SL(3,R)/SO(3)", "--j", "1"]) == 0')
    assert "shapeops" in loaded and "linalg" not in loaded, loaded


def test_catalog_load_builds_no_root_system():
    # validation reads the closed-form class counts, so no system is generated
    out = _fresh(
        "import c1atlas.cli\n"
        "c1atlas.cli.default_catalog()\n"
        "print(sorted(c1atlas.rootsys._CACHE))\n"
    )
    assert out.strip() == "[]"


COMMAND_PATHS = {
    **LIGHT_CALLS,
    **{command: f"assert c1atlas.cli.main({argv!r}) == 0" for command, (argv, _, _) in MID_CALLS.items()},
    "api-dump": "from c1atlas import chevalley, rootsys; "
    "chevalley.dump_structure_constants(chevalley.build_algebra(rootsys.root_system('A', 3)))",
}

# Standard-library modules no command needs: `dataclasses` pulls in `inspect`
# (and with it `ast`, `dis` and `tokenize`), and `typing` is only ever wanted
# for annotations, which are strings here.
NO_COMMAND_NEEDS = ("dataclasses", "inspect", "typing")

# `argparse` and the `gettext`, `locale` and `shutil` it imports: a plain argv
# is read straight from `cli.COMMANDS`, and only help and usage errors build
# the parser.
ARGPARSE = ("argparse", "gettext", "locale", "shutil")

# `fractions` and the `decimal` and `numbers` it imports: a root length is a
# six-fold int from the catalog file to the printed text, a Killing length a
# reduced pair of ints, and building and dumping an algebra computes on ints
# alone.  `shape` and `verify` compute with Fractions and may load it.
FRACTIONS = ("fractions", "decimal", "numbers")
INT_ONLY_PATHS = ("probe", "roots", "grading", "strings", "catalog", "analyze", "classify", "api-dump")

# path -> the standard-library modules it must not load
UNUSED_STDLIB = {
    path: NO_COMMAND_NEEDS + ARGPARSE + (FRACTIONS if path in INT_ONLY_PATHS else ()) for path in COMMAND_PATHS
}


def test_api_dump_loads_no_linalg():
    # building and dumping an algebra needs no matrix solve or rank
    loaded = _layers_loaded_by(COMMAND_PATHS["api-dump"])
    assert "chevalley" in loaded and "linalg" not in loaded, loaded


@pytest.mark.parametrize("path", sorted(COMMAND_PATHS))
def test_command_paths_import_no_unused_stdlib_module(path):
    # -S: no site module, so nothing is loaded before the package is
    loaded = _modules_loaded_by(COMMAND_PATHS[path], "-S")
    assert "c1atlas.rootsys" in loaded
    unused = set(UNUSED_STDLIB[path])
    assert not unused & loaded, sorted(unused & loaded)


def test_help_still_builds_the_parser():
    # help and usage errors are argparse's, so `--help` loads it
    out = _fresh(
        "import io, json, sys, contextlib\n"
        "import c1atlas.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as help_text:\n"
        "    try:\n"
        "        c1atlas.cli.main(['roots', '--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert help_text.getvalue().startswith('usage: c1atlas roots'), help_text.getvalue()\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        "-S",
    )
    assert "argparse" in set(json.loads(out))


def test_bare_import_loads_no_layer():
    out = _fresh("import sys, c1atlas\nprint(sorted(m for m in sys.modules if m.startswith('c1atlas')))")
    assert out.strip() == "['c1atlas']"


# ways to read `classify` first in a fresh interpreter; each must give the
# function, though `import c1atlas.classify` binds the submodule under that name
FIRST_READS = {
    "attribute": "f = c1atlas.classify\nfrom c1atlas import classify as g\n",
    "from-import": "from c1atlas import classify as g\nf = c1atlas.classify\n",
    "star-import": "from c1atlas import *\nf = classify\ng = c1atlas.classify\n",
    "other-export-first": "c1atlas.ActionCatalog\nf = c1atlas.classify\nfrom c1atlas import classify as g\n",
    # verify loads the classify layer, which binds that submodule on the package
    "verify-export-first": "c1atlas.check_theta_bracket_identity\nf = c1atlas.classify\n"
    "from c1atlas import classify as g\n",
}


@pytest.mark.parametrize("first", sorted(FIRST_READS))
def test_exported_names_resolve_to_the_submodule_objects(first):
    out = _fresh(
        "import importlib, inspect, c1atlas\n"
        + FIRST_READS[first]
        + "assert inspect.isfunction(f) and f is g, (f, g)\n"
        "assert c1atlas.classify is f\n"
        "for module, names in c1atlas._EXPORTS.items():\n"
        "    source = importlib.import_module(f'c1atlas.{module}')\n"
        "    for name in names:\n"
        "        assert getattr(c1atlas, name) is getattr(source, name), name\n"
        "assert c1atlas.classify is f\n"
        "assert sorted(c1atlas.__all__) == sorted(n for ns in c1atlas._EXPORTS.values() for n in ns)\n"
        "try:\n"
        "    c1atlas.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert out.strip() == "ok"


@pytest.mark.parametrize("name", ["level_one", "build_root_system", "list_spaces", "homothetic_rank_one_pair"])
def test_removed_aliases_are_not_exported(name):
    assert name not in c1atlas.__all__
    with pytest.raises(AttributeError):
        getattr(c1atlas, name)


LAYERS = ("rootsys", "catalog", "chevalley", "shapeops", "nilcon", "cli", "errors", "scalars", "linalg", "verify")


def test_layers_are_package_attributes():
    out = _fresh(
        "import importlib, sys, c1atlas\n"
        "assert 'c1atlas.rootsys' not in sys.modules\n"
        "assert len(c1atlas.rootsys.root_system('A', 3).positives) == 6\n"
        f"for layer in {LAYERS!r}:\n"
        "    assert getattr(c1atlas, layer) is importlib.import_module(f'c1atlas.{layer}'), layer\n"
        "for missing in ('no_such_layer', '__wrapped__'):\n"
        "    try:\n"
        "        getattr(c1atlas, missing)\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(missing)\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"
