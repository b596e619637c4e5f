"""The exact layer starts without NumPy; the numeric exports load on first use."""

import importlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import deltahyp

SRC = pathlib.Path(deltahyp.__file__).parents[1]

NUMPY_AFTER_EACH_STEP = textwrap.dedent(
    """
    import contextlib, io, sys

    def step(label):
        print(label, "numpy" in sys.modules)

    import deltahyp
    step("import deltahyp")
    import deltahyp.cli
    step("import deltahyp.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        code = deltahyp.cli.main(["replay", "--n", "4"])
    step(f"replay {code}")
    with contextlib.redirect_stdout(io.StringIO()):
        code = deltahyp.cli.main(["--help"])
    step(f"help {code}")
    with contextlib.redirect_stdout(io.StringIO()):
        code = deltahyp.cli.main(["delta", "--r", "2", "--spectrum", "1,2,3,6"])
    step(f"delta {code}")
    """
)


def test_replay_path_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_AFTER_EACH_STEP],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines() == [
        "import deltahyp False",
        "import deltahyp.cli False",
        "replay 0 False",
        "help 0 False",
        "delta 0 True",
    ]


EXACT_EXPORTS_BOUND_AT_IMPORT = textwrap.dedent(
    """
    import sys
    import deltahyp

    exact = [name for module, names in deltahyp._EXPORTS.items()
             if module not in deltahyp._NUMERIC for name in names]
    print(sorted(set(exact) - set(vars(deltahyp))), "numpy" in sys.modules)
    """
)


def test_export_table_lists_each_name_once():
    # a name under two modules would keep only its last home, and the derived
    # __all__ would hide the repeat
    assert sum(map(len, deltahyp._EXPORTS.values())) == len(deltahyp.__all__)


def test_exact_exports_are_bound_when_the_package_loads():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", EXACT_EXPORTS_BOUND_AT_IMPORT],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout == "[] False\n"


def test_every_export_is_its_home_module_object():
    for name in deltahyp.__all__:
        value = getattr(deltahyp, name)
        # FRAME_VARS, a tuple, is the one export without a __module__
        home = importlib.import_module(getattr(value, "__module__", "deltahyp.derivation"))
        assert getattr(home, name) is value, name


def test_dir_lists_every_export():
    assert set(deltahyp.__all__) <= set(dir(deltahyp))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        deltahyp.no_such_name  # noqa: B018


def test_submodules_and_the_resultant_function_still_resolve():
    from deltahyp import stiefel

    assert stiefel is importlib.import_module("deltahyp.stiefel")
    # the function, not the submodule of the same name
    assert deltahyp.resultant is importlib.import_module("deltahyp.resultant").resultant
