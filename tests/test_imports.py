"""What ``import matroid_kappa`` loads, and that lazy names resolve.

Every case runs in a fresh interpreter, since the modules a test session
has already imported would hide what a plain import loads.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import matroid_kappa

SRC = pathlib.Path(matroid_kappa.__file__).parent.parent
EAGER = ["budgets", "connectivity", "constructions", "core", "errors"]


# every case starts from a plain import; loaded() names the submodules in sys.modules
PRELUDE = """\
import json
import sys

import matroid_kappa


def loaded():
    prefix = "matroid_kappa."
    return sorted(n[len(prefix):] for n in sys.modules if n.startswith(prefix))
"""


def run_fresh(code: str):
    """Run the prelude and ``code`` in a new interpreter; returns the JSON
    that the last line of its output holds."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_the_finite_toolkit_only():
    assert run_fresh("print(json.dumps(loaded()))") == EAGER


def test_a_windows_name_loads_windows_and_linking_only():
    got = run_fresh(
        """
        matroid_kappa.double_ladder
        print(json.dumps(loaded()))
        """
    )
    assert got == sorted(EAGER + ["linking", "windows"])


def test_every_public_name_is_its_defining_modules_object():
    got = run_fresh(
        """
        wrong = []
        for name in matroid_kappa.__all__:
            obj = getattr(matroid_kappa, name)
            home = obj.__module__
            if not home.startswith("matroid_kappa.") or getattr(sys.modules[home], name) is not obj:
                wrong.append(name)
        print(json.dumps({"count": len(matroid_kappa.__all__), "wrong": wrong}))
        """
    )
    assert got == {"count": len(matroid_kappa.__all__), "wrong": []}


def test_star_import_submodule_import_and_dir_cover_all():
    got = run_fresh(
        """
        from matroid_kappa import windows

        namespace = {}
        exec("from matroid_kappa import *", namespace)
        print(json.dumps({
            "all": matroid_kappa.__all__,
            "star": sorted(n for n in namespace if n != "__builtins__"),
            "dir": dir(matroid_kappa),
            "windows": windows.__name__,
            "same": windows.double_ladder is matroid_kappa.double_ladder,
        }))
        """
    )
    assert got["star"] == sorted(got["all"])
    assert set(got["all"]) | {"linking", "windows", "axioms", "fileformat"} <= set(got["dir"])
    assert got["windows"] == "matroid_kappa.windows"
    assert got["same"] is True


def test_unknown_name_is_an_attribute_error():
    got = run_fresh(
        """
        try:
            matroid_kappa.no_such_name
            raised = None
        except AttributeError as exc:
            raised = str(exc)
        print(json.dumps({
            "raised": raised,
            "hasattr": hasattr(matroid_kappa, "no_such_name"),
            "loaded": loaded(),
        }))
        """
    )
    assert got["raised"] == "module 'matroid_kappa' has no attribute 'no_such_name'"
    assert got["hasattr"] is False
    assert got["loaded"] == EAGER
