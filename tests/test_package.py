"""The package loads each module on first use of one of its names."""

from __future__ import annotations

import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import specload

SRC = Path(specload.__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports specload from SRC."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + textwrap.dedent(code)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout


def test_importing_the_fixture_loads_no_client_or_simulator():
    out = run_fresh(
        """
        import specload.fixture
        print(sorted(m for m in ("urllib3", "specload.live", "specload.sim") if m in sys.modules))
        """
    )
    assert out == "[]\n"


def test_every_exported_name_is_its_defining_modules_object():
    for name in specload.__all__:
        owner = importlib.import_module(f"specload.{specload._OWNER[name]}")
        assert getattr(specload, name) is getattr(owner, name), name
        assert name in dir(specload), name


def test_predict_stays_the_function_once_its_module_loads():
    # Loading specload.predict binds the module on the package as
    # "predict"; the exported function must still win, whichever
    # import comes first.
    out = run_fresh(
        """
        import specload.sim
        import specload
        from specload import predict
        print(callable(specload.predict), predict is specload.predict)
        """
    )
    assert out == "True True\n"


def test_a_module_is_an_attribute_of_the_package_before_its_import():
    out = run_fresh(
        """
        import specload
        print(specload.graph.__name__, "graph" in dir(specload))
        """
    )
    assert out == "specload.graph True\n"
