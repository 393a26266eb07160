"""Start-up footprint: ``import depmark`` loads no submodule, names resolve
on first use in any import order, and the commands that do no numerical
work never load numpy."""

import os
import subprocess
import sys

import pytest

import depmark
from conftest import REPO_ROOT

DFWCS = str(depmark.bundled_model_path("dfwcs.mdl"))
TABLE3 = str(depmark.bundled_table_path("table3.csv"))


def run_fresh(code: str, environ: dict[str, str] | None = None) -> None:
    """Run ``code`` in a new interpreter that imports depmark from this tree,
    with ``environ`` (default: this process's) as its environment."""
    environ = os.environ if environ is None else environ
    path = [str(REPO_ROOT / "src"), environ.get("PYTHONPATH", "")]
    env = dict(environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestImportFootprint:
    def test_bare_import_loads_no_submodule(self):
        run_fresh(
            "import sys, depmark\n"
            "assert [m for m in sys.modules if m.startswith('depmark.')] == [], sorted(sys.modules)\n"
            "depmark.parse, depmark.load_model, depmark.validate\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        )

    @pytest.mark.parametrize(
        "argv", [["--version"], ["validate", DFWCS], ["audit", "--table", TABLE3]],
        ids=["version", "validate", "audit"],
    )
    def test_command_does_not_import_numpy(self, argv):
        run_fresh(
            "import contextlib, io, sys\n"
            "from depmark.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main({argv!r})\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        )

    def test_validate_loads_no_numerical_module(self):
        run_fresh(
            "import contextlib, io, sys\n"
            "from depmark.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['validate', {DFWCS!r}]) == 0\n"
            "loaded = {'depmark.solve', 'depmark.analysis', 'depmark.simulate'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )

    def test_bad_solver_flag_refused_before_numpy(self):
        # SolverConfig lives in the numpy-free model module, and solve and
        # sweep build it before they load anything numerical
        run_fresh(
            "import contextlib, io, sys\n"
            "from depmark.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            f"    assert main(['solve', {DFWCS!r}, '--at', '4380', '--eps', '5e-324']) == 2\n"
            f"    assert main(['solve', {DFWCS!r}, '--at', '4380', '--dt', 'inf']) == 2\n"
            f"    assert main(['sweep', {DFWCS!r}, '--param', 'C', '--values', '0.9', '--at', '1',"
            " '--eps', '0']) == 2\n"
            "assert err.getvalue().count('error: ') == 3, err.getvalue()\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
            "loaded = {'depmark.solve', 'depmark.analysis', 'depmark.simulate'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )

    def test_bad_simulate_flag_refused_before_numpy(self):
        run_fresh(
            "import contextlib, io, sys\n"
            "from depmark.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            f"    assert main(['simulate', {DFWCS!r}, '--at', '4380', '--trials', '0']) == 2\n"
            f"    assert main(['simulate', {DFWCS!r}, '--at', '4380', '--trials', '5', '--seed', '-1']) == 2\n"
            f"    assert main(['simulate', {DFWCS!r}, '--at', '4380', '--trials', '5', '--seed', '{2**64}']) == 2\n"
            "assert err.getvalue().count('error: ') == 3, err.getvalue()\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
            "loaded = {'depmark.solve', 'depmark.analysis', 'depmark.simulate'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )

    def test_from_package_import_cli(self):
        # the import system asks the package for ``cli`` before it loads it
        run_fresh(
            "import sys\n"
            "from depmark import cli\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
            "loaded = {'depmark.solve', 'depmark.analysis', 'depmark.simulate'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "assert callable(cli.main)\n"
        )

    def test_dunder_probe_loads_nothing(self):
        # inspect.unwrap and mocking libraries probe names such as
        # ``__wrapped__`` that no submodule exports
        run_fresh(
            "import inspect, sys, depmark\n"
            "assert not hasattr(depmark, '__wrapped__')\n"
            "assert inspect.unwrap(depmark) is depmark\n"
            "assert [m for m in sys.modules if m.startswith('depmark.')] == [], sorted(sys.modules)\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
            "assert '__version__' in depmark.__all__\n"
        )


class TestLazyNamespace:
    @pytest.mark.parametrize(
        "first",
        ["import depmark.simulate", "import importlib; importlib.import_module('depmark.simulate')",
         "from depmark.simulate import BATCH_SIZE", "from depmark import simulate",
         "import depmark; depmark.simulate", "import depmark; depmark.BATCH_SIZE"],
    )
    def test_simulate_is_the_function_in_any_order(self, first):
        run_fresh(
            f"{first}\n"
            "import sys, types, depmark\n"
            "assert depmark.simulate is sys.modules['depmark.simulate'].simulate, depmark.simulate\n"
            "assert isinstance(depmark.simulate, types.FunctionType)\n"
            "assert depmark.solve is sys.modules['depmark.solve'], depmark.solve\n"
        )

    def test_star_import_binds_every_public_name(self):
        run_fresh(
            "from depmark import *\n"
            "import depmark\n"
            "missing = [n for n in depmark.__all__ if globals().get(n) is not getattr(depmark, n)]\n"
            "assert not missing, missing\n"
            "assert callable(simulate) and not isinstance(simulate, type(depmark))\n"
        )

    def test_dir_lists_every_public_name(self):
        run_fresh(
            "import depmark\n"
            "listed = dir(depmark)\n"
            "missing = set(depmark.__all__) - set(listed)\n"
            "assert not missing and listed == sorted(listed), missing\n"
        )

    def test_unknown_name_is_an_attribute_error(self):
        run_fresh(
            "import depmark\n"
            "try:\n"
            "    depmark.nope\n"
            "except AttributeError as err:\n"
            "    assert 'nope' in str(err)\n"
            "else:\n"
            "    raise AssertionError('depmark.nope resolved')\n"
            "assert not hasattr(depmark, 'nope')\n"
        )


class TestBlasThreads:
    """The CLI runs OpenBLAS on one thread unless the user chose otherwise or
    numpy was loaded first (too late to choose)."""

    @staticmethod
    def unpinned() -> dict[str, str]:
        return {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}

    def test_one_thread_by_default(self):
        run_fresh(
            "import os, sys\n"
            "from depmark.cli import main\n"
            f"assert main(['solve', {DFWCS!r}, '--at', '1']) == 0\n"
            "assert os.environ.get('OPENBLAS_NUM_THREADS') == '1'\n"
            "assert 'numpy' in sys.modules\n",
            self.unpinned(),
        )

    @pytest.mark.parametrize(
        "setting", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "3"}], ids=["openblas", "omp"]
    )
    def test_user_setting_wins(self, setting):
        expected = setting.get("OPENBLAS_NUM_THREADS")
        run_fresh(
            "import os\n"
            "from depmark.cli import main\n"
            f"assert main(['solve', {DFWCS!r}, '--at', '1']) == 0\n"
            f"assert os.environ.get('OPENBLAS_NUM_THREADS') == {expected!r}\n",
            dict(self.unpinned(), **setting),
        )

    def test_numpy_loaded_first_is_left_alone(self):
        run_fresh(
            "import os, numpy\n"
            "from depmark.cli import main\n"
            f"assert main(['solve', {DFWCS!r}, '--at', '1']) == 0\n"
            "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n",
            self.unpinned(),
        )
