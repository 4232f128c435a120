"""Public API surface: imports, exports, versioning."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

_PUBLIC_MODULES = (
    "repro",
    "repro.analysis",
    "repro.asic",
    "repro.cli",
    "repro.cores",
    "repro.harness",
    "repro.isa",
    "repro.kernel",
    "repro.mem",
    "repro.rtosunit",
    "repro.wcet",
    "repro.workloads",
)


@pytest.mark.parametrize("name", _PUBLIC_MODULES)
def test_module_imports_cleanly(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_exports_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("name", _PUBLIC_MODULES)
def test_all_exports_exist(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.{export}"


def test_key_entry_points_callable():
    from repro.harness import run_suite, run_workload, sweep
    from repro.kernel import build_kernel_system
    from repro.rtosunit.config import parse_config
    from repro.wcet import analyze_bounds, analyze_config

    for fn in (run_suite, run_workload, sweep, build_kernel_system,
               parse_config, analyze_bounds, analyze_config):
        assert callable(fn)


_IMPORT_SCRIPT = """
import sys
import repro.cli, repro.dse.executor, repro.service.server
import repro.harness.experiment
print(sorted(name for name in sys.modules if name.partition(".")[0] == "numpy"))
"""

_NO_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now fails
import repro.harness.experiment as experiment
from repro.harness.export import run_dict
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads import yield_pingpong

config = parse_config("SLT")
run = experiment.run_workload("cv32e40p", config, yield_pingpong(2))
workload = yield_pingpong(2)
system = KernelBuilder(config=config, objects=workload.objects,
                       tick_period=workload.tick_period).build("cv32e40p")
system.run(max_cycles=workload.max_cycles)
clone = system.capture().materialize()
restored = experiment._result_from(clone, "cv32e40p", config, workload, 0)
print(json.dumps([run_dict(run), run_dict(restored)]))
"""


def _run_script(script: str) -> str:
    """Run *script* in a fresh interpreter on this package; its stdout."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_importing_repro_never_imports_numpy():
    assert _run_script(_IMPORT_SCRIPT).strip() == "[]"


def test_repro_runs_without_numpy():
    """A run and a checkpoint round trip give the same results with
    NumPy unimportable."""
    from repro.harness import run_workload
    from repro.harness.export import run_dict
    from repro.rtosunit.config import parse_config
    from repro.workloads import yield_pingpong

    out = _run_script(_NO_NUMPY_SCRIPT)
    expected = json.loads(json.dumps(run_dict(run_workload(
        "cv32e40p", parse_config("SLT"), yield_pingpong(2)))))
    assert json.loads(out) == [expected, expected]
