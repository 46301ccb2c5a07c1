"""What a CLI process and `import gadgetforge` load.

A subcommand imports only the library modules it runs, and the package
resolves its exports on first access, so `python -m gadgetforge.cli verify`
starts without the solver, the renderer, extraction or the standard
library's XML and HTTP packages.  These tests pin that, so that an import
moved back to a module's top shows up here instead of in start-up time.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import gadgetforge
from gadgetforge.reduction import build_jobs
from gadgetforge.synthesis import build_schedule
from gadgetforge.threepartition import gen_yes

SRC = Path(gadgetforge.__file__).resolve().parent.parent

# Runs the CLI as `python -m gadgetforge.cli` does (through runpy), then
# writes the names in sys.modules to the file named by the first argument.
_PROBE = """
import runpy, sys
out = sys.argv.pop(1)
try:
    runpy.run_module("gadgetforge.cli", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
"""

NEVER = {"xml.sax", "http.client"}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def _cli_modules(tmp_path: Path, *argv: str) -> set[str]:
    """The modules loaded by one CLI process that exits 0."""
    out = tmp_path / "modules.txt"
    done = _python("-c", _PROBE, str(out), *argv)
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)
    return set(out.read_text(encoding="utf-8").split())


@pytest.fixture(scope="module")
def z1_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    inst3, witness = gen_yes(1, 5)
    inst = build_jobs(inst3)
    (root / "inst.json").write_text(inst.to_json(), encoding="utf-8")
    (root / "sched.json").write_text(build_schedule(inst, witness).to_json(),
                                     encoding="utf-8")
    return root


@pytest.mark.parametrize(
    "argv, library",
    [
        (["gen3p", "--yes", "--z", "1", "--seed", "5"], {"threepartition"}),
        (["verify", "--inst", "{dir}/inst.json", "--sched", "{dir}/sched.json"],
         {"threepartition", "reduction", "schedule"}),
        (["decide", "--inst", "{dir}/inst.json", "--target-w"],
         {"threepartition", "reduction", "schedule", "solver"}),
    ],
    ids=["gen3p", "verify", "decide"],
)
def test_a_subcommand_loads_only_what_it_runs(z1_files, tmp_path, argv, library):
    argv = [a.replace("{dir}", str(z1_files)) for a in argv]
    loaded = _cli_modules(tmp_path, *argv)
    ours = {m.removeprefix("gadgetforge.") for m in loaded if m.startswith("gadgetforge.")}
    assert ours == {"exactnum", *library}  # the cli itself runs as __main__
    assert not NEVER & loaded


def test_importing_the_package_loads_none_of_its_modules():
    done = _python("-c", "import sys, gadgetforge; print(' '.join(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "gadgetforge" in loaded
    assert not {m for m in loaded if m.startswith("gadgetforge.")}


EXPORTS = (
    "CoeffVector", "compose", "decompose", "digit_bound", "InvalidInput",
    "ExtractionTrace", "RefutationCertificate", "extract_partition",
    "normalize_machines",
    "Job", "SchedulingInstance", "StripInstance",
    "build_jobs", "build_strip", "forced_starts", "recognize", "recover_values",
    "render_packing_svg", "render_schedule_svg",
    "Schedule", "VerifyReport", "audit", "mirror", "swap_after", "verify",
    "Decision", "PruneRules", "decide_target", "optimize_small",
    "Packing", "normalize", "packing_to_schedule", "schedule_to_packing",
    "verify_packing",
    "build_packing", "build_schedule",
    "Partition", "ThreePartitionInstance", "gen_no", "gen_yes", "solve",
    "validate_partition",
    "__version__",
)


def test_every_export_is_its_defining_modules_object():
    assert sorted(gadgetforge.__all__) == sorted(EXPORTS)
    for name in gadgetforge.__all__:
        if name == "__version__":
            continue
        home = import_module(f"gadgetforge.{gadgetforge._EXPORTS[name]}")
        assert getattr(gadgetforge, name) is getattr(home, name), name
        assert name in dir(gadgetforge)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gadgetforge import *", namespace)
    for name in gadgetforge.__all__:
        assert namespace[name] is getattr(gadgetforge, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gadgetforge.no_such_name
    with pytest.raises(ImportError):
        exec("from gadgetforge import no_such_name", {})
    assert not hasattr(gadgetforge, "no_such_name")


def test_not_target_makespan_is_one_class():
    from gadgetforge import extraction, schedule

    assert extraction.NotTargetMakespan is schedule.NotTargetMakespan
    assert issubclass(schedule.NotTargetMakespan, ValueError)


# the exceptions that are no refused input: a refutation of a schedule, and
# a search that ran out of budget
NOT_INPUT_ERRORS = {"RefutationCertificate", "SearchBudgetExceeded"}


def test_every_exception_of_the_package_is_an_input_error_or_named():
    """One type stands for a refused input, which the CLI exits 2 on (or 1
    for `NotTargetMakespan`); any other exception class the package
    defines must be one of the two named above, so a new one cannot
    slip past the exit-code table."""
    from gadgetforge.exactnum import InvalidInput

    found = {}
    for path in sorted(SRC.joinpath("gadgetforge").glob("*.py")):
        module = import_module(f"gadgetforge.{path.stem}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ):
                found[value.__name__] = value
    assert {"InvalidInput", "CrossingJob", "NotTargetMakespan"} <= found.keys()
    outside = {
        name for name, cls in found.items()
        if not issubclass(cls, InvalidInput) and name not in NOT_INPUT_ERRORS
    }
    assert not outside
    assert NOT_INPUT_ERRORS <= found.keys()
