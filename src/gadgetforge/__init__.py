"""gadgetforge: exact 3-Partition gadget reductions, verifiers, and deciders.

The package turns a hardness construction into runnable artifacts: generate
number-partition instances, expand them into rigid-job schedules on four
machines (or strip packings of width W), synthesize and check the canonical
zero-idle schedule for a witness, pull the witness back out of any feasible
target-makespan schedule, and decide small instances exactly.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it.  A name is imported on
# first access (PEP 562), so `python -m gadgetforge.cli` loads only the
# modules its subcommand runs.
_EXPORTS = {
    "CoeffVector": "exactnum",
    "compose": "exactnum",
    "decompose": "exactnum",
    "digit_bound": "exactnum",
    "InvalidInput": "exactnum",
    "ExtractionTrace": "extraction",
    "RefutationCertificate": "extraction",
    "extract_partition": "extraction",
    "normalize_machines": "extraction",
    "Job": "reduction",
    "SchedulingInstance": "reduction",
    "StripInstance": "reduction",
    "build_jobs": "reduction",
    "build_strip": "reduction",
    "forced_starts": "reduction",
    "recognize": "reduction",
    "recover_values": "reduction",
    "render_packing_svg": "render",
    "render_schedule_svg": "render",
    "Schedule": "schedule",
    "VerifyReport": "schedule",
    "audit": "schedule",
    "mirror": "schedule",
    "swap_after": "schedule",
    "verify": "schedule",
    "Decision": "solver",
    "PruneRules": "solver",
    "decide_target": "solver",
    "optimize_small": "solver",
    "Packing": "strip",
    "normalize": "strip",
    "packing_to_schedule": "strip",
    "schedule_to_packing": "strip",
    "verify_packing": "strip",
    "build_packing": "synthesis",
    "build_schedule": "synthesis",
    "Partition": "threepartition",
    "ThreePartitionInstance": "threepartition",
    "gen_no": "threepartition",
    "gen_yes": "threepartition",
    "solve": "threepartition",
    "validate_partition": "threepartition",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
