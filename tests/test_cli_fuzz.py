"""Fuzz the CLI loaders: arbitrary JSON in place of a valid z=1 file, or of
one field of it, must end in a documented exit code other than 70, which
is a fault of the program, with no exception escaping and at most one JSON
document on stdout.  A valid file with one key of an object repeated, or a
valid schedule with one job's machine repeated, must exit 2 with nothing
on stdout.

A fuzzed instance reaches `decide` with a budget of 50 nodes per root
branch, which keeps each search small.  The answers of `decide` are
checked apart from the loaders, on instances of at most eight jobs.
"""

import json
from itertools import product

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from gadgetforge.cli import main
from gadgetforge.reduction import Job, SchedulingInstance, build_jobs, build_strip
from gadgetforge.solver import DEFAULT_BUDGET, PruneRules, decide_target, optimize_small
from gadgetforge.strip import schedule_to_packing
from gadgetforge.synthesis import build_schedule
from gadgetforge.threepartition import gen_yes, partition_to_json

from conftest import contiguous_optimum, with_repeated_key

# the commands that read each file, with "{}" where the file goes
COMMANDS = {
    "inst3.json": [
        ["reduce", "--in", "{}"],
        ["reduce", "--in", "{}", "--strip"],
    ],
    "inst.json": [
        ["verify", "--inst", "{}", "--sched", "sched.json"],
        ["audit", "--inst", "{}", "--sched", "sched.json"],
        ["extract", "--inst", "{}", "--sched", "sched.json"],
        ["synth", "--inst", "{}", "--witness", "w.json"],
        ["render", "--inst", "{}", "--sched", "sched.json", "--out", "fig.svg"],
        ["decide", "--inst", "{}", "--target-w", "--budget", "50"],
    ],
    "sched.json": [
        ["verify", "--inst", "inst.json", "--sched", "{}"],
        ["audit", "--inst", "inst.json", "--sched", "{}"],
        ["extract", "--inst", "inst.json", "--sched", "{}"],
        ["render", "--inst", "inst.json", "--sched", "{}", "--out", "fig.svg"],
    ],
    "strip.json": [
        ["render", "--strip", "{}", "--packing", "pack.json", "--out", "fig.svg"],
    ],
    "pack.json": [
        ["render", "--strip", "strip.json", "--packing", "{}", "--out", "fig.svg"],
    ],
    "w.json": [
        ["synth", "--inst", "inst.json", "--witness", "{}"],
    ],
}

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["0", "-1", "9", "1/0", "1/2", "P_1", "A_0", "x_1", "10" * 12])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _paths(node, prefix=()):
    """Every place in a JSON document, the whole document first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _replaced(node, path, value):
    if not path:
        return value
    node = json.loads(json.dumps(node))
    _at(node, path[:-1])[path[-1]] = value
    return node


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The directory holding one valid z=1 file of each kind, and the
    parsed documents."""
    root = tmp_path_factory.mktemp("fuzz")
    inst3, witness = gen_yes(1, 5)
    inst = build_jobs(inst3)
    sched = build_schedule(inst, witness)
    texts = {
        "inst3.json": inst3.to_json(),
        "inst.json": inst.to_json(),
        "sched.json": sched.to_json(),
        "strip.json": build_strip(inst3).to_json(),
        "pack.json": schedule_to_packing(inst, sched).to_json(),
        "w.json": partition_to_json(witness),
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return root, {name: json.loads(text) for name, text in texts.items()}


@st.composite
def fuzzed_calls(draw, documents):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    paths = list(_paths(documents[name]))
    path = draw(st.just(()) | st.sampled_from(paths))
    document = _replaced(documents[name], path, draw(json_values))
    command = draw(st.sampled_from(COMMANDS[name]))
    return name, json.dumps(document), command


@st.composite
def repeated_keys(draw, documents):
    """A valid file in which one object names one of its keys once more,
    in front, with an arbitrary value."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    document = documents[name]
    objects = [p for p in _paths(document) if isinstance(_at(document, p), dict)]
    path = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(sorted(_at(document, path))))
    text = with_repeated_key(document, path, key, draw(json_values))
    return name, text, draw(st.sampled_from(COMMANDS[name]))


@st.composite
def repeated_machines(draw, documents):
    """The valid schedule with one of a job's machines listed twice."""
    document = documents["sched.json"]
    job = draw(st.sampled_from(sorted(document["machines"])))
    listed = document["machines"][job]
    twice = draw(st.permutations([*listed, draw(st.sampled_from(listed))]))
    text = json.dumps(_replaced(document, ("machines", job), twice))
    return "sched.json", text, draw(st.sampled_from(COMMANDS["sched.json"]))


def _invoke(root, name, text, command):
    """Run `command` with `text` as the file `name` and the valid files for
    the rest."""
    fuzzed = root / f"fuzzed-{name}"
    fuzzed.write_text(text)

    def place(arg):
        if arg == "{}":
            return str(fuzzed)
        return str(root / arg) if arg.endswith((".json", ".svg")) else arg

    return CliRunner().invoke(main, [place(arg) for arg in command])


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzzed_inputs_end_in_a_documented_exit_code(valid, data):
    root, documents = valid
    name, text, command = data.draw(fuzzed_calls(documents))
    result = _invoke(root, name, text, command)
    escaped = result.exception
    assert escaped is None or isinstance(escaped, SystemExit), (
        f"{command[0]} on {name} = {text[:300]}: {escaped!r}"
    )
    assert result.exit_code in (0, 1, 2, 3), (result.exit_code, result.stderr)
    lines = result.stdout.splitlines()
    assert len(lines) <= 1, result.stdout[:300]
    if lines:
        json.loads(lines[0])


@pytest.mark.parametrize("repeated", [repeated_keys, repeated_machines])
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_repeated_key_or_machine_exits_two(valid, repeated, data):
    root, documents = valid
    name, text, command = data.draw(repeated(documents))
    result = _invoke(root, name, text, command)
    assert result.exit_code == 2, (command[0], name, text[:300], result.stdout)
    assert result.stdout == ""


# a document nested past the depth `json.loads` can recurse to, once per
# file slot, and a 3-partition instance whose values are nested that deep
DEEP = "[" * 200_000 + "]" * 200_000
DEEP_CASES = {name: (DEEP, commands[0]) for name, commands in COMMANDS.items()}
DEEP_CASES["inst3.json"] = ('{"values":' + DEEP + "}", ["reduce", "--in", "{}"])


@pytest.mark.parametrize("name", sorted(DEEP_CASES))
def test_json_nested_too_deeply_exits_two(valid, tmp_path, name):
    root, _ = valid
    text, command = DEEP_CASES[name]
    deep = tmp_path / name
    deep.write_text(text)
    args = [
        str(deep) if arg == "{}"
        else str(root / arg) if arg.endswith((".json", ".svg"))
        else arg
        for arg in command
    ]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, repr(result.exception)
    assert result.stdout == ""
    assert "is nested too deeply to read" in result.stderr


@st.composite
def small_decisions(draw):
    """At most eight jobs on four machines and a target T: a carve of a
    full 4 x T rectangle, so a plain witness exists, or arbitrary jobs,
    topped up by a one-machine job to work divisible by 4 when there are
    fewer than eight, at a quarter of their work or one unit more or less."""
    dims = []
    if draw(st.booleans()):
        target = draw(st.integers(1, 5))
        free = [0] * 4
        while min(free) < target and len(dims) < 8:
            t = min(free)
            idle = [k for k in range(4) if free[k] == t]
            q = draw(st.integers(1, len(idle)))
            p = draw(st.integers(1, target - t))
            for k in draw(st.permutations(idle))[:q]:
                free[k] = t + p
            dims.append((p, q))
    else:
        pq = st.tuples(st.integers(1, 6), st.integers(1, 4))
        dims = draw(st.lists(pq, min_size=1, max_size=8))
        total = sum(p * q for p, q in dims)
        if total % 4 and len(dims) < 8:
            dims.append((4 - total % 4, 1))
        total = sum(p * q for p, q in dims)
        target = max(1, total // 4 + draw(st.integers(-1, 1)))
    jobs = tuple(
        Job(id=f"J{i}", p=p, q=q, tag="J", index=i) for i, (p, q) in enumerate(dims)
    )
    return SchedulingInstance(m=4, z=0, D=0, W=0, jobs=jobs), target


# the exit code of each outcome, as the cli module's docstring lists them
DECIDE_EXITS = {"witness": 0, "proved-none": 1, "refused": 2, "budget-exceeded": 3}


@pytest.fixture(scope="module")
def decide_file(tmp_path_factory):
    return tmp_path_factory.mktemp("decide") / "inst.json"


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=small_decisions())
def test_decide_answers_as_the_exact_optima(decide_file, case):
    # Under every rule set, plain and contiguous, at budgets 1, 7 and the
    # default, an answered decision must agree with an exact optimizer: a
    # witness at T exactly when the optimum is T, and a refusal only when
    # the work is below 4T, where a target schedule would idle.  At the
    # default budget every decision is answered.  `decide` on the same
    # file exits with the documented code of the library's decision.
    inst, target = case
    optimum = {
        False: optimize_small(inst.jobs)[0],
        True: contiguous_optimum(inst.jobs, cap=target),
    }
    decide_file.write_text(inst.to_json())
    rule_sets = [PruneRules(*flags) for flags in product((True, False), repeat=3)]
    for contiguous, budget in product((False, True), (1, 7, DEFAULT_BUDGET)):
        for rules in rule_sets:
            decision = decide_target(inst, target, contiguous, budget=budget, rules=rules)
            if decision.outcome == "refused":
                assert inst.total_work < 4 * target
            elif decision.outcome == "budget-exceeded":
                assert budget != DEFAULT_BUDGET
            else:
                witness = decision.outcome == "witness"
                assert witness == (optimum[contiguous] == target), (contiguous, rules)
        args = ["decide", "--inst", str(decide_file), "--target", str(target)]
        args += ["--budget", str(budget)] + ["--contiguous"] * contiguous
        result = CliRunner().invoke(main, args)
        want = decide_target(inst, target, contiguous, budget=budget)
        assert result.exit_code == DECIDE_EXITS[want.outcome], result.stderr
        assert json.loads(result.stdout)["outcome"] == want.outcome
