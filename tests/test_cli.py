import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from gadgetforge import cli
from gadgetforge.cli import main
from gadgetforge.reduction import Job, SchedulingInstance, StripInstance
from gadgetforge.schedule import Schedule
from gadgetforge.strip import schedule_to_packing

from conftest import with_repeated_key

runner = CliRunner()


def run(*args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated z=1 pipeline reused by every test."""
    root = tmp_path_factory.mktemp("cli")
    gen = run("gen3p", "--yes", "--z", "1", "--seed", "5",
              "--witness-out", str(root / "w.json"))
    assert gen.exit_code == 0
    (root / "inst3.json").write_text(
        json.dumps(json.loads(gen.stdout)["instance"])
    )
    red = run("reduce", "--in", str(root / "inst3.json"))
    (root / "inst.json").write_text(red.stdout)
    strip = run("reduce", "--in", str(root / "inst3.json"), "--strip")
    (root / "strip.json").write_text(strip.stdout)
    syn = run("synth", "--inst", str(root / "inst.json"),
              "--witness", str(root / "w.json"))
    (root / "sched.json").write_text(syn.stdout)
    packing = schedule_to_packing(
        SchedulingInstance.from_json(red.stdout), Schedule.from_json(syn.stdout)
    )
    (root / "pack.json").write_text(packing.to_json())
    return root


def tampered(workspace, tmp_path, **moves):
    sched = Schedule.from_json((workspace / "sched.json").read_text())
    starts = dict(sched.starts)
    for job_id, delta in moves.items():
        starts[job_id] += delta
    out = tmp_path / "tampered.json"
    out.write_text(Schedule(starts=starts, machines=sched.machines).to_json())
    return str(out)


def test_gen3p_yes_payload_and_witness_file(workspace):
    payload = json.loads((workspace / "inst3.json").read_text())
    assert payload["z"] == 1 and len(payload["values"]) == 3
    witness = json.loads((workspace / "w.json").read_text())
    assert witness["sets"] == [[1, 2, 3]]


def test_gen3p_no_emits_null_witness():
    result = run("gen3p", "--no", "--z", "2", "--seed", "3")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["witness"] is None


def test_gen3p_no_balances_at_a_large_z():
    result = run("gen3p", "--no", "--z", "150", "--seed", "18")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["witness"] is None and len(payload["instance"]["values"]) == 450


def test_a_spent_search_budget_exits_3(monkeypatch):
    from gadgetforge import cli
    from gadgetforge.threepartition import SearchBudgetExceeded

    def spent(z, seed):
        raise SearchBudgetExceeded(7)

    monkeypatch.setattr(cli, "gen_no", spent)
    result = run("gen3p", "--no", "--z", "2", "--seed", "0")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "budget: search exceeded node budget after 7 nodes\n"


def test_an_unreadable_file_exits_2(workspace, monkeypatch):
    # a suite that runs as root can read any file, so the read itself fails
    def refused(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", refused)
    path = str(workspace / "inst3.json")
    result = run("reduce", "--in", path)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"invalid input: cannot read {path}: Permission denied\n"


def test_an_os_error_without_strerror_is_named_by_its_text(workspace, tmp_path, monkeypatch):
    # an OSError raised with one argument has no strerror
    def boom(self, *args, **kwargs):
        raise OSError("boom")

    monkeypatch.setattr(Path, "read_text", boom)
    path = str(workspace / "inst3.json")
    result = run("reduce", "--in", path)
    assert result.exit_code == 2
    assert result.stderr == f"invalid input: cannot read {path}: boom\n"
    monkeypatch.undo()
    monkeypatch.setattr(Path, "write_text", boom)
    path = tmp_path / "w.json"
    result = run("gen3p", "--yes", "--z", "1", "--seed", "0", "--witness-out", str(path))
    assert _refused_path(result, path) == f"invalid input: cannot write {path}: boom"


def test_gen3p_witness_out_requires_yes(tmp_path):
    result = run("gen3p", "--no", "--z", "2", "--seed", "3",
                 "--witness-out", str(tmp_path / "w.json"))
    assert result.exit_code == 2


def test_gen3p_needs_a_mode():
    # click's usage error passes through the exit-code guard untouched
    result = run("gen3p", "--z", "1", "--seed", "0")
    assert result.exit_code == 2
    assert "give --yes or --no" in result.stderr


def test_reduce_emits_parseable_instances(workspace):
    inst = SchedulingInstance.from_json((workspace / "inst.json").read_text())
    assert len(inst.jobs) == 12 * inst.z + 5
    strip = StripInstance.from_json((workspace / "strip.json").read_text())
    assert strip.W == inst.W


def test_verify_feasible_exit_zero(workspace):
    result = run("verify", "--inst", str(workspace / "inst.json"),
                 "--sched", str(workspace / "sched.json"))
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["feasible"] and report["idle"] == "0"


def test_verify_infeasible_exit_one(workspace, tmp_path):
    bad = tampered(workspace, tmp_path, A_0=1)
    result = run("verify", "--inst", str(workspace / "inst.json"), "--sched", bad)
    assert result.exit_code == 1
    assert not json.loads(result.stdout)["feasible"]


def hand_written(tmp_path, jobs, starts):
    """An instance and a one-machine-per-job schedule written by hand,
    bypassing the library's constructors."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "m": 4, "z": 0, "D": "0", "W": "4",
        "jobs": [{"id": jid, "p": str(p), "q": 1, "tag": "J"} for jid, p in jobs],
    }))
    sched = tmp_path / "sched.json"
    sched.write_text(Schedule(
        starts=starts, machines={jid: frozenset({1}) for jid in starts},
    ).to_json())
    return str(inst), str(sched)


@pytest.mark.parametrize(
    "jobs, starts, reason",
    [
        ([("J", 4), ("J", 4)], {"J": 0}, "job id 'J' is used twice"),
        ([("K", 4), ("J", -2)], {"K": 0, "J": 3}, "job 'J' has nonpositive length -2"),
    ],
    ids=["duplicate-id", "negative-length"],
)
def test_verify_rejects_malformed_jobs(tmp_path, jobs, starts, reason):
    inst, sched = hand_written(tmp_path, jobs, starts)
    result = run("verify", "--inst", inst, "--sched", sched)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert reason in result.stderr


def _loader_command(workspace, name, path):
    """A subcommand that reads the file `name` from `path` and the rest of
    the pipeline from the workspace."""
    ws = {n: str(workspace / n) for n in ("inst.json", "sched.json", "strip.json", "pack.json")}
    ws[name] = path
    out = str(Path(path).with_suffix(".svg"))
    return {
        "inst3.json": ["reduce", "--in", path],
        "inst.json": ["verify", "--inst", path, "--sched", ws["sched.json"]],
        "sched.json": ["verify", "--inst", ws["inst.json"], "--sched", path],
        "strip.json": ["render", "--strip", path, "--packing", ws["pack.json"], "--out", out],
        "pack.json": ["render", "--strip", ws["strip.json"], "--packing", path, "--out", out],
        "w.json": ["synth", "--inst", ws["inst.json"], "--witness", path],
    }[name]


def _run_edited(workspace, tmp_path, name, keys, bad):
    """Run `name`'s loader command on a copy of the workspace file whose
    field at `keys` is replaced by `bad(old value)`."""
    payload = json.loads((workspace / name).read_text())
    *path, last = keys
    node = payload
    for key in path:
        node = node[key]
    node[last] = bad(node[last])
    edited = tmp_path / name
    edited.write_text(json.dumps(payload))
    return run(*_loader_command(workspace, name, str(edited)))


@pytest.mark.parametrize(
    "name, keys, bad, what",
    [
        ("inst3.json", ("values", 0), lambda v: v + 0.9, "a value"),
        ("inst3.json", ("z",), lambda v: True, "declared z=True"),
        ("sched.json", ("starts", "P_1"), lambda v: float(v) + 0.5, "a start"),
        ("sched.json", ("machines", "P_1", 0), lambda v: v + 0.7, "a machine"),
        ("pack.json", ("positions", "P_1", 1), lambda v: v + 0.9, "y must be"),
        ("pack.json", ("positions", "P_1", 0), lambda v: "1/0", "positive denominator"),
        ("inst.json", ("jobs", 0, "p"), lambda v: float(v) + 0.5, "a length p"),
        ("strip.json", ("items", 0, "h"), lambda v: v + 0.5, "a height h"),
        ("inst.json", ("W",), lambda v: "9" * (sys.get_int_max_str_digits() + 1),
         "W must be an integer"),
    ],
    ids=[
        "instance-float-value", "instance-bool-z", "schedule-float-start",
        "schedule-float-machine", "packing-float-y", "packing-zero-denominator",
        "jobs-float-p", "strip-float-h", "jobs-W-past-the-int-limit",
    ],
)
def test_loaders_reject_inexact_numbers(workspace, tmp_path, name, keys, bad, what):
    """A number no loader can read exactly (a float, a boolean, a fraction
    over zero, more digits than `int` converts) is refused with exit 2,
    never truncated into a different, valid-looking input or left to
    raise."""
    result = _run_edited(workspace, tmp_path, name, keys, bad)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert what in result.stderr


@pytest.mark.parametrize(
    "name, keys, bad, what",
    [
        ("sched.json", ("starts",), lambda v: [], "starts must be an object"),
        ("pack.json", ("positions",), lambda v: [], "positions must be an object"),
        ("inst.json", ("jobs", 0, "id"), lambda v: 5, "a job id must be a string"),
        ("sched.json", ("machines", "P_1"), lambda v: "12", "machines must be a list"),
        ("w.json", ("sets", 0), lambda v: "123", "a set must be a list"),
        ("inst3.json", ("values",), lambda v: "555", "values must be a list"),
        ("inst.json", ("jobs", 0), lambda v: 5, "a job must be an object, not 5"),
        ("strip.json", ("items", 0), lambda v: [], "an item must be an object"),
        ("pack.json", ("positions", "P_1"), lambda v: [1], "item 'P_1' must be [x, y]"),
        ("pack.json", ("positions", "P_1"), lambda v: [1, 2, 3], "item 'P_1' must be [x, y]"),
    ],
    ids=[
        "schedule-starts-list", "packing-positions-list", "jobs-int-id",
        "schedule-machines-string", "witness-set-string", "instance-values-string",
        "jobs-int-entry", "strip-list-entry", "packing-short-position",
        "packing-long-position",
    ],
)
def test_loaders_reject_the_wrong_shape(workspace, tmp_path, name, keys, bad, what):
    """A list where an object belongs, or a string where a list or an id
    belongs, is refused with exit 2: never a traceback, and never a string
    read one character at a time as a list of numbers."""
    result = _run_edited(workspace, tmp_path, name, keys, bad)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert what in result.stderr


@pytest.mark.parametrize(
    "name, keys, key, value",
    [
        ("inst3.json", (), "z", 2),
        ("inst.json", ("jobs", 0), "p", "1"),
        ("strip.json", ("items", 0), "w", "1"),
        ("sched.json", ("starts",), "A_1", "0"),
        ("pack.json", ("positions",), "P_1", ["0", 0]),
        ("w.json", (), "sets", [[3, 2, 1]]),
    ],
    ids=["instance", "jobs", "strip", "schedule", "packing", "witness"],
)
def test_loaders_reject_a_repeated_key(workspace, tmp_path, name, keys, key, value):
    """An object that names a key twice is refused with exit 2.  Read as
    its last value, a schedule could state a second start for a job that
    no check ever sees."""
    payload = json.loads((workspace / name).read_text())
    edited = tmp_path / name
    edited.write_text(with_repeated_key(payload, keys, key, value))
    result = run(*_loader_command(workspace, name, str(edited)))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"repeats the key {key!r}" in result.stderr


@pytest.mark.parametrize(
    "name, keys, key",
    [
        ("inst.json", (), "jobs"),
        ("inst.json", ("jobs", 0), "id"),
        ("sched.json", (), "starts"),
        ("pack.json", (), "positions"),
        ("w.json", (), "sets"),
        ("inst3.json", (), "values"),
    ],
    ids=["instance-jobs", "job-id", "schedule-starts", "packing-positions",
         "witness-sets", "3-partition-values"],
)
def test_loaders_name_a_missing_key(workspace, tmp_path, name, keys, key):
    """A document without a key its loader reads is refused with exit 2,
    and the message says which key is missing."""
    payload = json.loads((workspace / name).read_text())
    node = payload
    for step in keys:
        node = node[step]
    del node[key]
    edited = tmp_path / name
    edited.write_text(json.dumps(payload))
    result = run(*_loader_command(workspace, name, str(edited)))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"is missing the key {key!r}" in result.stderr


def test_a_file_that_is_not_utf8_is_invalid_input(workspace, tmp_path):
    bad = tmp_path / "inst.json"
    bad.write_bytes(b'{"jobs": "\xff"}')
    result = run("verify", "--inst", str(bad), "--sched", str(workspace / "sched.json"))
    assert result.exit_code == 2
    assert "is not UTF-8 text" in result.stderr


def _refused_path(result, path):
    """The single stderr line of a run refused for a path it cannot write."""
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in result.stderr, result.stderr
    assert lines[0].startswith(f"invalid input: cannot write {path}: ")
    return lines[0]


def test_a_witness_out_in_a_missing_directory_is_invalid_input(tmp_path):
    # the path is the user's, so an error opening it is a usage error, not
    # a fault of the program (70)
    path = tmp_path / "missing" / "w.json"
    result = run("gen3p", "--yes", "--z", "1", "--seed", "0",
                 "--witness-out", str(path))
    assert "No such file or directory" in _refused_path(result, path)
    assert not path.parent.exists()


def test_a_render_out_in_a_missing_directory_is_invalid_input(workspace, tmp_path):
    path = tmp_path / "missing" / "fig.svg"
    gantt = ("--inst", str(workspace / "inst.json"),
             "--sched", str(workspace / "sched.json"))
    strip = ("--strip", str(workspace / "strip.json"),
             "--packing", str(workspace / "pack.json"))
    for figure in (gantt, strip):
        result = run("render", *figure, "--out", str(path))
        assert "No such file or directory" in _refused_path(result, path)


def test_an_index_past_the_int_limit_is_no_index(tmp_path):
    # a job id whose digits after the last underscore exceed what `int`
    # reads is an id without an index, not a fault
    jid = "J_" + "1" * 5000
    inst, sched = hand_written(tmp_path, [(jid, 4)], {jid: 0})
    result = run("verify", "--inst", inst, "--sched", sched)
    assert result.exit_code == 0, result.stderr


def _internal_error(result):
    """The single stderr line of an exit-70 run."""
    assert result.exit_code == 70
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in result.stderr, result.stderr
    assert lines[0].startswith("internal error: ")
    return lines[0]


def test_a_fault_inside_extraction_exits_70(workspace, monkeypatch):
    """A built-in exception is a fault of the program, never invalid input:
    a bare KeyError raised inside extraction exits 70, not 2."""
    from gadgetforge import extraction

    def faulty(*args):
        raise KeyError("lanes")

    monkeypatch.setattr(extraction, "_read_partition", faulty)
    result = run("extract", "--inst", str(workspace / "inst.json"),
                 "--sched", str(workspace / "sched.json"))
    assert _internal_error(result) == "internal error: KeyError('lanes')"


def test_a_failed_re_verification_exits_70(workspace, monkeypatch):
    """A result that fails its own `require` exits 70: a fault, which the
    exit-code table must not read as a refutation (1)."""
    from gadgetforge import extraction

    monkeypatch.setattr(extraction, "validate_partition", lambda *args: ["forged"])
    result = run("extract", "--inst", str(workspace / "inst.json"),
                 "--sched", str(workspace / "sched.json"))
    line = _internal_error(result)
    assert "the extracted partition fails re-verification" in line


@pytest.mark.parametrize("command", ["verify", "audit", "extract"])
@pytest.mark.parametrize(
    "edit, what",
    [
        (lambda s: s["machines"].update(P_1=[9]), "uses machine 9"),
        (lambda s: s["starts"].pop("A_0"), "job 'A_0' is missing from the schedule"),
        (lambda s: s["machines"]["A_0"].append(3), "job A_0 names a machine twice"),
        (lambda s: s["starts"].update(ZZ="0"),
         "invalid input: schedule mentions unknown job 'ZZ'\n"),
    ],
    ids=["machine-9", "missing-job", "repeated-machine", "unknown-job"],
)
def test_schedule_that_does_not_fit_exits_two(workspace, tmp_path, command, edit, what):
    """A schedule that names a machine the instance lacks or names one
    twice for a job, or leaves a job out, is invalid input to every command
    that reads one."""
    payload = json.loads((workspace / "sched.json").read_text())
    edit(payload)
    edited = tmp_path / "sched.json"
    edited.write_text(json.dumps(payload))
    result = run(command, "--inst", str(workspace / "inst.json"), "--sched", str(edited))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert what in result.stderr


def test_audit_clean_then_violated(workspace, tmp_path):
    good = run("audit", "--inst", str(workspace / "inst.json"),
               "--sched", str(workspace / "sched.json"))
    assert good.exit_code == 0
    assert json.loads(good.stdout)["passed"]

    inst = SchedulingInstance.from_json((workspace / "inst.json").read_text())
    bad = tampered(workspace, tmp_path, lambda1=inst.D)
    result = run("audit", "--inst", str(workspace / "inst.json"), "--sched", bad)
    assert result.exit_code == 1
    assert json.loads(result.stdout)["violations"]


def test_extract_recovers_the_witness(workspace):
    result = run("extract", "--inst", str(workspace / "inst.json"),
                 "--sched", str(workspace / "sched.json"), "--trace")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["sets"] == [[1, 2, 3]]
    assert "stage=normalize" in result.stderr


def test_extract_refutes_a_broken_schedule(workspace, tmp_path):
    bad = tampered(workspace, tmp_path, gamma_1=1)
    result = run("extract", "--inst", str(workspace / "inst.json"), "--sched", bad)
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["refuted"] and payload["lemma"]


def test_extract_rejects_wrong_makespan(workspace, tmp_path):
    bad = tampered(workspace, tmp_path, lambda2=5)
    result = run("extract", "--inst", str(workspace / "inst.json"), "--sched", bad)
    assert result.exit_code == 1
    assert result.stdout == ""


def test_decide_witness_exit_zero(workspace):
    result = run("decide", "--inst", str(workspace / "inst.json"), "--target-w")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["outcome"] == "witness"
    assert payload["nodes"] <= 100


def test_decide_work_mismatch_exits(workspace):
    inst = SchedulingInstance.from_json((workspace / "inst.json").read_text())
    over = run("decide", "--inst", str(workspace / "inst.json"), "--target", "4")
    assert over.exit_code == 1
    assert json.loads(over.stdout)["outcome"] == "proved-none"
    under = run("decide", "--inst", str(workspace / "inst.json"),
                "--target", str(2 * inst.W))
    assert under.exit_code == 2
    assert json.loads(under.stdout)["outcome"] == "refused"


def test_decide_refuses_too_many_machines(tmp_path, monkeypatch):
    # one job as wide as a billion machines is balanced at W = 1; it is
    # refused before the solver builds any per-machine state
    from gadgetforge import solver

    def no_search(*args):
        raise AssertionError("a search was built")

    monkeypatch.setattr(solver, "_Search", no_search)
    m = 10**9
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "m": m, "z": 0, "D": "0", "W": "1",
        "jobs": [{"id": "J0", "p": "1", "q": m, "tag": "J"}],
    }))
    result = run("decide", "--inst", str(path), "--target-w")
    assert result.exit_code == 2
    assert json.loads(result.stdout)["outcome"] == "refused"
    assert f"too-many-machines: {m} machines exceed" in result.stderr


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("command", ["decide", "verify"])
def test_fewer_than_one_machine_is_refused(tmp_path, command, m):
    # an empty schedule of makespan 0 is no witness for W = 5, and no work
    # can overflow -1 machines
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"m": m, "z": 0, "D": "0", "W": "5", "jobs": []}))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"starts": {}, "machines": {}}))
    rest = ["--target-w"] if command == "decide" else ["--sched", str(sched)]
    result = run(command, "--inst", str(inst), *rest)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"an instance needs at least 1 machine, not {m}" in result.stderr


def test_decide_budget_exit_three(workspace):
    result = run("decide", "--inst", str(workspace / "inst.json"),
                 "--target-w", "--budget", "3")
    assert result.exit_code == 3
    assert json.loads(result.stdout)["outcome"] == "budget-exceeded"


def test_decide_needs_exactly_one_target(workspace):
    assert run("decide", "--inst", str(workspace / "inst.json")).exit_code == 2
    both = run("decide", "--inst", str(workspace / "inst.json"),
               "--target-w", "--target", "4")
    assert both.exit_code == 2


def test_decide_target_is_a_strict_decimal(workspace):
    """`--target` is read as the canonical form writes numbers: `int` would
    take "1_0" as 10, the loaders do not, and neither does `decide`."""
    result = run("decide", "--inst", str(workspace / "inst.json"), "--target", "1_0")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--target must be an integer" in result.stderr


@pytest.mark.parametrize("budget", ["1_0", " 7", "\u0661\u0660", "7.0", ""])
def test_decide_budget_is_a_strict_decimal(workspace, budget):
    result = run("decide", "--inst", str(workspace / "inst.json"), "--target-w",
                 "--budget", budget)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--budget must be an integer or a decimal string" in result.stderr


@pytest.mark.parametrize(
    "args, option",
    [
        (("gen3p", "--yes", "--z", "1_0", "--seed", "1"), "--z"),
        (("gen3p", "--yes", "--z", "1", "--seed", " 7"), "--seed"),
        (("roundtrip", "--z", "1_0", "--trials", "1"), "--z"),
        (("roundtrip", "--z", "1", "--trials", "1_0"), "--trials"),
        (("roundtrip", "--z", "1", "--trials", "1", "--seed", "7.0"), "--seed"),
    ],
)
def test_every_integer_option_is_a_strict_decimal(args, option):
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"{option} must be an integer or a decimal string" in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("gen3p", "--yes", "--z", "0", "--seed", "1"), "--z must be at least 1, not 0"),
        (("gen3p", "--no", "--z", "1", "--seed", "1"),
         "--z with --no must be at least 2, not 1"),
        (("roundtrip", "--z", "0", "--trials", "1"), "--z must be at least 1, not 0"),
        (("roundtrip", "--z", "1", "--trials", "0"), "--trials must be at least 1, not 0"),
        (("roundtrip", "--z", "1", "--trials", "-1"),
         "--trials must be at least 1, not -1"),
    ],
    ids=["gen3p-yes-z0", "gen3p-no-z1", "roundtrip-z0", "roundtrip-trials0",
         "roundtrip-trials-1"],
)
def test_generator_bounds_are_invalid_input(args, message):
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert message in result.stderr


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_decide_refuses_a_budget_below_one(workspace, budget):
    result = run("decide", "--inst", str(workspace / "inst.json"), "--target-w",
                 "--budget", budget)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"budget must be at least 1 node, not {budget}" in result.stderr


def test_decide_help_states_the_default_budget():
    result = run("decide", "--help")
    assert result.exit_code == 0
    text = " ".join(line.strip() for line in result.stdout.splitlines())
    assert (
        "--budget INTEGER        Node budget per root branch (a plain decision of a "
        "reduction at W has only one, after its forced run at 0).  [default: 10000000]"
    ) in text


def test_render_gantt_and_packing(workspace, tmp_path):
    fig = tmp_path / "fig.svg"
    result = run("render", "--inst", str(workspace / "inst.json"),
                 "--sched", str(workspace / "sched.json"), "--out", str(fig))
    assert result.exit_code == 0
    assert json.loads(result.stdout)["bytes"] == len(fig.read_bytes())

    pack = run("decide", "--inst", str(workspace / "inst.json"),
               "--target-w", "--contiguous")
    witness = json.loads(pack.stdout)["witness"]
    sched_path = tmp_path / "contig.json"
    sched_path.write_text(json.dumps(witness))
    from gadgetforge.reduction import SchedulingInstance as SI
    from gadgetforge.strip import schedule_to_packing

    inst = SI.from_json((workspace / "inst.json").read_text())
    packing = schedule_to_packing(inst, Schedule.from_json(sched_path.read_text()))
    pack_path = tmp_path / "pack.json"
    pack_path.write_text(packing.to_json())
    fig2 = tmp_path / "strip.svg"
    result2 = run("render", "--strip", str(workspace / "strip.json"),
                  "--packing", str(pack_path), "--out", str(fig2))
    assert result2.exit_code == 0 and fig2.exists()


@pytest.mark.parametrize("x", ["-1/2", "13/2"])
def test_render_draws_an_item_at_a_fractional_x(tmp_path, x):
    strip = StripInstance(m=4, z=0, D=0, W=10, jobs=(Job("r0", 4, 1, "J"),))
    (tmp_path / "strip.json").write_text(strip.to_json())
    (tmp_path / "pack.json").write_text(json.dumps({"positions": {"r0": [x, 0]}}))
    fig = tmp_path / "fig.svg"
    result = run("render", "--strip", str(tmp_path / "strip.json"),
                 "--packing", str(tmp_path / "pack.json"), "--out", str(fig))
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["bytes"] == len(fig.read_bytes())


@pytest.mark.parametrize(
    "inputs, field, what",
    [
        (("--inst", "inst.json", "--sched", "sched.json"), "starts",
         "job 'A_0' is missing from the schedule"),
        (("--strip", "strip.json", "--packing", "pack.json"), "positions",
         "item 'A_0' is missing from the packing"),
    ],
    ids=["gantt", "packing"],
)
def test_render_rejects_an_incomplete_input(workspace, tmp_path, inputs, field, what):
    """`render` checks the job universe first, so a missing job is reported
    as `verify` and `verify_packing` report it, not as a bare KeyError."""
    name = inputs[3]
    payload = json.loads((workspace / name).read_text())
    del payload[field]["A_0"]
    edited = tmp_path / name
    edited.write_text(json.dumps(payload))
    result = run("render", inputs[0], str(workspace / inputs[1]), inputs[2], str(edited),
                 "--out", str(tmp_path / "fig.svg"))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert what in result.stderr


def test_a_huge_machine_count_or_height_costs_nothing(workspace, tmp_path):
    """`verify` works only on the machines a schedule uses, and `render`
    refuses a figure with more rows than it can draw, so neither tries to
    build 10**12 machines or lanes."""
    big = 10**12
    result = _run_edited(workspace, tmp_path, "inst.json", ("m",), lambda v: big)
    assert result.exit_code == 0
    assert json.loads(result.stdout)["idle"] != "0"
    gantt = run("render", "--inst", str(tmp_path / "inst.json"),
                "--sched", str(workspace / "sched.json"), "--out", str(tmp_path / "g.svg"))
    assert gantt.exit_code == 2
    assert f"{big} machines are more rows than a figure holds" in gantt.stderr
    packing = _run_edited(workspace, tmp_path, "pack.json", ("positions", "P_1", 1),
                          lambda v: big)
    assert packing.exit_code == 2
    assert "more rows than a figure holds" in packing.stderr


def test_render_draws_or_refuses_numbers_past_the_float_range(tmp_path):
    # exact integers past float range are drawn from their digits, and an
    # item far below the strip is refused rather than converted
    big = 10**400
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "m": 1, "z": 0, "D": "0", "W": str(big),
        "jobs": [{"id": "J", "p": str(big), "q": 1, "tag": "J"}],
    }))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"starts": {"J": "0"}, "machines": {"J": [1]}}))
    assert run("verify", "--inst", str(inst), "--sched", str(sched)).exit_code == 0
    fig = tmp_path / "fig.svg"
    gantt = run("render", "--inst", str(inst), "--sched", str(sched), "--out", str(fig))
    assert gantt.exit_code == 0
    assert "span 1.000e+400" in fig.read_text()
    strip = tmp_path / "strip.json"
    strip.write_text(json.dumps({
        "width": "5", "z": 0, "D": "0",
        "items": [{"id": "J", "w": "5", "h": 1, "tag": "J"}],
    }))
    packing = tmp_path / "pack.json"
    for y in (-(2**1024), -1):
        packing.write_text(json.dumps({"positions": {"J": ["0", y]}}))
        result = run("render", "--strip", str(strip), "--packing", str(packing),
                     "--out", str(fig))
        assert result.exit_code == 2
        assert "item 'J' lies below every row a figure holds" in result.stderr


def test_render_mode_conflict(workspace, tmp_path):
    result = run("render", "--inst", str(workspace / "inst.json"),
                 "--out", str(tmp_path / "x.svg"))
    assert result.exit_code == 2
    # both figures at once, one figure with an input of the other, and half
    # of the strip figure
    ws = {name: str(workspace / f"{name}.json") for name in ("inst", "sched", "strip")}
    ws["packing"] = str(workspace / "pack.json")
    for names in (
        ("inst", "sched", "strip", "packing"),
        ("inst", "sched", "packing"),
        ("strip", "packing", "sched"),
        ("strip",),
    ):
        options = [arg for name in names for arg in (f"--{name}", ws[name])]
        result = run("render", *options, "--out", str(tmp_path / "x.svg"))
        assert result.exit_code == 2, names
        assert "give --inst with --sched" in result.stderr
        assert not (tmp_path / "x.svg").exists()


def test_roundtrip_reports_passes():
    result = run("roundtrip", "--z", "1", "--trials", "2", "--seed", "11")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["passes"] == 2 and payload["failures"] == []


def test_roundtrip_exits_1_and_lists_a_failed_trial(monkeypatch):
    from types import SimpleNamespace

    from gadgetforge import schedule

    audit, calls = schedule.audit, []

    def fails_second(inst, sched):
        calls.append(sched)
        return SimpleNamespace(passed=False) if len(calls) == 2 else audit(inst, sched)

    monkeypatch.setattr(schedule, "audit", fails_second)
    result = run("roundtrip", "--z", "1", "--trials", "3", "--seed", "11")
    assert result.exit_code == 1
    assert json.loads(result.stdout) == {
        "z": 1, "trials": 3, "passes": 2, "failures": [1]
    }
    assert "trial 1: FAIL (seed 12)" in result.stderr


def test_missing_file_is_usage_error():
    assert run("verify", "--inst", "/nonexistent.json",
               "--sched", "/nonexistent.json").exit_code == 2


def test_bad_json_exit_two(workspace, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run("verify", "--inst", str(bad),
                 "--sched", str(workspace / "sched.json"))
    assert result.exit_code == 2
    assert result.stdout == ""


def test_stdout_is_single_json_document(workspace):
    for args in (
        ("verify", "--inst", str(workspace / "inst.json"),
         "--sched", str(workspace / "sched.json")),
        ("audit", "--inst", str(workspace / "inst.json"),
         "--sched", str(workspace / "sched.json")),
        ("decide", "--inst", str(workspace / "inst.json"), "--target-w"),
    ):
        result = run(*args)
        json.loads(result.stdout)
        assert "\n" not in result.stdout.strip()


def test_every_subcommand_is_guarded():
    # The exit-code guard is the command class of the group, so a
    # subcommand added later runs under it without a decorator to forget.
    assert main.commands
    for name, command in main.commands.items():
        assert isinstance(command, cli._Guarded), name
    assert "_guard" not in Path(cli.__file__).read_text().replace("_Guarded", "")
