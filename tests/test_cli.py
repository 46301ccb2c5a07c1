import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gadgetforge.cli import main
from gadgetforge.reduction import SchedulingInstance, StripInstance
from gadgetforge.schedule import Schedule
from gadgetforge.strip import schedule_to_packing

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


def test_gen3p_witness_out_requires_yes(tmp_path):
    result = run("gen3p", "--no", "--z", "2", "--seed", "3",
                 "--witness-out", str(tmp_path / "w.json"))
    assert result.exit_code == 2


def test_gen3p_needs_a_mode():
    assert run("gen3p", "--z", "1", "--seed", "0").exit_code == 2


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
    ],
    ids=[
        "instance-float-value", "instance-bool-z", "schedule-float-start",
        "schedule-float-machine", "packing-float-y", "packing-zero-denominator",
        "jobs-float-p", "strip-float-h",
    ],
)
def test_loaders_reject_inexact_numbers(workspace, tmp_path, name, keys, bad, what):
    """A number no loader can read exactly (a float, a boolean, a fraction
    over zero) is refused with exit 2, never truncated into a different,
    valid-looking input or left to raise."""
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
    ],
    ids=[
        "schedule-starts-list", "packing-positions-list", "jobs-int-id",
        "schedule-machines-string", "witness-set-string", "instance-values-string",
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


@pytest.mark.parametrize("command", ["verify", "audit", "extract"])
@pytest.mark.parametrize(
    "edit, what",
    [
        (lambda s: s["machines"].update(P_1=[9]), "uses machine 9"),
        (lambda s: s["starts"].pop("A_0"), "job 'A_0' is missing from the schedule"),
    ],
    ids=["machine-9", "missing-job"],
)
def test_schedule_that_does_not_fit_exits_two(workspace, tmp_path, command, edit, what):
    """A schedule that names a machine the instance lacks, or leaves a job
    out, is invalid input to every command that reads one."""
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


def test_decide_help_states_the_default_budget():
    result = run("decide", "--help")
    assert result.exit_code == 0
    lines = [line.strip() for line in result.stdout.splitlines()]
    assert "--budget INTEGER        Node budget per root branch.  [default: 10000000]" in lines


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


def test_render_mode_conflict(workspace, tmp_path):
    result = run("render", "--inst", str(workspace / "inst.json"),
                 "--out", str(tmp_path / "x.svg"))
    assert result.exit_code == 2


def test_roundtrip_reports_passes():
    result = run("roundtrip", "--z", "1", "--trials", "2", "--seed", "11")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["passes"] == 2 and payload["failures"] == []


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
