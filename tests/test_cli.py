import json

import pytest
from click.testing import CliRunner

from gadgetforge.cli import main
from gadgetforge.reduction import SchedulingInstance, StripInstance
from gadgetforge.schedule import Schedule

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
    assert strip.width == inst.W


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
