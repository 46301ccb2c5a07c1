"""Replay the golden CLI corpus in tests/golden/.

Each case runs one `gadgetforge` command line and must reproduce the
recorded exit code and stdout byte for byte; `render` cases must also
write the recorded SVG bytes.  A case may name keys of its JSON payload
whose values are free to differ (`ignore`); every other key must still
match.  tests/golden/make_corpus.py documents how the corpus was made.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gadgetforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = [a.replace("{golden}", str(GOLDEN)) for a in case["args"]]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == case["exit"]
    if "ignore" in case:
        got, want = json.loads(result.stdout), json.loads(case["stdout"])
        for key in case["ignore"]:
            assert key in got and key in want
            del got[key], want[key]
        assert got == want
    else:
        assert result.stdout_bytes == case["stdout"].encode("utf-8")
    if "svg" in case:
        assert (tmp_path / "fig.svg").read_bytes() == (GOLDEN / case["svg"]).read_bytes()


def test_corpus_covers_the_chain_refutations():
    lemmas = {
        c["name"]: json.loads(c["stdout"]).get("lemma")
        for c in CASES
        if c["name"].startswith("extract-forged")
    }
    assert lemmas == {
        "extract-forged-early": "early-separator-chain",
        "extract-forged-late": "late-separator-chain",
    }
