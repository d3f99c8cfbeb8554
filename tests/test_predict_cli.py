"""CLI-level tests for the 'predict' target.

Exit-code contract (matching the campaign CLI): 0 success (table
built, in-tolerance answer, audit passed), 1 ran-but-unacceptable
(fallback-worthy answer, failed audit), 2 usage errors.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main

from tests._predict_helpers import tiny_spec


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """CLI artifacts (cache, checkpoints, tables) land in a throwaway cwd."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def spec_path(tmp_path):
    return tiny_spec().save(tmp_path / "study.json")


def build(spec_path, capsys):
    assert main(["predict", "build", str(spec_path)]) == 0
    line = capsys.readouterr().out.strip()
    # "table <id> cells=4 valid=4 holdout=2 -> <path>"
    table_id, path = line.split()[1], line.split()[-1]
    return table_id, path


class TestUsage:
    def test_needs_a_path(self, capsys):
        # argparse fills the required path first, so a lone action word
        # must still be read as the action and the path reported missing.
        for argv in (["predict", "build"], ["predict"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "the following arguments are required: SPEC" in err
            assert "cannot load" not in err

    def test_action_defaults_to_build(self, spec_path, capsys):
        assert main(["predict", str(spec_path)]) == 0
        assert capsys.readouterr().out.startswith("table ")

    def test_unknown_action(self, spec_path, capsys):
        assert main(["predict", "explain", str(spec_path)]) == 2
        assert "invalid choice: 'explain'" in capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path, capsys):
        bogus = tmp_path / "nope.json"
        assert main(["predict", "build", str(bogus)]) == 2
        assert "cannot load campaign spec" in capsys.readouterr().err

    def test_eval_needs_a_point(self, spec_path, capsys):
        _, path = build(spec_path, capsys)
        assert main(["predict", "eval", path]) == 2
        assert "--point" in capsys.readouterr().err
        assert main(["predict", "eval", path, "--point", "10,20"]) == 2

    def test_unresolvable_table(self, capsys):
        assert main(["predict", "eval", "0123456789abcdef",
                     "--point", "10,20,0.3,0.05"]) == 2


class TestBuildEvalVerify:
    def test_build_is_idempotent_and_content_addressed(self, spec_path, capsys):
        table_id, path = build(spec_path, capsys)
        assert len(table_id) == 16
        first = Path(path).read_bytes()
        again_id, again_path = build(spec_path, capsys)
        assert (again_id, again_path) == (table_id, path)
        assert Path(path).read_bytes() == first

    def test_eval_in_range_point_answers_ok(self, spec_path, capsys):
        _, path = build(spec_path, capsys)
        assert main(["predict", "eval", path, "--point", "10,20,0.3,0.05"]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["status"] == "ok"
        assert answer["expected_seconds"] > 0

    def test_eval_out_of_range_point_exits_one(self, spec_path, capsys):
        _, path = build(spec_path, capsys)
        assert main(["predict", "eval", path, "--point", "10,20,0.3,5.0"]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "out_of_range"

    def test_eval_tolerance_gate(self, spec_path, capsys):
        _, path = build(spec_path, capsys)
        code = main(["predict", "eval", path, "--point", "10,20,0.3,0.05",
                     "--tolerance", "0"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["status"] == (
            "tolerance_exceeded"
        )

    def test_eval_resolves_bare_table_id(self, spec_path, capsys):
        table_id, _ = build(spec_path, capsys)
        assert main(["predict", "eval", table_id,
                     "--point", "10,20,0.3,0.05"]) == 0

    def test_verify_audits_fresh_seeds(self, spec_path, capsys):
        _, path = build(spec_path, capsys)
        assert main(["predict", "verify", path, "--fresh-seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "all_in_bound=true" in out
        assert out.count(" in_bound=true") == 4
