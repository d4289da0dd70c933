"""Additional CLI coverage: JSON output paths and model restriction flags.

These use tiny raw-record counts and the SMOTE-only model set so each CLI
invocation stays in the sub-second-to-few-seconds range.
"""

import json

import numpy as np

from repro.experiments.cli import main as cli_main

FAST = ["--preset", "ci", "--raw-jobs", "2000", "--seed", "3"]


class TestTable1CLI:
    def test_json_payload_schema(self, capsys):
        assert cli_main(["table1", *FAST, "--models", "smote", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"scores", "ranks", "timings"}
        (score,) = payload["scores"]
        assert score["model"] == "SMOTE"
        for key in ("wd", "jsd", "diff_corr", "dcr", "diff_mlef"):
            assert isinstance(score[key], float)

    def test_multiple_models_ranked(self, capsys):
        assert cli_main(["table1", *FAST, "--models", "smote", "copula", "--no-mlef"]) == 0
        out = capsys.readouterr().out
        assert "SMOTE" in out and "GaussianCopula" in out
        assert "DCR" in out


class TestFigureCLIs:
    def test_fig2_text_table(self, capsys):
        assert cli_main(["fig2", *FAST]) == 0
        out = capsys.readouterr().out
        assert "broker" in out
        assert "least_loaded" in out

    def test_fig4_text_output(self, capsys):
        assert cli_main(["fig4", *FAST, "--models", "smote"]) == 0
        out = capsys.readouterr().out
        assert "computingsite" in out
        assert "SMOTE" in out

    def test_fig5_json_output(self, capsys):
        assert cli_main(["fig5", *FAST, "--models", "smote", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ground_truth" in payload and "models" in payload
        matrix = np.asarray(payload["ground_truth"])
        assert matrix.shape[0] == matrix.shape[1] == len(payload["columns"])
        assert "SMOTE" in payload["models"]

    def test_fig5_text_output(self, capsys):
        assert cli_main(["fig5", *FAST, "--models", "smote"]) == 0
        out = capsys.readouterr().out
        assert "diff-CORR" in out

    def test_fig3_json_output(self, capsys):
        assert cli_main(["fig3", *FAST, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "profile" in payload and "funnel" in payload


class TestAblationCLI:
    def test_smote_sweep_text(self, capsys):
        assert cli_main(["ablations", *FAST, "--which", "smote_k"]) == 0
        out = capsys.readouterr().out
        assert "smote_k" in out
        assert "DCR" in out

    def test_smote_sweep_json(self, capsys):
        assert cli_main(["ablations", *FAST, "--which", "smote_k", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "smote_k" in payload
        assert len(payload["smote_k"]) >= 2


class TestServeHttpCLI:
    SERVE = [
        "serve", *FAST, "--models", "smote", "--http", "--requests", "4",
        "--serve-rows", "400", "--workers", "1", "--chunk-size", "64", "--json",
    ]

    def test_front_door_smoke_verifies_a_column_body(self, capsys):
        assert cli_main(self.SERVE) == 0
        http = json.loads(capsys.readouterr().out)["http"]
        assert http["verified"] and http["mismatches"] == 0

    def test_corrupted_column_body_fails_the_smoke(self, capsys, monkeypatch):
        import repro.serve.http as http_module

        original = http_module._columns_payload

        def corrupted(table):
            columns = original(table)
            name = table.schema.numerical[0]
            columns[name] = columns[name] + 1.0
            return columns

        monkeypatch.setattr(http_module, "_columns_payload", corrupted)
        assert cli_main(self.SERVE) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["http"]["mismatches"] == 1
        assert "diverged" in captured.err
