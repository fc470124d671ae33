import json
import subprocess
import sys

import pytest

from pmrope.cli import ConfigError, load_run_config, main

SMALL_RUN = {
    "model": {"n_enc_layers": 1, "n_dec_layers": 1, "d_model": 16, "n_heads": 2,
              "head_dim": 8, "ffn_dim": 32},
    "corpus": {"n_train": 18, "n_val": 6, "n_test": 6, "seed": 3,
               "text_len_min": 2, "text_len_max": 4},
    "train": {"total_steps": 8, "validation_interval": 4, "peak_lr": 1e-3,
              "token_budget": 512, "seed": 0},
}


@pytest.fixture
def run_config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL_RUN))
    return str(path)


@pytest.fixture
def corpus_dir(tmp_path, run_config_path):
    out = tmp_path / "corpus"
    assert main(["corpus", "--config", run_config_path, "--out", str(out)]) == 0
    return out


@pytest.fixture
def checkpoint(tmp_path, run_config_path, corpus_dir):
    path = tmp_path / "model.pmrt"
    code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                 "--out", str(path), "--quiet"])
    assert code == 0
    return path


class TestRunConfig:
    def test_empty_config_is_fully_defaulted(self):
        cfg = load_run_config(None)
        assert cfg.model.d_model == 64
        assert cfg.train.peak_lr == 1e-4
        assert cfg.corpus.n_train == 4000
        assert cfg.sampler.top_k == 30

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert load_run_config(str(path)).train.total_steps == 20000

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError, match="modle"):
            load_run_config(str(path))

    def test_unknown_section_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"peek_lr": 1}}))
        with pytest.raises(ConfigError, match="peek_lr"):
            load_run_config(str(path))

    @pytest.mark.parametrize("raw, key", [
        ({"model": {"d_model": "64"}}, "d_model"),
        ({"model": {"pm_rope_enabled": 1}}, "pm_rope_enabled"),
        ({"train": {"total_steps": True}}, "total_steps"),
        ({"corpus": {"stretch_factors": 3}}, "stretch_factors"),
        ({"corpus": {"stretch_factors": [1, 2.5]}}, "stretch_factors"),
    ])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, raw, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            load_run_config(str(path))
        assert main(["corpus", "--config", str(path), "--out", str(tmp_path / "c")]) == 2
        assert key in capsys.readouterr().err

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"peak_lr": 1}, "corpus": {"stretch_factors": [2]}}))
        cfg = load_run_config(str(path))
        assert cfg.train.peak_lr == 1 and cfg.corpus.stretch_factors == (2,)


class TestCorpusCommand:
    def test_line_counts_match_config(self, corpus_dir):
        counts = {name: sum(1 for _ in open(corpus_dir / f"{name}.jsonl"))
                  for name in ("train", "val", "test")}
        assert counts == {"train": 18, "val": 6, "test": 6}

    def test_rerun_is_byte_identical(self, tmp_path, run_config_path, corpus_dir):
        again = tmp_path / "corpus2"
        assert main(["corpus", "--config", run_config_path, "--out", str(again)]) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (again / name).read_bytes() == (corpus_dir / name).read_bytes()

    def test_corrupt_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"n_trian": 5}}))
        code = main(["corpus", "--config", str(bad), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "n_trian" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoint_and_monotone_loss_csv(self, checkpoint):
        assert checkpoint.exists()
        csv_path = str(checkpoint) + ".losses.csv"
        with open(csv_path) as fh:
            header = fh.readline().strip()
            steps = [int(line.split(",")[0]) for line in fh]
        assert header == "step,train_loss,val_loss"
        assert steps == sorted(steps)
        assert steps[0] == 0

    def test_checkpoint_round_trips_byte_identically(self, checkpoint, tmp_path):
        from pmrope.checkpoint import load_checkpoint, save_checkpoint

        copy = tmp_path / "copy.pmrt"
        save_checkpoint(copy, load_checkpoint(checkpoint))
        assert copy.read_bytes() == checkpoint.read_bytes()

    @pytest.mark.parametrize("filename, edit, message", [
        ("manifest.json", lambda m: {"audio_vocab": m["audio_vocab"]}, "missing key 'config'"),
        ("manifest.json", lambda m: dict(m, audio_vocab=None), "'audio_vocab' must be an int"),
        ("val.jsonl", lambda r: {k: v for k, v in r.items() if k != "style_id"},
         "line 2: missing key 'style_id'"),
        ("val.jsonl", lambda r: dict(r, audio=None), "line 2: key 'audio' must be a list"),
    ], ids=["manifest_without_config", "null_audio_vocab", "record_without_style_id",
            "null_audio"])
    def test_malformed_corpus_exits_2(self, tmp_path, run_config_path, corpus_dir, capsys,
                                      filename, edit, message):
        path = corpus_dir / filename
        if filename == "manifest.json":
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        else:
            lines = path.read_text().splitlines()
            lines[1] = json.dumps(edit(json.loads(lines[1])))
            path.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "m.pmrt"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert filename in err and message in err

    def test_missing_corpus_exits_2(self, tmp_path, run_config_path):
        code = main(["train", "--config", run_config_path, "--corpus",
                     str(tmp_path / "nowhere"), "--out", str(tmp_path / "m.pmrt"), "--quiet"])
        assert code == 2


class TestGenerateCommand:
    def test_target_seconds_maps_to_tokens_at_50hz(self, checkpoint, tmp_path, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1,2",
                     "--target-seconds", "2.0", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_len"] == 100

    def test_fixed_seed_is_reproducible(self, checkpoint, corpus_dir, capsys):
        args = ["generate", "--checkpoint", str(checkpoint), "--text", "1,2,3",
                "--corpus", str(corpus_dir), "--style", "1",
                "--oracle-length", "8", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_pm_rope_flag_flips_inference_mode(self, checkpoint, capsys):
        base = ["generate", "--checkpoint", str(checkpoint), "--text", "1,2",
                "--oracle-length", "12", "--seed", "3"]
        assert main(base) == 0
        on = json.loads(capsys.readouterr().out)
        assert main(base + ["--pm-rope", "off"]) == 0
        off = json.loads(capsys.readouterr().out)
        assert on["target_len"] == off["target_len"] == 12
        # both decode; mode flip is observable unless the tiny model degenerates
        assert set(on) == {"tokens", "stop_reason", "generated_len", "target_len"}
        assert set(off) == set(on)

    def test_explicit_prompt_tokens(self, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1,2",
                     "--prompt-tokens", "3,4,5", "--oracle-length", "6", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_len"] == 6

    @pytest.mark.parametrize("seconds", ["inf", "nan"])
    def test_non_finite_target_seconds_exits_2(self, checkpoint, capsys, seconds):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--target-seconds", seconds])
        assert code == 2
        assert "duration must be finite" in capsys.readouterr().err

    def test_out_of_range_prompt_token_exits_2(self, checkpoint):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--prompt-tokens", "999", "--oracle-length", "4"])
        assert code == 2

    def test_style_without_corpus_exits_2(self, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--style", "0", "--oracle-length", "4"])
        assert code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path):
        code = main(["generate", "--checkpoint", str(tmp_path / "none.pmrt"),
                     "--text", "1", "--oracle-length", "4"])
        assert code == 2

    def test_result_written_to_file(self, checkpoint, tmp_path):
        out = tmp_path / "gen.json"
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--oracle-length", "4", "--out", str(out)])
        assert code == 0
        assert set(json.loads(out.read_text())) == {
            "tokens", "stop_reason", "generated_len", "target_len"}


class TestEvalCommand:
    def test_report_schema_and_scatter_rows(self, checkpoint, corpus_dir, tmp_path):
        report_path = tmp_path / "report.json"
        scatter_path = tmp_path / "scatter.csv"
        code = main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                     "--report", str(report_path), "--scatter", str(scatter_path)])
        assert code == 0
        reports = json.loads(report_path.read_text())
        assert [r["metric"] for r in reports] == ["error_rate", "style_similarity",
                                                  "duration_accuracy"]
        for report in reports:
            assert set(report) == {"metric", "mean", "ci_low", "ci_high", "n",
                                   "method", "resamples", "seed"}
            assert report["ci_low"] <= report["mean"] <= report["ci_high"]
        assert reports[2]["method"] == "wilson"
        with open(scatter_path) as fh:
            assert fh.readline().strip() == "utterance,target_duration,generated_duration"
            rows = fh.readlines()
        assert len(rows) == 6  # one per test utterance

    def test_rerun_is_byte_identical(self, checkpoint, corpus_dir, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report_{tag}.json"
            scatter = tmp_path / f"scatter_{tag}.csv"
            assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                         "--report", str(report), "--scatter", str(scatter), "--seed", "3"]) == 0
            outputs.append((report.read_bytes(), scatter.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_da_margin_matches_recomputation_from_scatter(self, checkpoint, corpus_dir, tmp_path):
        from pmrope.metrics import duration_accuracy

        report_path = tmp_path / "report.json"
        scatter_path = tmp_path / "scatter.csv"
        main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
              "--report", str(report_path), "--scatter", str(scatter_path)])
        reports = {r["metric"]: r for r in json.loads(report_path.read_text())}
        targets, gens = [], []
        with open(scatter_path) as fh:
            fh.readline()
            for line in fh:
                _, target, gen = line.strip().split(",")
                targets.append(float(target))
                gens.append(float(gen))
        assert reports["duration_accuracy"]["mean"] == pytest.approx(
            duration_accuracy(gens, targets, margin=0.10), abs=1e-9)


class TestAblateCommand:
    def test_paired_report_has_two_blocks_and_deltas(self, checkpoint, corpus_dir, tmp_path):
        report_path = tmp_path / "ablate.json"
        code = main(["ablate", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                     "--report", str(report_path), "--limit", "4"])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert set(payload["configurations"]) == {"pm_on", "pm_off"}
        assert set(payload["deltas"]) == {"error_rate", "style_similarity",
                                          "duration_accuracy"}
        for block in payload["configurations"].values():
            assert set(block) == {"error_rate", "style_similarity", "duration_accuracy"}


class TestDurationCommand:
    def test_reference_ratio_output(self, capsys):
        assert main(["duration", "--ref-seconds", "5.0", "--ref-units", "50",
                     "--tgt-units", "100"]) == 0
        assert capsys.readouterr().out.strip() == "10.000 s, 500 tokens"

    def test_default_rate_output(self, capsys):
        assert main(["duration", "--lang", "EN", "--tgt-units", "20"]) == 0
        out = capsys.readouterr().out
        assert "1.700 s" in out

    def test_unknown_language_exit_2_lists_tags(self, capsys):
        assert main(["duration", "--lang", "XX", "--tgt-units", "5"]) == 2
        err = capsys.readouterr().err
        for tag in ("EN", "JA", "ZH"):
            assert tag in err

    def test_module_entry_point(self):
        import os
        import pmrope

        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(pmrope.__file__))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "pmrope.cli", "duration", "--lang", "JA",
             "--tgt-units", "10"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "1.000 s" in proc.stdout
