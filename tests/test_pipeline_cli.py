import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import imbfault
from imbfault import cli, pipeline
from imbfault.classifier import GbtModel
from imbfault.cli import build_parser, main
from imbfault.core import FaultInterval, FeatureMatrix, SamplerParams, class_distribution
from imbfault.errors import ConfigError, DataError
from imbfault.ingestion import (label_timestamps, read_feature_csv, read_intervals_csv,
                                write_feature_csv, write_intervals_csv,
                                write_labeled_csv)
from imbfault.pipeline import (PipelineConfig, apply_transforms, fit_fold, run_crossval,
                               run_predict_events, run_resample, stratified_folds)
from imbfault.reduction import pca_transform
from imbfault.rng import Pcg32
from imbfault.sampling import resample_multiclass
from imbfault.synthgen import gaussian_blobs, synthetic_timeseries


def _blobs(seed=0, n_maj=120, n_min=24):
    return gaussian_blobs([((0, 0, 0), 1.0, n_maj, "N"),
                           ((2.5, 0, 0), 1.0, n_min, "F")], seed=seed)


def small_cfg(**kw):
    defaults = dict(rounds=10, max_depth=2, folds=4, seed=0)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def append_and_sort_folds_oracle(labels, n_folds, rng):
    """Each class, in sorted order, is shuffled and dealt row by row onto the
    folds; each fold is then sorted."""
    labels = np.asarray(labels, dtype=object)
    folds = [[] for _ in range(n_folds)]
    for c in sorted(set(labels)):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        for i, row in enumerate(idx):
            folds[i % n_folds].append(int(row))
    return [sorted(f) for f in folds]


class TestStratifiedFolds:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_append_and_sort_dealing(self, seed):
        draw = Pcg32(300 + seed)
        n_folds = 2 + draw.randint(9)
        counts = [1 + draw.randint(25) for _ in range(1 + draw.randint(4))]
        labels = [f"c{k}" for k, n in enumerate(counts) for _ in range(n)]
        order = np.arange(len(labels))
        draw.shuffle(order)
        labels = [labels[i] for i in order]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # classes below n_folds
            got = stratified_folds(labels, n_folds, Pcg32(seed))
        assert [f.tolist() for f in got] == append_and_sort_folds_oracle(
            labels, n_folds, Pcg32(seed))

    def test_disjoint_cover_and_sizes(self):
        labels = ["N"] * 80 + ["F"] * 20
        folds = stratified_folds(labels, 10, Pcg32(0))
        assert len(folds) == 10
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(100))
        assert all(len(f) == 10 for f in folds)

    def test_class_ratios_preserved(self):
        labels = ["N"] * 80 + ["F"] * 20
        for fold in stratified_folds(labels, 10, Pcg32(1)):
            fold_labels = [labels[i] for i in fold]
            assert fold_labels.count("F") == 2

    def test_small_class_warns(self):
        labels = ["N"] * 30 + ["F"] * 3
        with pytest.warns(UserWarning, match="3 rows for 10 folds"):
            folds = stratified_folds(labels, 10, Pcg32(2))
        assert sum(len(f) for f in folds) == 33

    def test_seed_changes_assignment(self):
        labels = ["N"] * 40 + ["F"] * 10
        a = stratified_folds(labels, 5, Pcg32(0))
        b = stratified_folds(labels, 5, Pcg32(1))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))


class TestFitFoldLeakage:
    def test_test_rows_cannot_influence_fit(self):
        fm = _blobs(seed=3)
        folds = stratified_folds(fm.labels, 4, Pcg32(7))
        test_idx = folds[0]
        train_idx = np.setdiff1d(np.arange(fm.n_rows), test_idx)

        perturbed = fm.data.copy()
        perturbed[test_idx] += 1e6
        fm_perturbed = FeatureMatrix(perturbed, fm.labels, fm.feature_names)

        cfg = small_cfg(sampler="ewmote", reduce="pca", pca_dims=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fold_a = fit_fold(fm.select(train_idx), cfg, Pcg32(11))
            fold_b = fit_fold(fm_perturbed.select(train_idx), cfg, Pcg32(11))

        assert fold_a.standardizer.mean_.tobytes() == fold_b.standardizer.mean_.tobytes()
        assert fold_a.standardizer.scale_.tobytes() == fold_b.standardizer.scale_.tobytes()
        assert fold_a.reducer.components.tobytes() == fold_b.reducer.components.tobytes()
        assert fold_a.train_resampled.data.tobytes() == fold_b.train_resampled.data.tobytes()

    def test_resample_before_reduce(self):
        fm = gaussian_blobs([((0, 0, 0), 1.0, 90, "N"), ((2.5, 0, 0), 1.0, 20, "F"),
                             ((0, 2.5, 0), 1.0, 12, "G")], seed=6)
        cfg = small_cfg(sampler="ewmote", reduce="pca", resample_stage="before_reduce")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fold = fit_fold(fm, cfg, Pcg32(2))
            resampled = resample_multiclass(fm.with_data(fold.standardizer.transform(fm.data)),
                                            "ewmote", cfg.sampler_params, Pcg32(2))
        work = fold.train_resampled
        assert work.feature_names and all(n.startswith("pc") for n in work.feature_names)
        assert class_distribution(work.labels).counts == {"N": 90, "F": 90, "G": 90}
        # the projection is fitted on the oversampled rows, not on the 122 originals
        np.testing.assert_allclose(fold.reducer.mean, resampled.data.mean(axis=0), atol=1e-12)
        assert work.data.tobytes() == pca_transform(fold.reducer, resampled).data.tobytes()

    def test_apply_transforms_shape(self):
        fm = _blobs(seed=4)
        cfg = small_cfg(reduce="pca", pca_dims=2)
        fold = fit_fold(fm, cfg, Pcg32(0))
        out = apply_transforms(fold, fm)
        assert out.n_features == 2


class TestRunCrossval:
    def test_report_files_and_schema(self, tmp_path):
        fm = _blobs(seed=5)
        result = run_crossval(fm, small_cfg(), tmp_path)
        for name in ("fold_metrics.csv", "mean_metrics.csv", "confusion.csv",
                     "roc_points.csv"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "fold_metrics.csv").read_text().splitlines()[0]
        assert header == "fold,class,precision,recall,f_measure,auc,mcc,fam,degenerate"
        assert set(result["mean"]) == {"N", "F", "__macro__"}

    def test_reports_byte_identical_across_runs(self, tmp_path):
        fm = _blobs(seed=6)
        cfg = small_cfg(sampler="ewmote")
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_crossval(fm, cfg, a_dir)
            run_crossval(fm, cfg, b_dir)
        for name in ("fold_metrics.csv", "mean_metrics.csv", "confusion.csv",
                     "roc_points.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_each_test_fold_scored_once(self, tmp_path, monkeypatch):
        calls = []
        scores = GbtModel.predict_proba
        monkeypatch.setattr(GbtModel, "predict_proba",
                            lambda self, X: calls.append(1) or scores(self, X))
        run_crossval(_blobs(seed=9), small_cfg(sampler="none"), tmp_path)
        assert len(calls) == small_cfg().folds

    def test_golden_mean_metrics(self, tmp_path):
        fm = gaussian_blobs([((0, 0), 1.0, 40, "N"), ((3, 0), 0.5, 10, "F")], seed=42)
        run_crossval(fm, PipelineConfig(rounds=5, max_depth=2, folds=5, seed=123),
                     tmp_path)
        golden = os.path.join(os.path.dirname(__file__), "data", "golden_mean_metrics.csv")
        assert (tmp_path / "mean_metrics.csv").read_text() == open(golden).read()

    def test_four_class_reports_pinned(self, tmp_path):
        # Class C has fewer rows than folds, so some folds lack it: degenerate
        # flags and zero AUCs reach both metric tables. Digests of the reports
        # as first written, before both tables were built from one mapping.
        fm = gaussian_blobs([((0, 0), 1.0, 30, "N"), ((3, 0), 0.6, 10, "A"),
                             ((0, 3), 0.6, 8, "B"), ((3, 3), 0.4, 3, "C")], seed=17)
        with pytest.warns(UserWarning, match="class 'C' has 3 rows for 5 folds"):
            run_crossval(fm, PipelineConfig(rounds=5, max_depth=2, folds=5, seed=29), tmp_path)
        want = {
            "fold_metrics": "72210c0a72516852a02d1a88a4754b6c576939c7911852e4482b12faeee33974",
            "mean_metrics": "47e4d9b8ecdb461bbf012e4ec3ce3f145d4d2beb2a01b315e788e86ed486791e",
            "confusion": "5d87a8d18d35c614961aaab68297ba40fef38a72c4bc68e8aa2788cd40acf412",
            "roc_points": "221d760486daf558a968c367708fae2299a37f81ca3124474de6fcd2fe51c9bb",
        }
        got = {name: hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
               for name in want}
        assert got == want
        folds = (tmp_path / "fold_metrics.csv").read_text().splitlines()
        assert "3,C,0.0,0.0,0.0,0.0,0.0,0.0,1" in folds
        assert (tmp_path / "mean_metrics.csv").read_text().splitlines()[-1].endswith(",1")

    def test_lda_reduction_path(self, tmp_path):
        fm = _blobs(seed=7)
        result = run_crossval(fm, small_cfg(reduce="lda"), tmp_path)
        assert result["mean"]["__macro__"]["f_measure"] > 0.5

    def test_sampler_none_is_baseline(self, tmp_path):
        fm = _blobs(seed=8)
        result = run_crossval(fm, small_cfg(sampler="none"), tmp_path)
        assert 0.0 <= result["mean"]["F"]["recall"] <= 1.0


class TestRunResample:
    def test_synthetic_flags(self, tmp_path):
        fm = _blobs(seed=9, n_maj=40, n_min=8)
        out_path = tmp_path / "resampled.csv"
        out = run_resample(fm, small_cfg(sampler="smote"), out_path)
        assert class_distribution(out.labels).counts == {"N": 40, "F": 40}
        lines = out_path.read_text().splitlines()
        assert lines[0].endswith("label,synthetic")
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert flags.count("1") == 32
        assert flags[:48] == ["0"] * 48

    def test_none_echoes_input(self, tmp_path):
        fm = _blobs(seed=10, n_maj=20, n_min=5)
        out_path = tmp_path / "echo.csv"
        out = run_resample(fm, small_cfg(sampler="none"), out_path)
        assert out.n_rows == fm.n_rows
        back = read_feature_csv(out_path)
        assert np.array_equal(back.data, fm.data)


class TestRunPredictEvents:
    def _series_pair(self, seed):
        ivs = [FaultInterval(150, 349, "F"), FaultInterval(600, 799, "F")]
        train_frame, ivs = synthetic_timeseries(1200, ivs, 2, 3.5, seed=seed)
        test_frame, _ = synthetic_timeseries(1200, ivs, 2, 3.5, seed=seed + 500)
        train = label_timestamps(train_frame, ivs, "normal")
        from imbfault.ingestion import LabeledSeries
        test = LabeledSeries(test_frame, ["normal"] * test_frame.n_ticks)
        return train, test, ivs

    def test_recovers_events(self, tmp_path):
        train, test, ivs = self._series_pair(20)
        cfg = small_cfg(window_len=20, slide_len=5, rounds=20, max_depth=3)
        result = run_predict_events(train, test, cfg, tmp_path, true_intervals=ivs)
        assert len(result["events"]) == 2
        assert result["fn_ticks"] + result["fp_ticks"] <= 0.2 * result["true_faulty_ticks"]
        written = read_intervals_csv(result["events_path"])
        assert written == result["events"]

    def test_overlapping_true_intervals_count_each_tick_once(self, tmp_path):
        """Ticks 15-19 lie in both intervals; per-tick FN/FP use the union,
        so the faulty-tick count does too."""
        ivs = [FaultInterval(10, 19, "F"), FaultInterval(15, 24, "F")]
        frame, _ = synthetic_timeseries(40, ivs, 2, 3.5, seed=5)
        series = label_timestamps(frame, ivs, "normal")
        cfg = small_cfg(window_len=5, slide_len=1, rounds=3)
        result = run_predict_events(series, series, cfg, tmp_path, true_intervals=ivs)
        assert result["true_faulty_ticks"] == 15
        with open(tmp_path / "event_report.csv", encoding="utf-8") as fh:
            assert fh.read().splitlines()[1].split(",")[2] == "15"

    def test_model_out_and_in(self, tmp_path):
        train, test, ivs = self._series_pair(30)
        cfg = PipelineConfig(window_len=20, slide_len=5, rounds=10, max_depth=2,
                             standardize=False, seed=0)
        model_path = tmp_path / "model.json"
        first = run_predict_events(train, test, cfg, tmp_path / "a",
                                   true_intervals=ivs, model_out=model_path)
        assert model_path.exists()
        second = run_predict_events(train, test, cfg, tmp_path / "b",
                                    true_intervals=ivs, model_in=model_path)
        assert first["events"] == second["events"]

    def test_model_in_requires_plain_features(self, tmp_path):
        train, test, _ = self._series_pair(40)
        cfg = small_cfg(window_len=20, slide_len=5, standardize=True)
        with pytest.raises(ConfigError):
            run_predict_events(train, test, cfg, tmp_path, model_in="whatever.json")

    @pytest.mark.parametrize("reduce, error", [("none", DataError), ("pca", ConfigError)])
    def test_model_in_fails_before_featurizing(self, tmp_path, monkeypatch, reduce, error):
        train, test, _ = self._series_pair(40)
        cfg = small_cfg(window_len=20, slide_len=5, standardize=False, reduce=reduce)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        calls = []
        monkeypatch.setattr(pipeline, "featurize", lambda *a, **k: calls.append(a))
        with pytest.raises(error):
            run_predict_events(train, test, cfg, tmp_path, model_in=bad)
        assert calls == []


class TestCli:
    def _write_series(self, tmp_path, seed=50):
        ivs = [FaultInterval(100, 249, "F"), FaultInterval(500, 649, "F")]
        frame, ivs = synthetic_timeseries(900, ivs, 2, 3.5, seed=seed)
        series_path = tmp_path / "series.csv"
        write_labeled_csv(label_timestamps(frame, [], "normal"), series_path)
        ivs_path = tmp_path / "intervals.csv"
        write_intervals_csv(ivs, ivs_path)
        return series_path, ivs_path

    def test_synthgen_blobs(self, tmp_path):
        out = tmp_path / "blobs.csv"
        rc = main(["synthgen", "--kind", "blobs", "--counts", "N:50,F:10",
                   "--dim", "3", "--seed", "4", "--out", str(out)])
        assert rc == 0
        fm = read_feature_csv(out)
        assert class_distribution(fm.labels).counts == {"N": 50, "F": 10}

    def test_featurize_then_crossval(self, tmp_path):
        series_path, ivs_path = self._write_series(tmp_path)
        feat = tmp_path / "features.csv"
        rc = main(["featurize", "--series", str(series_path), "--intervals",
                   str(ivs_path), "--timestamp-col", "timestamp",
                   "--window-len", "20", "--slide-len", "10", "--out", str(feat)])
        assert rc == 0
        out_dir = tmp_path / "cv"
        rc = main(["crossval", "--features", str(feat), "--folds", "4",
                   "--rounds", "10", "--max-depth", "2", "--sampler", "smote",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "mean_metrics.csv").exists()

    def test_cli_deterministic_reports(self, tmp_path):
        series_path, ivs_path = self._write_series(tmp_path, seed=60)
        feat = tmp_path / "f.csv"
        main(["featurize", "--series", str(series_path), "--intervals", str(ivs_path),
              "--window-len", "20", "--slide-len", "10", "--out", str(feat)])
        args = ["crossval", "--features", str(feat), "--folds", "4", "--rounds", "8",
                "--max-depth", "2", "--sampler", "ewmote", "--seed", "5"]
        main(args + ["--out-dir", str(tmp_path / "r1")])
        main(args + ["--out-dir", str(tmp_path / "r2")])
        for name in ("fold_metrics.csv", "mean_metrics.csv", "confusion.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())

    def test_resample_cli(self, tmp_path):
        fm = _blobs(seed=11, n_maj=30, n_min=6)
        feat = tmp_path / "in.csv"
        write_feature_csv(fm, feat)
        out = tmp_path / "out.csv"
        rc = main(["resample", "--features", str(feat), "--sampler", "random",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert class_distribution(read_feature_csv(out).labels).counts == {"N": 30, "F": 30}

    def test_predict_events_cli(self, tmp_path):
        series_path, ivs_path = self._write_series(tmp_path, seed=70)
        test_path, test_ivs = self._write_series(tmp_path, seed=80)
        out_dir = tmp_path / "pe"
        rc = main(["predict-events", "--train-series", str(series_path),
                   "--train-intervals", str(ivs_path),
                   "--test-series", str(test_path), "--test-intervals", str(test_ivs),
                   "--window-len", "20", "--slide-len", "5", "--rounds", "10",
                   "--max-depth", "2", "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "events.csv").exists()
        assert (out_dir / "event_report.csv").exists()

    def test_ingest_cli(self, tmp_path):
        series_path, ivs_path = self._write_series(tmp_path, seed=90)
        out = tmp_path / "labeled.csv"
        rc = main(["ingest", "--series", str(series_path), "--intervals", str(ivs_path),
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_config_file_and_override(self, tmp_path):
        series_path, ivs_path = self._write_series(tmp_path, seed=95)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("window-len 20\nslide-len = 10   # comment\nrounds 8\n")
        feat = tmp_path / "f.csv"
        rc = main(["featurize", "--series", str(series_path), "--intervals",
                   str(ivs_path), "--config", str(cfg_path), "--out", str(feat)])
        assert rc == 0
        n_from_cfg = read_feature_csv(feat).n_rows
        rc = main(["featurize", "--series", str(series_path), "--intervals",
                   str(ivs_path), "--config", str(cfg_path), "--slide-len", "20",
                   "--out", str(feat)])
        assert rc == 0
        assert read_feature_csv(feat).n_rows < n_from_cfg   # flag overrode config

    def test_unknown_config_key_fails(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("wndow-len 20\n")
        rc = main(["crossval", "--features", "x.csv", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_error_line_on_missing_file(self, tmp_path, capsys):
        rc = main(["crossval", "--features", str(tmp_path / "nope.csv"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert '"message"' in err

    @pytest.mark.parametrize("text,error,detail", [
        ("timestamp,a,b\n0,1,2\n1,3\n", "ParseError", "row 3"),
        ("", "SchemaError", "empty file"),
        ("timestamp\n0\n1\n2\n", "DataError", "at least one channel"),
        ("timestamp,a\n0,1\nnan,2\n", "DataError", "finite"),
        ("timestamp,a\n0,1\ninf,2\ninf,3\n", "DataError", "duplicate"),
    ])
    def test_ingest_malformed_series_error_line(self, tmp_path, capsys, text, error, detail):
        series = tmp_path / "s.csv"
        series.write_text(text)
        rc = main(["ingest", "--series", str(series), "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        payload = json.loads(lines[0][len("error: "):])
        assert payload["type"] == error and detail in payload["message"]

    def test_ingest_oversized_cell_error_line(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("timestamp,a\n0,1\n1," + "x" * 140_000 + "\n")
        rc = main(["ingest", "--series", str(series), "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        payload = json.loads(lines[0][len("error: "):])
        assert payload["type"] == "ParseError" and "at row 3" in payload["message"]

    @pytest.mark.parametrize("text", ["not a model", '{"format": "imbfault-gbt", "version": 1}'])
    def test_predict_events_bad_model_in_error_line(self, tmp_path, capsys, text):
        series_path, ivs_path = self._write_series(tmp_path, seed=85)
        model = tmp_path / "model.json"
        model.write_text(text)
        rc = main(["predict-events", "--train-series", str(series_path),
                   "--train-intervals", str(ivs_path), "--test-series", str(series_path),
                   "--window-len", "20", "--slide-len", "10", "--standardize", "false",
                   "--model-in", str(model), "--out-dir", str(tmp_path / "pe")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        payload = json.loads(lines[0][len("error: "):])
        assert payload["type"] == "DataError" and "model.json" in payload["message"]

    @pytest.mark.parametrize("argv, config_text, error, detail", [
        (["crossval", "--features", "f.csv", "--rounds", "abc", "--out-dir", "o"], None,
         "ConfigError", "--rounds"),
        (["crossval", "--features", "f.csv", "--lr", "x", "--out-dir", "o"], None,
         "ConfigError", "--lr"),
        (["crossval", "--features", "f.csv", "--config", "run.cfg", "--out-dir", "o"],
         "rounds abc\n", "ConfigError", "--rounds"),
        (["synthgen", "--kind", "blobs", "--counts", "N:abc", "--out", "b.csv"], None,
         "ConfigError", "--counts"),
        (["synthgen", "--kind", "blobs", "--counts", "N:-3,F:2", "--out", "b.csv"], None,
         "DataError", "count must be >= 1"),
        (["ingest", "--series", "s.csv", "--out", "o.csv", "--rounds", "0"], None,
         "ConfigError", "rounds must be >= 1"),
        (["synthgen", "--kind", "fig2a", "--out", "o.csv", "--domains", "bogus"], None,
         "ConfigError", "unknown feature domains"),
        (["featurize", "--series", "missing.csv", "--label-rule", "bogus", "--out", "o.csv"],
         None, "ConfigError", "'bogus'"),
        (["crossval", "--features", "missing.csv", "--reduce", "pca", "--pca-variance", "2",
          "--out-dir", "o"], None, "ConfigError", "pca_variance"),
        (["resample", "--features", "missing.csv", "--emi-ridge", "nan", "--out", "o.csv"],
         None, "ConfigError", "emi_ridge must be finite"),
    ])
    def test_bad_setting_error_line(self, tmp_path, monkeypatch, capsys, argv, config_text,
                                    error, detail):
        monkeypatch.chdir(tmp_path)
        if config_text:
            (tmp_path / "run.cfg").write_text(config_text)
        rc = main(argv)
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        payload = json.loads(lines[0][len("error: "):])
        assert payload["type"] == error and detail in payload["message"]
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("bad_file", ["f.csv", "run.cfg"])
    def test_non_utf8_input_error_line(self, tmp_path, monkeypatch, capsys, bad_file):
        monkeypatch.chdir(tmp_path)
        write_feature_csv(_blobs(), "f.csv")
        (tmp_path / "run.cfg").write_text("rounds 3\n")
        with open(bad_file, "ab") as fh:
            fh.write(b"# caf\xe9\n")
        rc = main(["resample", "--features", "f.csv", "--config", "run.cfg", "--out", "o.csv"])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        payload = json.loads(lines[0][len("error: "):])
        assert payload == {"type": "ParseError", "message": f"{bad_file}: not UTF-8 text "
                                                            "(invalid continuation byte)"}

    @pytest.mark.parametrize("argv, detail", [
        ([], "required: command"),
        (["crossval", "--features", "x.csv"], "imbfault crossval: the following arguments "
                                              "are required: --out-dir"),
        (["crossval", "--features", "x.csv", "--out-dir", "o", "--bogus", "1"],
         "unrecognized arguments: --bogus 1"),
        (["synthgen", "--kind", "bogus", "--out", "o.csv"], "invalid choice: 'bogus'"),
        (["synthgen", "--kind", "blobs", "--dim", "two", "--out", "o.csv"], "--dim"),
        (["nosuchcommand"], "invalid choice: 'nosuchcommand'"),
        (["synthgen", "--kind", "blobs", "--dim", "0", "--out", "o.csv"], "--dim must be >= 1"),
        (["synthgen", "--kind", "blobs", "--dim", "-1", "--out", "o.csv"], "--dim must be >= 1"),
    ])
    def test_usage_error_is_one_line(self, tmp_path, monkeypatch, capsys, argv, detail):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and captured.out == ""
        payload = json.loads(lines[0][len("error: "):])
        assert payload["type"] == "ConfigError" and detail in payload["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["crossval", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: imbfault")

    @pytest.mark.parametrize("flag, value", [("--rounds", "0"), ("--domains", "bogus")])
    def test_bad_settings_fail_before_reading(self, tmp_path, monkeypatch, flag, value):
        feat = tmp_path / "f.csv"
        write_feature_csv(_blobs(), feat)
        calls = []
        monkeypatch.setattr(cli, "read_feature_csv", lambda *a, **k: calls.append(a))
        rc = main(["crossval", "--features", str(feat), flag, value,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert calls == []

    def test_synthgen_timeseries_cli(self, tmp_path):
        ivs_path = tmp_path / "ivs.csv"
        write_intervals_csv([FaultInterval(50, 120, "F")], ivs_path)
        out = tmp_path / "series.csv"
        out_ivs = tmp_path / "ivs_out.csv"
        rc = main(["synthgen", "--kind", "timeseries", "--ticks", "300",
                   "--n-channels", "2", "--shift", "2.0", "--intervals", str(ivs_path),
                   "--out", str(out), "--out-intervals", str(out_ivs), "--seed", "1"])
        assert rc == 0
        assert read_intervals_csv(out_ivs) == [FaultInterval(50, 120, "F")]


def _fresh_python(*args):
    """Run a fresh interpreter that imports imbfault from this checkout."""
    src = os.path.dirname(os.path.dirname(imbfault.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


def test_import_loads_no_scipy():
    out = _fresh_python("-c", "import sys, imbfault, imbfault.cli; "
                              "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert out.returncode == 0 and out.stdout == "[]\n", out.stderr


@pytest.mark.parametrize("flags", [
    ["--standardize", "false", "--reduce", "lda"],
    ["--standardize", "false", "--reduce", "pca", "--pca-dims", "1"],
    [],
], ids=["lda", "pca", "standardize"])
def test_crossval_on_features_near_1e200(tmp_path, flags):
    """Features times 2**665 (about 1e200) run without a warning or an error,
    and give the reports of the unscaled features: the standardizer, PCA and
    LDA fit on rows scaled by a power of two."""
    fm = gaussian_blobs([((0, 0, 0), 1.0, 60, "N"), ((2, 1, 0), 1.0, 15, "F"),
                         ((0, 2, 1), 1.0, 12, "G")], seed=4)
    write_feature_csv(fm, tmp_path / "small.csv")
    write_feature_csv(fm.with_data(np.ldexp(fm.data, 665)), tmp_path / "big.csv")
    args = ["--rounds", "10", "--max-depth", "2", "--folds", "3", *flags]
    for name in ("small", "big"):
        out = _fresh_python("-m", "imbfault.cli", "crossval", "--features",
                            str(tmp_path / f"{name}.csv"), *args,
                            "--out-dir", str(tmp_path / name))
        assert (out.returncode, out.stderr) == (0, "")
    for report in ("fold_metrics", "mean_metrics", "confusion", "roc_points"):
        assert ((tmp_path / "big" / f"{report}.csv").read_bytes()
                == (tmp_path / "small" / f"{report}.csv").read_bytes())


MINIMAL_ARGV = {
    "ingest": ["--series", "s.csv", "--out", "o.csv"],
    "synthgen": ["--kind", "fig2a", "--out", "o.csv"],
    "featurize": ["--series", "s.csv", "--out", "o.csv"],
    "resample": ["--features", "f.csv", "--out", "o.csv"],
    "crossval": ["--out-dir", "o"],
    "predict-events": ["--train-series", "a.csv", "--test-series", "b.csv", "--out-dir", "o"],
}


class TestPipelineConfigFromFlags:
    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_no_flags_gives_dataclass_defaults(self, command):
        args = build_parser().parse_args([command, *MINIMAL_ARGV[command]])
        assert cli._pipeline_config(args) == PipelineConfig()

    def test_every_setting_has_exactly_one_flag(self):
        names = sorted(cli._field(flag) for flag, _, _ in cli._PIPELINE_FLAGS)
        settable = [f.name for f in fields(PipelineConfig) if f.name != "sampler_params"]
        settable += [f.name for f in fields(SamplerParams)]
        assert names == sorted(settable)

    @pytest.mark.parametrize("settings, detail", [
        ({"window_len": 0}, "window_len"),
        ({"slide_len": -1}, "slide_len"),
        ({"label_rule": "bogus"}, "'bogus'"),
        ({"pca_dims": 2, "pca_variance": 0.9}, "at most one"),
        ({"pca_variance": 0.0}, "pca_variance"),
        ({"pca_variance": 1.5}, "pca_variance"),
        ({"pca_variance": float("nan")}, "pca_variance"),
        ({"pca_dims": -1}, "pca_dims"),
        ({"lda_dims": -2}, "lda_dims"),
        ({"lda_dims": 0}, "lda_dims"),
    ])
    def test_bad_setting_fails_on_construction(self, settings, detail):
        with pytest.raises(ConfigError, match=detail):
            PipelineConfig(**settings)

    def test_edge_settings_construct(self):
        PipelineConfig(window_len=1, slide_len=1, label_rule="midpoint", pca_dims=0)
        PipelineConfig(pca_variance=1.0, lda_dims=1)

    def test_lr_sets_learning_rate(self):
        args = build_parser().parse_args(["crossval", *MINIMAL_ARGV["crossval"],
                                          "--lr", "0.05", "--k1", "7"])
        assert cli._pipeline_config(args) == PipelineConfig(
            learning_rate=0.05, sampler_params=SamplerParams(k1=7))
