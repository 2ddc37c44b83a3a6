"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts. The scalar oracles live in `oracles.py`, shared with the module
tests and written independently of the library.
"""

import math
import time
import warnings

import numpy as np
import pytest

import imbfault as ib
from imbfault.rng import Pcg32

from oracles import (auc_pair_oracle, average_linkage_oracle, dense_solve_oracle, knn_oracle,
                     naive_dft_magnitude, stats_oracle, union_sweep_oracle)

warnings.filterwarnings("ignore", category=UserWarning)


def _verdict(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    rng = Pcg32(100)

    for _ in range(30):
        pool = rng.normals(300).reshape(100, 3)
        q = rng.normals(3)
        assert ib.knn(q, pool, 5).tolist() == knn_oracle(q, pool, 5)

    for _ in range(25):
        n = 4 + rng.randint(9)       # <= 12 points
        pts = rng.normals(n * 2).reshape(n, 2) * (1 + rng.randint(3))
        labels = ib.agglomerative_clusters(pts, 2.5)
        got = {frozenset(np.flatnonzero(labels == c).tolist()) for c in set(labels)}
        want = {frozenset(c) for c in average_linkage_oracle(pts, 2.5)}
        assert got == want

    for _ in range(40):
        n = 6 + rng.randint(15)      # <= 20 instances
        y = ["p" if rng.random() < 0.5 else "n" for _ in range(n)]
        y[0], y[1] = "p", "n"
        s = [round(rng.random(), 1) for _ in range(n)]
        assert abs(ib.auc(y, s, "p") - auc_pair_oracle(y, s, "p")) < 1e-9

    for _ in range(500):
        events = []
        for _ in range(1 + rng.randint(25)):
            start = rng.randint(100)
            events.append(ib.FaultEvent(float(start), float(start + rng.randint(20)),
                                        f"F{rng.randint(3)}"))
        got = ib.merge_events(events)
        want = union_sweep_oracle(events)
        assert len(got) == len(want)
        assert all(abs(a.t_start - b.t_start) < 1e-9 and abs(a.t_end - b.t_end) < 1e-9
                   and a.label == b.label for a, b in zip(got, want))

    for _ in range(50):
        A = rng.normals(25).reshape(5, 5)
        cov = A @ A.T + 0.5 * np.eye(5)
        mean = rng.normals(5)
        model = ib.GaussianModel(mean, cov, ridge=1e-8)
        x = rng.normals(5)
        missing = sorted({rng.randint(5), rng.randint(5)})
        got = ib.impute_conditional(model, x, missing)
        want = dense_solve_oracle(mean, cov, 1e-8, x, missing)
        assert np.max(np.abs(got - want)) < 1e-9

    elapsed = time.monotonic() - t0
    _verdict(1, "oracle equivalence", elapsed < 10.0, f"({elapsed:.1f}s, budget 10s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_weighting_fidelity():
    surviving = 0
    for seed in range(50):
        sc = ib.fig2a_noisy_scenario(seed)
        s_min = sc.minority_rows()
        kept = set(ib.filtered_minority(s_min, sc.majority_rows(), 5).tolist())
        n_clean = len(s_min) - len(sc.noise_rows)
        planted = set(range(n_clean, len(s_min)))
        surviving += len(kept & planted)

    rng = Pcg32(42)
    s_min = rng.normals(60).reshape(12, 5)
    s_maj = rng.normals(300).reshape(60, 5) + 2.5
    params = ib.SamplerParams()
    wset = ib.selection_probabilities(s_min, s_maj, params)
    n_draws = 100_000
    out = ib.ewmote(s_min, s_maj, n_draws, params, Pcg32(7))
    eq = (out[:, None, :] == wset.s_imin[None, :, :]).sum(axis=2)
    base = np.argmax(eq, axis=1)
    assert np.all(eq[np.arange(len(out)), base] >= 4)
    freq = np.bincount(base, minlength=len(wset.s_imin)) / n_draws
    tv = 0.5 * float(np.abs(freq - wset.probabilities).sum())

    ok = surviving == 0 and tv <= 0.01
    _verdict(2, "weighting fidelity", ok,
             f"(surviving noise rows {surviving}/50 seeds, base-draw TV {tv:.4f})")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_cluster_gap_claim():
    wins = 0
    fractions = []
    for seed in range(20):
        sc = ib.fig2b_split_cluster_scenario(seed)
        s_min, s_maj = sc.minority_rows(), sc.majority_rows()
        params = ib.SamplerParams()
        mw = ib.mwmote(s_min, s_maj, 1000, params, Pcg32(seed * 2 + 1))
        ew = ib.ewmote(s_min, s_maj, 1000, params, Pcg32(seed * 2 + 2))
        center = np.asarray(sc.gap_center)
        f_mw = float(np.mean(np.linalg.norm(mw - center, axis=1) <= sc.gap_radius))
        f_ew = float(np.mean(np.linalg.norm(ew - center, axis=1) <= sc.gap_radius))
        fractions.append((f_mw, f_ew))
        wins += f_mw > f_ew
    mean_mw = np.mean([f for f, _ in fractions])
    mean_ew = np.mean([f for _, f in fractions])
    _verdict(3, "cluster-gap generation claim", wins >= 18,
             f"(wins {wins}/20, mean gap fraction mwmote {mean_mw:.3f} vs ewmote {mean_ew:.3f})")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_binary_recall_gains():
    t0 = time.monotonic()
    dim = 6
    mu = np.full(dim, 2.2 / math.sqrt(dim))
    fm = ib.gaussian_blobs([(np.zeros(dim), 1.0, 2577, "N"), (mu, 0.8, 155, "F")],
                           seed=101)
    recalls = {}
    for sampler in ("none", "smote", "emicil", "mwmote", "ewmote"):
        cfg = ib.PipelineConfig(sampler=sampler, rounds=60, max_depth=3,
                                folds=10, seed=0)
        result = ib.run_crossval(fm, cfg, "/tmp/imbfault_crit4_" + sampler)
        recalls[sampler] = result["mean"]["F"]["recall"]
    elapsed = time.monotonic() - t0
    base = recalls["none"]
    gains = {s: recalls[s] - base for s in ("smote", "emicil", "mwmote", "ewmote")}
    ok = all(g >= 0.05 for g in gains.values()) and elapsed < 300.0
    detail = (f"(none {base:.3f}; " +
              ", ".join(f"{s} {recalls[s]:.3f}" for s in gains) +
              f"; {elapsed:.0f}s, budget 300s)")
    _verdict(4, "binary recall gains over none-sampling", ok, detail)


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_multiclass_fam_gain():
    dim = 6
    dirs = [np.zeros(dim)]
    for i in range(3):
        v = np.zeros(dim)
        v[2 * i] = 1.0
        v[2 * i + 1] = -1.0 if i % 2 else 1.0
        dirs.append(2.2 * v / np.linalg.norm(v))
    counts = [1000, 100, 20, 5]            # ratios 1, 1:10, 1:50, 1:200
    labels = ["N", "F1", "F2", "F3"]
    specs = [(dirs[i], 1.0, counts[i], labels[i]) for i in range(4)]
    fm = ib.gaussian_blobs(specs, seed=77)
    diffs = []
    for seed in range(5):
        fams = {}
        for sampler in ("none", "ewmote"):
            cfg = ib.PipelineConfig(sampler=sampler, rounds=30, max_depth=3,
                                    folds=10, seed=seed)
            result = ib.run_crossval(fm, cfg, f"/tmp/imbfault_crit5_{sampler}_{seed}")
            fams[sampler] = result["mean"]["__macro__"]["fam"]
        diffs.append(fams["ewmote"] - fams["none"])
    mean_diff = float(np.mean(diffs))
    _verdict(5, "multiclass macro-FAM gain", mean_diff >= 0.03,
             f"(mean diff {mean_diff:.4f} over 5 seeds, per-seed "
             + str([round(d, 3) for d in diffs]) + ")")


# ---------------------------------------------------------------- criterion 6

def _on_minority_segment(row, s_min, tol=1e-9):
    for i in range(len(s_min)):
        for j in range(len(s_min)):
            seg = s_min[j] - s_min[i]
            rel = row - s_min[i]
            denom = float(seg @ seg)
            if denom == 0.0:
                if np.allclose(rel, 0.0, atol=tol):
                    return True
                continue
            t = float(rel @ seg) / denom
            proj = s_min[i] + t * seg
            if -tol <= t <= 1 + tol and np.max(np.abs(row - proj)) < tol:
                return True
    return False


def test_criterion_6_sampler_invariants():
    rng = Pcg32(600)
    checked = {s: 0 for s in ("smote", "emicil", "mwmote", "ewmote")}
    for trial in range(200):
        d = 2 + rng.randint(3)
        m_min = 3 + rng.randint(10)
        m_maj = 10 + rng.randint(20)
        s_min = rng.normals(m_min * d).reshape(m_min, d)
        s_maj = rng.normals(m_maj * d).reshape(m_maj, d) + 1.5
        n = rng.randint(14)
        params = ib.SamplerParams(k=3, k1=3, k2=2, k3=3)
        seed = trial * 7 + 1

        for sampler in checked:
            a = ib.SAMPLERS[sampler](s_min, s_maj, n, params, Pcg32(seed))
            b = ib.SAMPLERS[sampler](s_min, s_maj, n, params, Pcg32(seed))
            assert a.shape == (n, d)                          # count exact
            assert a.tobytes() == b.tobytes()                 # seed determinism
            if sampler in ("smote", "mwmote"):
                for row in a:
                    assert _on_minority_segment(row, s_min)   # collinearity
            else:
                for row in a:
                    matches = max(int(np.sum(row == base)) for base in s_min)
                    assert matches >= d - 1                   # one-coordinate deviation
            checked[sampler] += 1
    ok = all(v == 200 for v in checked.values())
    _verdict(6, "sampler invariants suite", ok, f"(200 instances x {len(checked)} samplers)")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_feature_correctness():
    rng = Pcg32(700)
    worst_stats = 0.0
    for _ in range(1000):
        x = rng.normals(2 + rng.randint(40)) * (1 + rng.randint(4))
        worst_stats = max(worst_stats,
                          float(np.max(np.abs(ib.time_stats(x) - stats_oracle(list(x))))))
    assert worst_stats < 1e-12

    worst_fft = 0.0
    for l in range(2, 65):
        x = rng.normals(l)
        worst_fft = max(worst_fft,
                        float(np.max(np.abs(ib.fft_magnitude(x) - naive_dft_magnitude(x)))))
    assert worst_fft < 1e-9

    worst_parseval = 0.0
    for depth in (1, 2, 3, 4):
        x = rng.normals(64)
        bands = ib.wpt_decompose(x, depth, "haar")
        total = sum(float(np.sum(b * b)) for b in bands)
        worst_parseval = max(worst_parseval, abs(total - float(np.sum(x * x))))
    assert worst_parseval < 1e-9

    _verdict(7, "feature correctness", True,
             f"(stats err {worst_stats:.1e}, dft err {worst_fft:.1e}, "
             f"parseval err {worst_parseval:.1e})")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_pipeline_leakage():
    fm = ib.gaussian_blobs([((0, 0, 0), 1.0, 120, "N"), ((2.5, 0, 0), 1.0, 30, "F")],
                           seed=800)
    folds = ib.stratified_folds(fm.labels, 5, Pcg32(1))
    test_idx = folds[0]
    train_idx = np.setdiff1d(np.arange(fm.n_rows), test_idx)
    perturbed = fm.data.copy()
    perturbed[test_idx] = perturbed[test_idx] * 3.7 + 100.0
    fm_p = ib.FeatureMatrix(perturbed, fm.labels, fm.feature_names)

    identical = []
    for reduce_kind in ("pca", "lda"):
        cfg = ib.PipelineConfig(sampler="ewmote", reduce=reduce_kind, pca_dims=2,
                                rounds=5, max_depth=2, folds=5, seed=0)
        a = ib.fit_fold(fm.select(train_idx), cfg, Pcg32(3))
        b = ib.fit_fold(fm_p.select(train_idx), cfg, Pcg32(3))
        identical.append(a.standardizer.mean_.tobytes() == b.standardizer.mean_.tobytes())
        identical.append(a.standardizer.scale_.tobytes() == b.standardizer.scale_.tobytes())
        identical.append(a.reducer.components.tobytes() == b.reducer.components.tobytes())
        identical.append(a.train_resampled.data.tobytes() == b.train_resampled.data.tobytes())
        import json
        identical.append(json.dumps(a.model.trees) == json.dumps(b.model.trees))
    _verdict(8, "pipeline leakage", all(identical),
             f"({sum(identical)}/{len(identical)} fitted artifacts bit-identical)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_end_to_end_prognostics():
    intervals = [ib.FaultInterval(400, 700, "F"), ib.FaultInterval(1300, 1600, "F"),
                 ib.FaultInterval(2200, 2500, "F")]
    outcomes = []
    for seed in range(5):
        train_frame, tr_ivs = ib.synthetic_timeseries(3000, intervals, 3, 3.0,
                                                      seed=1000 + seed)
        test_frame, te_ivs = ib.synthetic_timeseries(3000, intervals, 3, 3.0,
                                                     seed=2000 + seed)
        train = ib.label_timestamps(train_frame, tr_ivs, "normal")
        test = ib.LabeledSeries(test_frame, ["normal"] * test_frame.n_ticks)
        cfg = ib.PipelineConfig(window_len=20, slide_len=5, rounds=50, max_depth=3,
                                seed=seed)
        result = ib.run_predict_events(train, test, cfg, f"/tmp/imbfault_crit9_{seed}",
                                       true_intervals=te_ivs)
        frac = (result["fn_ticks"] + result["fp_ticks"]) / result["true_faulty_ticks"]
        outcomes.append((len(result["events"]), frac))
    ok = all(n == 3 and frac <= 0.10 for n, frac in outcomes)
    detail = "(" + ", ".join(f"seed{i}: {n} events, err {frac:.3f}"
                             for i, (n, frac) in enumerate(outcomes)) + ")"
    _verdict(9, "end-to-end prognostics", ok, detail)
