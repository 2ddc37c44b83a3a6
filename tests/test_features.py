import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbfault.core import WindowBatch
from imbfault.errors import ConfigError, DataError
from imbfault.features import (DOMAINS, STAT_NAMES, FeatureConfig, Standardizer,
                               featurize, fft_magnitude, freq_stats, time_stats,
                               wpt_decompose, wpt_stats)
from imbfault.rng import Pcg32

from oracles import naive_dft_magnitude, stats_oracle


_SQRT2, _SQRT3 = math.sqrt(2.0), math.sqrt(3.0)
ORACLE_FILTERS = {
    "haar": [1 / _SQRT2, 1 / _SQRT2],
    "db2": [v / (4 * _SQRT2) for v in (1 + _SQRT3, 3 + _SQRT3, 3 - _SQRT3, 1 - _SQRT3)],
}


def wpt_oracle(x, depth, wavelet):
    """Terminal wavelet-packet subbands by direct periodic filter-bank sums."""
    x = [float(v) for v in x]
    if depth == 0:
        return [x]
    lo = ORACLE_FILTERS[wavelet]
    hi = [(-1) ** k * lo[len(lo) - 1 - k] for k in range(len(lo))]
    if len(x) % 2:
        x = x + x[:1]
    n = len(x)
    approx = [sum(lo[j] * x[(2 * i + j) % n] for j in range(len(lo))) for i in range(n // 2)]
    detail = [sum(hi[j] * x[(2 * i + j) % n] for j in range(len(hi))) for i in range(n // 2)]
    return wpt_oracle(approx, depth - 1, wavelet) + wpt_oracle(detail, depth - 1, wavelet)


def featurize_oracle(values, config):
    """One featurize row from the scalar oracles: channel-major, domains in
    canonical order. The spectrum is a per-segment FFT: a naive DFT agrees
    with it only to ~1e-15 absolute, which the square roots in `margin`
    magnify on near-zero bins (TestFftMagnitude checks the FFT itself)."""
    row = []
    for x in values:
        for domain in config.domains:
            if domain == "origin":
                row += list(x)
            elif domain == "time":
                row += list(stats_oracle(x))
            elif domain == "frequency":
                row += list(stats_oracle(np.abs(np.fft.fft(x))))
            else:
                for band in wpt_oracle(x, config.wpt_depth, config.wavelet):
                    row += list(stats_oracle(band))
    return np.array(row)


class TestTimeStats:
    def test_known_vector(self):
        out = time_stats([1, 2, 3, 4])
        assert out[0] == 2.5
        assert out[1] == pytest.approx(math.sqrt(7.5))
        assert out[2] == 4 and out[3] == 1
        assert out[4] == 2.5
        assert out[5] == 3

    def test_constant_segment_factors_are_one(self):
        out = time_stats([3.0] * 8)
        assert out[6] == pytest.approx(1.0)
        assert out[7] == pytest.approx(1.0)
        assert out[8] == pytest.approx(1.0)

    def test_signed_vector(self):
        out = time_stats([3, -4])
        assert out[1] == pytest.approx(math.sqrt(12.5))
        assert out[6] == pytest.approx(4 / math.sqrt(12.5))
        assert out[6] == pytest.approx(1.13137, abs=1e-5)

    def test_all_zero_factors_are_zero(self):
        out = time_stats([0.0, 0.0, 0.0])
        assert out[6] == 0.0 and out[7] == 0.0 and out[8] == 0.0

    def test_odd_length_median(self):
        assert time_stats([5, 1, 3])[4] == 3

    def test_against_oracle(self):
        rng = Pcg32(10)
        for _ in range(200):
            x = rng.normals(2 + rng.randint(30)) * (1 + rng.randint(5))
            np.testing.assert_allclose(time_stats(x), stats_oracle(x), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=24), st.randoms())
    def test_permutation_invariant(self, values, pyrandom):
        shuffled = list(values)
        pyrandom.shuffle(shuffled)
        np.testing.assert_allclose(time_stats(values), time_stats(shuffled),
                                   rtol=0, atol=1e-9)

    # Subnormal values are excluded: there `values * s` is itself rounded to a
    # few bits, so the scaled window is not an exact multiple of the original.
    # With |v| >= 1e-300 and s >= 0.01 every scaled value stays normal.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e2, 1e2, allow_subnormal=False)
                    .filter(lambda v: v == 0.0 or abs(v) >= 1e-300), min_size=2, max_size=16),
           st.floats(0.01, 100.0))
    def test_scaling_property(self, values, s):
        base = time_stats(values)
        scaled = time_stats(np.asarray(values) * s)
        np.testing.assert_allclose(scaled[:6], base[:6] * s, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(scaled[6:], base[6:], rtol=1e-9, atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            time_stats([])
        with pytest.raises(DataError):
            time_stats([1.0, np.nan])


class TestFftMagnitude:
    def test_dc_only(self):
        np.testing.assert_allclose(fft_magnitude([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)

    def test_nyquist_only(self):
        np.testing.assert_allclose(fft_magnitude([1, -1, 1, -1]), [0, 0, 4, 0], atol=1e-12)

    def test_random_length8_vs_naive(self):
        rng = Pcg32(4)
        x = rng.normals(8)
        np.testing.assert_allclose(fft_magnitude(x), naive_dft_magnitude(x), atol=1e-9)

    def test_all_lengths_up_to_64(self):
        rng = Pcg32(5)
        for l in range(2, 65):
            x = rng.normals(l)
            np.testing.assert_allclose(fft_magnitude(x), naive_dft_magnitude(x), atol=1e-9)


class TestFreqStats:
    def test_constant_signal(self):
        out = freq_stats([2.0] * 6)
        assert out[2] == pytest.approx(12.0)   # max = l * c at the DC bin

    def test_two_sinusoids_dominant_bin(self):
        n = 32
        t = np.arange(n)
        x = 3.0 * np.sin(2 * np.pi * 4 * t / n) + 1.0 * np.sin(2 * np.pi * 9 * t / n)
        spectrum = naive_dft_magnitude(x)
        assert freq_stats(x)[2] == pytest.approx(spectrum.max(), abs=1e-9)
        assert np.argmax(fft_magnitude(x)) == 4

    def test_zero_signal(self):
        np.testing.assert_array_equal(freq_stats([0.0] * 8), np.zeros(9))


class TestWpt:
    def test_haar_depth1_pair(self):
        a, b = 3.0, 5.0
        approx, detail = wpt_decompose([a, b], 1)
        assert approx[0] == pytest.approx((a + b) / math.sqrt(2))
        assert detail[0] == pytest.approx((a - b) / math.sqrt(2))

    def test_haar_detail_of_constant_is_zero(self):
        _, detail = wpt_decompose([1.0, 1.0, 1.0, 1.0], 1)
        np.testing.assert_allclose(detail, 0.0, atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_parseval(self, depth):
        rng = Pcg32(depth)
        x = rng.normals(48)
        bands = wpt_decompose(x, depth)
        assert len(bands) == 2 ** depth
        total = sum(float(np.sum(b * b)) for b in bands)
        assert total == pytest.approx(float(np.sum(x * x)), abs=1e-9)

    def test_db2_parseval(self):
        rng = Pcg32(8)
        x = rng.normals(64)
        bands = wpt_decompose(x, 2, "db2")
        total = sum(float(np.sum(b * b)) for b in bands)
        assert total == pytest.approx(float(np.sum(x * x)), abs=1e-9)

    def test_odd_length_wraps(self):
        bands = wpt_decompose(np.arange(5, dtype=float), 1)
        assert len(bands[0]) == 3 and len(bands[1]) == 3

    def test_depth3_feature_count(self):
        out = wpt_stats(np.arange(16, dtype=float), 3)
        assert out.shape == (72,)

    def test_zero_signal_all_zero(self):
        np.testing.assert_array_equal(wpt_stats([0.0] * 16, 2), np.zeros(36))

    def test_constant_concentrates_in_approximation(self):
        bands = wpt_decompose([2.0] * 16, 3)
        assert np.abs(bands[0]).max() > 0
        for b in bands[1:]:
            np.testing.assert_allclose(b, 0.0, atol=1e-12)

    def test_too_short_errors(self):
        with pytest.raises(DataError):
            wpt_decompose([1.0, 2.0], 2)

    def test_unknown_wavelet(self):
        with pytest.raises(ConfigError):
            wpt_decompose([1.0, 2.0], 1, "sym9")


class TestFeaturize:
    def _windows(self, n_windows, channels, length, seed=0):
        rng = Pcg32(seed)
        values = [rng.normals(channels * length).reshape(channels, length)
                  for _ in range(n_windows)]
        return WindowBatch(np.arange(n_windows), values,
                           ["N" if i % 2 else "F" for i in range(n_windows)])

    def test_28_channels_time_only(self):
        fm = featurize(self._windows(3, 28, 10), FeatureConfig(domains=("time",)))
        assert fm.n_features == 252

    def test_8_channels_time_plus_frequency(self):
        fm = featurize(self._windows(2, 8, 12), FeatureConfig(domains=("time", "frequency")))
        assert fm.n_features == 144

    def test_origin_domain(self):
        fm = featurize(self._windows(2, 2, 20), FeatureConfig(domains=("origin",)))
        assert fm.n_features == 40
        assert fm.feature_names[0] == "ch0.origin.t0"

    def test_feature_names(self):
        fm = featurize(self._windows(1, 4, 8), FeatureConfig(domains=("time",)))
        assert "ch3.time.rms" in fm.feature_names
        assert fm.feature_names.index("ch0.time.mean") == 0

    def test_domain_order_is_canonical(self):
        a = FeatureConfig(domains=("frequency", "time"))
        assert a.domains == ("time", "frequency")

    def test_inconsistent_channels_error(self):
        rng = Pcg32(0)
        with pytest.raises(DataError, match="rectangular"):
            WindowBatch([0, 1], [rng.normals(8).reshape(2, 4), rng.normals(12).reshape(3, 4)],
                        ["N", "N"])

    def test_empty_windows_error(self):
        with pytest.raises(DataError, match="no windows"):
            featurize(WindowBatch([], np.zeros((0, 2, 4)), []), FeatureConfig())

    def test_unknown_domain(self):
        with pytest.raises(ConfigError):
            FeatureConfig(domains=("cepstrum",))
        assert set(DOMAINS) >= set(FeatureConfig(domains=("origin",)).domains)

    @settings(max_examples=150, deadline=None)
    @given(n_windows=st.integers(1, 6), channels=st.integers(1, 4),
           length=st.integers(1, 64),
           domains=st.sets(st.sampled_from(DOMAINS), min_size=1),
           wavelet=st.sampled_from(["haar", "db2"]), depth=st.integers(1, 3),
           kind=st.sampled_from(["random", "zero", "constant"]),
           constant=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_rows_equal_scalar_oracles(self, n_windows, channels, length, domains,
                                               wavelet, depth, kind, constant, seed):
        config = FeatureConfig(domains=tuple(domains), wpt_depth=depth, wavelet=wavelet)
        shape = (n_windows, channels, length)
        if kind == "random":
            rng = Pcg32(seed)
            values = rng.normals(n_windows * channels * length).reshape(shape) * (1 + seed % 7)
        else:
            values = np.full(shape, 0.0 if kind == "zero" else constant)
        windows = WindowBatch(np.arange(n_windows), values, ["N"] * n_windows)
        if "timefreq" in config.domains and length < 2 ** depth:
            with pytest.raises(DataError, match="too short"):
                featurize(windows, config)
            return
        fm = featurize(windows, config)
        for i in range(n_windows):
            np.testing.assert_allclose(fm.data[i], featurize_oracle(values[i], config),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("length,depth", [(3, 2), (1, 1), (7, 3)])
    def test_window_too_short_for_depth(self, length, depth):
        windows = self._windows(3, 2, length)
        with pytest.raises(DataError, match="too short"):
            featurize(windows, FeatureConfig(domains=("time", "timefreq"), wpt_depth=depth))

    def test_labels_carried(self):
        fm = featurize(self._windows(4, 1, 6), FeatureConfig())
        assert list(fm.labels) == ["F", "N", "F", "N"]


class TestStandardizer:
    def test_zscore(self):
        rng = Pcg32(3)
        X = rng.normals(300).reshape(100, 3) * 5 + 2
        std = Standardizer().fit(X)
        Z = std.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-12)

    def test_zero_variance_column(self):
        X = np.column_stack([np.ones(5), np.arange(5, dtype=float)])
        Z = Standardizer().fit(X).transform(X)
        assert np.all(np.isfinite(Z))
        np.testing.assert_array_equal(Z[:, 0], 0.0)

    @pytest.mark.parametrize("exp", [660, -660])
    def test_extreme_magnitudes_scale_exactly(self, exp):
        # At 2**660 the squared deviations overflow and at 2**-660 they
        # underflow. The fit takes its moments on rows scaled by a power of
        # two, so mean and scale are the unscaled ones times 2**exp and the
        # transform is bit-equal; the zero-variance column still gets 1.
        X = Pcg32(8).normals(60).reshape(20, 3) * 5 + 2
        X[:, 1] = 3.0
        want = Standardizer().fit(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Standardizer().fit(np.ldexp(X, exp))
            Z = got.transform(np.ldexp(X, exp))
        assert got.mean_.tobytes() == np.ldexp(want.mean_, exp).tobytes()
        assert got.scale_[1] == 1.0 and got.scale_[[0, 2]].tobytes() == np.ldexp(
            want.scale_[[0, 2]], exp).tobytes()
        assert Z.tobytes() == want.transform(X).tobytes()

    def test_unfitted_errors(self):
        with pytest.raises(DataError):
            Standardizer().transform(np.ones((2, 2)))

    def test_column_mismatch(self):
        std = Standardizer().fit(np.ones((3, 2)))
        with pytest.raises(DataError):
            std.transform(np.ones((3, 3)))

    @pytest.mark.parametrize("stat", list(STAT_NAMES))
    def test_stat_names_complete(self, stat):
        fm_names = [f"time.{s}" for s in STAT_NAMES]
        assert f"time.{stat}" in fm_names
