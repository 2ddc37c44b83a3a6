"""Walk through the front half of the pipeline: synthesize a labeled
multichannel series, slice it into sliding windows, and extract statistical
features in the time, frequency and time-frequency domains.
"""

import numpy as np

import imbfault as ib

# A 3-channel series with two planted fault episodes. During a fault every
# channel's mean shifts, which is what the window statistics pick up.
intervals = [ib.FaultInterval(300, 449, "fault"), ib.FaultInterval(800, 949, "fault")]
frame, intervals = ib.synthetic_timeseries(1200, intervals, n_channels=3,
                                           shift=2.5, seed=7)
series = ib.label_timestamps(frame, intervals, "normal")
print(f"series: {frame.n_channels} channels x {frame.n_ticks} ticks")

# Slice into windows of 20 ticks advanced by 5; a window straddling a fault
# boundary takes the majority label with ties going to the fault.
windows = ib.segment(series, window_len=20, slide_len=5, rule="majority")
dist = ib.class_distribution(windows.labels)
print(f"windows: {len(windows)} total, counts {dist.counts}, "
      f"imbalance 1:{dist.ratios['fault']:.1f}")

# Nine statistics per channel per domain. The frequency domain applies the
# same nine to the DFT magnitude spectrum; the time-frequency domain applies
# them to each terminal subband of a depth-3 wavelet packet tree.
for domains in [("time",), ("time", "frequency"), ("time", "frequency", "timefreq")]:
    config = ib.FeatureConfig(domains=domains, wpt_depth=3, wavelet="haar")
    fm = ib.featurize(windows, config)
    print(f"domains {'+'.join(domains):30s} -> {fm.n_features:4d} features")

config = ib.FeatureConfig(domains=("time",))
fm = ib.featurize(windows, config)
print("\nfirst few feature names:", ", ".join(fm.feature_names[:6]), "...")

# Fault windows separate cleanly from normal ones on the mean feature.
mean_col = fm.feature_names.index("ch0.time.mean")
normal_mean = fm.data[fm.labels == "normal", mean_col].mean()
fault_mean = fm.data[fm.labels == "fault", mean_col].mean()
print(f"ch0.time.mean: normal {normal_mean:+.2f} vs fault {fault_mean:+.2f}")

# Reduction: PCA keeping 95% of the variance, fitted on the features.
std = ib.Standardizer().fit(fm.data)
z = std.transform(fm.data)
model = ib.pca_fit(z, variance=0.95)
reduced = ib.pca_transform(model, z)
print(f"\nPCA at 95% variance: {fm.n_features} -> {reduced.shape[1]} dims "
      f"(top ratios {np.round(model.spectrum[:3], 3)})")
