"""Show how the oversamplers differ on the two geometric failure modes:
noisy minority outliers, and a minority cluster interrupted by majority
points. The weighted imputation sampler avoids generating into both traps.
"""

import warnings

import numpy as np

import imbfault as ib

warnings.filterwarnings("ignore", category=UserWarning)

# --- scenario 1: isolated minority outliers inside the majority mass -------
sc = ib.fig2a_noisy_scenario(seed=0)
s_min, s_maj = sc.minority_rows(), sc.majority_rows()
kept = ib.filtered_minority(s_min, s_maj, k1=5)
print(f"noisy scenario: {len(s_min)} minority rows, "
      f"{len(sc.noise_rows)} planted outliers, {len(kept)} kept after filtering")
print("outliers filtered out:",
      not (set(kept.tolist()) & set(range(len(s_min) - len(sc.noise_rows), len(s_min)))))

# --- scenario 2: majority points planted inside a minority cluster ---------
sc = ib.fig2b_split_cluster_scenario(seed=1)
s_min, s_maj = sc.minority_rows(), sc.majority_rows()
params = ib.SamplerParams()       # k=5, k1=5, k2=3, k3=|S_min|/2, cp=3

wset = ib.selection_probabilities(s_min, s_maj, params)
print(f"\nsplit-cluster scenario: informative set has {len(wset.s_imin)} of "
      f"{len(s_min)} minority rows")
print("selection probabilities:", np.round(wset.probabilities, 3))

center, radius = np.asarray(sc.gap_center), sc.gap_radius
for name in ("smote", "mwmote", "emicil", "ewmote"):
    synth = ib.SAMPLERS[name](s_min, s_maj, 2000, params, ib.Pcg32(99))
    in_gap = float(np.mean(np.linalg.norm(synth - center, axis=1) <= radius))
    print(f"{name:8s} fraction of synthetics inside the planted majority gap: {in_gap:.3f}")

# --- balancing a multi-class matrix ----------------------------------------
fm = ib.gaussian_blobs([((0, 0, 0), 1.0, 400, "N"),
                        ((2.5, 0, 0), 1.0, 40, "F1"),
                        ((0, 2.5, 0), 1.0, 8, "F2")], seed=3)
before = ib.class_distribution(fm.labels)
balanced = ib.resample_multiclass(fm, "ewmote", params, ib.Pcg32(5))
after = ib.class_distribution(balanced.labels)
print(f"\nmulti-class balancing: {before.counts} -> {after.counts}")
print("originals preserved:", bool(np.array_equal(balanced.data[:fm.n_rows], fm.data)))
