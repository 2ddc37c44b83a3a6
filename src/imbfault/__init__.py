"""Class-imbalance learning toolkit for industrial fault diagnostics and
prognostics: windowed feature extraction, PCA/LDA reduction, synthetic
minority oversampling, boosted-tree classification, fault-event
reconstruction and imbalance-aware evaluation."""

from .core import (ClassDistribution, FaultEvent, FaultInterval, FeatureMatrix,
                   SamplerParams, TimeSeriesFrame, WindowBatch, class_distribution)
from .rng import Pcg32
from .ingestion import (LabeledSeries, label_timestamps, read_feature_csv,
                        read_intervals_csv, read_timeseries_csv, write_feature_csv,
                        write_intervals_csv)
from .segmentation import segment
from .features import (FeatureConfig, Standardizer, featurize, fft_magnitude,
                       freq_stats, time_stats, wpt_decompose, wpt_stats)
from .reduction import Projection, lda_fit, lda_transform, pca_fit, pca_transform
from .imputation import GaussianModel, fit_gaussian, impute_conditional
from .sampling import (SAMPLERS, WeightedMinoritySet, agglomerative_clusters,
                       borderline_majority, emicil, ewmote, filtered_minority, knn,
                       mwmote, random_oversample, resample_multiclass,
                       selection_probabilities, smote)
from .classifier import GbtModel, GbtParams, gbt_train
from .metrics import (ConfusionMatrix, auc, confusion, fam, macro_metrics, mcc,
                      precision_recall_f, roc_points)
from .events import event_confusion, merge_events, windows_to_events
from .synthgen import (Scenario, fig2a_noisy_scenario, fig2b_split_cluster_scenario,
                       gaussian_blobs, synthetic_timeseries)
from .pipeline import (FoldModel, PipelineConfig, apply_transforms, fit_fold,
                       run_crossval, run_predict_events, run_resample, stratified_folds)

__version__ = "0.1.0"
