"""Structure-aware reconstruction objectives for time-series anomaly detection."""

from .detector import (
    ScoreSeries,
    TrainConfig,
    TrainResult,
    score,
    threshold_best_f1,
    threshold_quantile,
    train,
)
from .losses import LossWeights
from .metrics import (
    ConfusionCounts,
    air,
    avg_improved,
    entire_f1,
    pa_counts,
    point_adjust,
    rpa_counts,
)
from .model import (
    AdamState,
    DenseAutoencoder,
    adam_step,
    init_adam,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .series import (
    NormalizationStats,
    Segment,
    TimeSeries,
    apply_normalization,
    fit_normalization,
    labels_from_segments,
    load_csv,
    segments_from_labels,
    sliding_windows,
)
from .spectral import dft_naive
from .synth import AnomalySpec, ChannelSpec, GeneratorConfig, generate_base, inject, make_benchmark

__version__ = "0.1.0"
