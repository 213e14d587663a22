"""Circular higher-order HMMs with suprasegmental prosody fusion.

A sequence-classification toolkit for speech emotion recognition: an MFCC
front-end, order-1/2/3 circular hidden Markov models trained by EM on a
composite-context lattice, a prosodic suprasegmental layer fused with the
acoustic score, GMM and VQ baselines, and the evaluation protocol
(accuracy tables, confusion matrices, Student's t comparison).
"""

__version__ = "0.1.0"

from .features import (
    AudioClip,
    FeatureSequence,
    FrameProsody,
    MfccConfig,
    append_deltas,
    extract_features,
    frame_and_window,
    frame_prosody,
    load_features,
    load_wav,
    mfcc,
    preemphasize,
    save_features,
    save_features_csv,
)
from .hmm import (
    CircularTopology,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    baum_welch_train,
    forward_log_likelihood,
    initial_model,
    joint_log_prob,
    promote_order,
    sample_sequence,
    sampler,
    sequence_log_prob,
    train_circular_chain,
    viterbi_align,
)
from .suprasegmental import (
    Csphmm3Model,
    SuprasegmentalLayout,
    SuprasegmentalModel,
    fused_log_likelihood,
    segment_by_alignment,
    suprasegmental_log_likelihood,
    train_suprasegmental,
)
from .classifiers import (
    GmmBaselineModel,
    IncompatibleFeaturesError,
    IncompleteBankError,
    ModelBank,
    ModelSizeError,
    TrainOptions,
    UnscorableUtteranceError,
    VqBaselineModel,
    bank_scores,
    classify,
    lbg_codebook,
    load_bank,
    save_bank,
    train_bank,
    train_gmm,
)
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    SignificanceResult,
    compare_accuracies,
    evaluate_split,
    pooled_sd,
    students_t,
)
from .corpus import (
    DEFAULT_EMOTIONS,
    ManifestError,
    SplitSpec,
    SyntheticSpec,
    UtteranceRecord,
    Utterance,
    default_split,
    default_synthetic_spec,
    load_manifest,
    load_synthetic_corpus,
    make_split,
    prosody_synthetic_spec,
    save_synthetic_corpus,
    split_utterances,
    synthesize_corpus,
)
from .config import ConfigError, ExperimentConfig, load_config
