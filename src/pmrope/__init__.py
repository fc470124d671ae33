"""Desk-scale encoder-decoder codec language model with progress-monitoring
rotary cross-attention, duration-controlled decoding, and an evaluation suite.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .decoding import GenerationResult, SamplerConfig, filter_and_sample, generate, generate_batch
from .duration import (
    DEFAULT_RATES,
    DurationEstimate,
    estimate_from_rate,
    estimate_from_reference,
    target_token_count,
)
from .metrics import (
    EvalReport,
    bootstrap_ci,
    duration_accuracy,
    error_rate,
    error_rates,
    pearson_r,
    style_similarity,
    wilson_interval,
)
from .model import (
    ModelConfig,
    ModelParams,
    SpecialTokens,
    decoder_forward,
    encode,
    init_params,
)
from .numerics import Tape, Tensor
from .positional import RopeParams, progress_ids
from .synthcorpus import (
    Corpus,
    CorpusConfig,
    SymbolSpec,
    Utterance,
    generate_corpus,
    load_corpus,
    prompt_for,
    render_audio,
    save_corpus,
)
from .training import (
    DivergenceError,
    OptimState,
    TrainConfig,
    TrainResult,
    adamw_step,
    clip_gradients,
    lr_at,
    make_batches,
    train,
)
from .workers import WorkerError

__version__ = "0.1.0"
