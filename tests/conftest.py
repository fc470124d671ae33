import functools
import hashlib

import numpy as np
import pytest

from pmrope import workers
from pmrope.model import ModelConfig, init_params
from pmrope.synthcorpus import CorpusConfig, generate_corpus
from pmrope.training import TrainConfig, train


@pytest.fixture
def tiny_config():
    """Smallest config that still exercises every mechanism."""
    return ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=8, n_heads=2, head_dim=4,
                       ffn_dim=16, text_vocab=6, audio_vocab=8)


@pytest.fixture
def tiny_model(tiny_config):
    return init_params(tiny_config, seed=7), tiny_config


@pytest.fixture
def tiny_model_f64(tiny_config):
    return init_params(tiny_config, seed=7, dtype=np.float64), tiny_config


def train_recipe(path, mask_prompt: bool) -> list:
    """The acceptance suite's reference recipe, cut to 40 steps: its best
    checkpoint is written to path, and its loss curve returned."""
    corpus = generate_corpus(CorpusConfig(seed=0), ModelConfig().audio_vocab)
    cfg = TrainConfig(peak_lr=1.5e-3, weight_decay=0.02, total_steps=40,
                      validation_interval=10, token_budget=2048, seed=0,
                      mask_prompt=mask_prompt)
    return train(corpus, cfg, ModelConfig(), checkpoint_path=path).curve


@pytest.fixture(scope="session")
def recipe_run(tmp_path_factory):
    """run(mask_prompt, worker_on): the (loss curve, checkpoint sha256) of
    train_recipe with the training worker on or off, trained once a session."""

    @functools.cache
    def run(mask_prompt: bool, worker_on: bool) -> tuple:
        path = tmp_path_factory.mktemp("recipe") / "model.pmrt"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workers, "_worker_wanted", lambda pinned: worker_on)
            curve = train_recipe(path, mask_prompt)
        return curve, hashlib.sha256(path.read_bytes()).hexdigest()

    return run
