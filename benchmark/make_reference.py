"""Regenerate the frozen reference checkpoint used by the benchmark.

Trains the acceptance recipe (default ModelConfig, peak_lr 1.5e-3, weight
decay 0.02, token budget 2048, prompt masked, 4000 steps, validation every
250) on the seed-0 default corpus, writes the best-validation checkpoint to
benchmark/reference/reference.pmrt and its sha256 next to it. About ten
minutes on two CPU cores.

    python3 benchmark/make_reference.py
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pmrope.model import ModelConfig  # noqa: E402
from pmrope.synthcorpus import CorpusConfig, generate_corpus  # noqa: E402
from pmrope.training import TrainConfig, train  # noqa: E402

REFERENCE_DIR = HERE / "reference"
CHECKPOINT = REFERENCE_DIR / "reference.pmrt"
DIGEST = REFERENCE_DIR / "reference.sha256"

RECIPE = TrainConfig(peak_lr=1.5e-3, weight_decay=0.02, total_steps=4000,
                     validation_interval=250, token_budget=2048, seed=0,
                     mask_prompt=True)


def main() -> int:
    model_config = ModelConfig()
    corpus = generate_corpus(CorpusConfig(seed=0), model_config.audio_vocab)
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    partial = CHECKPOINT.with_suffix(".partial")
    started = time.perf_counter()
    result = train(corpus, RECIPE, model_config, checkpoint_path=partial, verbose=True)
    partial.replace(CHECKPOINT)
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    DIGEST.write_text(f"{digest}  {CHECKPOINT.name}\n", encoding="utf-8")
    print(f"best step {result.best_step}, val loss {result.best_val_loss:.4f}, "
          f"{CHECKPOINT.stat().st_size} bytes, sha256 {digest}, "
          f"{time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
