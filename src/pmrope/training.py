"""Next-token training: AdamW, linear warmup/decay, unit-norm clipping,
token-budget batching, and lowest-validation-loss checkpoint selection.

Each utterance trains as one decoder stream bos + prompt + separator + audio
+ eos under teacher forcing; progress spans the stream the decoder reads
(all but the eos) so inference can mirror it. The loss covers the prompt
region by default (an option masks it out) and never covers padding.

train() runs in workers.forked_worker, which shares the parameters with its
worker, where one runs. Both processes then open training tapes in
_share_gradients alone, and gradients are summed in the order one tape over
the whole batch sums them, so the loss curve and the checkpoint bytes do not
depend on whether the worker runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .checkpoint import save_checkpoint
from .model import (
    ModelConfig,
    ModelParams,
    SpecialTokens,
    decoder_batch,
    encode_batch,
    init_params,
)
from .numerics import Tape
from .synthcorpus import Corpus, check_model_fits, prompt_for
from .workers import WorkerError, forked_worker

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: decoder tokens per forward-only batch in evaluate_loss
EVAL_TOKEN_BUDGET = 8192


class DivergenceError(RuntimeError):
    """Raised when training hits a non-finite loss or gradient."""

    result = None  # train() sets the partial TrainResult


@dataclass
class TrainConfig:
    peak_lr: float = 1e-4
    weight_decay: float = 1e-2
    total_steps: int = 20000
    warmup_fraction: float = 0.02
    clip_norm: float = 1.0
    token_budget: int = 4096
    seed: int = 0
    validation_interval: int = 500
    mask_prompt: bool = False

    def __post_init__(self):
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in (0, 1), got {self.warmup_fraction}")
        if not 0.0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be positive and finite, got {self.peak_lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be nonnegative and finite, got {self.weight_decay}")
        if not 0.0 < self.clip_norm < math.inf:
            raise ValueError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")
        if self.token_budget < 1:
            raise ValueError(f"token_budget must be positive, got {self.token_budget}")
        if self.validation_interval < 1:
            raise ValueError(f"validation_interval must be positive, got {self.validation_interval}")


@dataclass
class OptimState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimState":
        return cls(
            m={n: np.zeros_like(t.data) for n, t in params.items()},
            v={n: np.zeros_like(t.data) for n, t in params.items()},
        )


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Piecewise-linear schedule: 0 -> peak over the warmup, then peak -> 0."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    warmup = math.ceil(cfg.warmup_fraction * cfg.total_steps)
    if step <= warmup:
        return cfg.peak_lr * step / warmup
    return cfg.peak_lr * (cfg.total_steps - step) / (cfg.total_steps - warmup)


def clip_gradients(params: ModelParams, clip_norm: float) -> float:
    """Rescale all gradients in place so the global L2 norm is at most
    clip_norm; returns the pre-clip norm."""
    total = 0.0
    for _, t in params.items():
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > clip_norm:
        factor = clip_norm / norm
        for _, t in params.items():
            if t.grad is not None:
                t.grad *= factor
    return norm


def _decayed(name: str) -> bool:
    # Gains and embedding tables are exempt from weight decay.
    return not (name.endswith(".norm") or name.endswith("_emb"))


def adamw_step(params: ModelParams, state: OptimState, lr: float, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update with bias correction."""
    for name, t in params.items():
        if t.grad is None or not np.isfinite(t.grad).all():
            raise DivergenceError(f"non-finite gradient in {name}; step aborted")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, t in params.items():
        g = t.grad
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        if cfg.weight_decay and _decayed(name):
            t.data -= lr * cfg.weight_decay * t.data
        t.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Examples and batching
# ---------------------------------------------------------------------------


@dataclass
class DecoderExample:
    """One teacher-forcing example: encoder text plus the decoder stream."""

    text: np.ndarray     # encoder input token ids
    stream: np.ndarray   # bos + prompt + separator + audio + eos
    prompt_len: int


@dataclass
class Batch:
    examples: list
    tokens: np.ndarray   # [n, max_len] streams, right-padded with the pad id
    lengths: np.ndarray  # true stream lengths


def build_example(utterance, spec, specials: SpecialTokens) -> DecoderExample:
    prompt = prompt_for(utterance, spec)
    stream = [specials.bos, *prompt, specials.separator, *utterance.audio, specials.eos]
    return DecoderExample(
        text=np.asarray(utterance.text, dtype=np.int64),
        stream=np.asarray(stream, dtype=np.int64),
        prompt_len=len(prompt),
    )


def make_batches(examples, token_budget: int, seed: int, pad_id: int) -> list:
    """Shuffle deterministically, then pack greedily under the token budget."""
    for i, ex in enumerate(examples):
        if len(ex.stream) > token_budget:
            raise ValueError(
                f"utterance #{i} has {len(ex.stream)} decoder tokens, over budget {token_budget}"
            )
    order = np.random.default_rng(seed).permutation(len(examples))
    batches = []
    current: list = []
    current_tokens = 0
    for idx in order:
        ex = examples[int(idx)]
        n = len(ex.stream)
        if current and current_tokens + n > token_budget:
            batches.append(_finish_batch(current, pad_id))
            current, current_tokens = [], 0
        current.append(ex)
        current_tokens += n
    if current:
        batches.append(_finish_batch(current, pad_id))
    return batches


def _finish_batch(examples: list, pad_id: int) -> Batch:
    lengths = np.array([len(ex.stream) for ex in examples], dtype=np.int64)
    tokens = np.full((len(examples), int(lengths.max())), pad_id, dtype=np.int64)
    for row, ex in enumerate(examples):
        tokens[row, : len(ex.stream)] = ex.stream
    return Batch(examples=examples, tokens=tokens, lengths=lengths)


# quadratic attention cost makes mixed-length padding expensive; a batch's rows
# are regrouped by similar stream length before the fused passes
_GROUP_WASTE = 1.25


def _length_groups(lengths) -> list:
    """Row indices of a batch, longest stream first, cut into groups whose
    longest stream is at most _GROUP_WASTE times their shortest."""
    groups = []
    for row in sorted(range(len(lengths)), key=lambda i: (-lengths[i], i)):
        if groups and lengths[groups[-1][0]] <= _GROUP_WASTE * lengths[row]:
            groups[-1].append(row)
        else:
            groups.append([row])
    return groups


def _loss_mask(batch: Batch, rows, mask_prompt: bool) -> np.ndarray:
    """[len(rows), S] positions of some rows of a batch that their pass scores."""
    lengths = batch.lengths[rows] - 1  # teacher forcing drops the last token
    position = np.arange(int(lengths.max()))
    mask = position < lengths[:, None]
    if mask_prompt:  # nor the predictions of the prompt tokens and the separator
        mask &= position > np.array([batch.examples[i].prompt_len for i in rows])[:, None]
    return mask


def _fused_loss(batch: Batch, rows, params: ModelParams, config: ModelConfig,
                mask_prompt: bool):
    """Mean NLL of some rows of a batch in one pass, sliced from the batch's
    padded streams, and the number of positions in the mean."""
    loss_mask = _loss_mask(batch, rows, mask_prompt)
    S = loss_mask.shape[1]
    tokens = batch.tokens[rows, : S + 1]
    enc_states, text_lens = encode_batch([batch.examples[i].text for i in rows], params, config)
    logits = decoder_batch(tokens[:, :-1], enc_states, text_lens, batch.lengths[rows] - 1,
                           None, params, config)
    flat = nm.reshape(logits, (loss_mask.size, config.audio_vocab_ext))
    loss = nm.cross_entropy(flat, tokens[:, 1:].reshape(-1), loss_mask.reshape(-1))
    return loss, int(loss_mask.sum())


def _weighted_sum(parts, total: int):
    """Sum of (loss, count) parts, each weighted count/total, folded in order."""
    combined = nm.scale(parts[0][0], parts[0][1] / total)
    for loss, count in parts[1:]:
        combined = nm.add(combined, nm.scale(loss, count / total))
    return combined


def _pass_cost(batch: Batch, rows) -> float:
    """Estimated work of one fused pass: rows x (longest length)^1.5."""
    return len(rows) * float(batch.lengths[rows[0]]) ** 1.5


def _split(costs, worker) -> int:
    """How many leading items the worker takes: the count that leaves the
    two processes' costs closest, the last item always staying with the
    main process. 0 without a worker."""
    if worker is None:
        return 0
    whole, before, best = sum(costs), 0.0, (math.inf, 0)
    for k in range(len(costs)):
        best = min(best, (max(before, whole - before), k))
        before += costs[k]
    return best[1]


def batch_loss(batch: Batch, params: ModelParams, config: ModelConfig,
               mask_prompt: bool, groups) -> list:
    """The (mean NLL tensor, positions in the mean) part of each of some
    length groups of a batch, given as row lists, one fused pass each. The
    batch's loss is _weighted_sum of all its groups' parts over the batch's
    positions."""
    return [_fused_loss(batch, rows, params, config, mask_prompt) for rows in groups]


def _share_gradients(batch: Batch, mask_prompt: bool, groups, total: int,
                     params: ModelParams, config: ModelConfig) -> tuple:
    """Some length groups of a batch, forward and backward on one tape: their
    batch_loss parts, and every parameter's gradient of their share of the
    batch loss (the parts weighted over its total positions; None where the
    share leaves one untouched), or None when the share is not finite. The
    gradients are left on the params too."""
    for _, t in params.items():
        t.grad = None  # so the backward leaves only this share's gradient in it
    with Tape() as tape:
        parts = batch_loss(batch, params, config, mask_prompt, groups)
        share = _weighted_sum(parts, total)
    if not math.isfinite(share.item()):
        return parts, None
    tape.backward(share)
    return parts, [t.grad for _, t in params.items()]


def _each_group_gradients(batch: Batch, mask_prompt: bool, groups, total: int,
                          params: ModelParams, config: ModelConfig) -> list:
    """_share_gradients of each length group on a tape of its own."""
    return [_share_gradients(batch, mask_prompt, [rows], total, params, config)
            for rows in groups]


def _group_losses(items, mask_prompt: bool, params: ModelParams,
                  config: ModelConfig) -> list:
    """batch_loss parts of each (batch, rows) length group, in order and
    forward-only, with one batch_loss call per run of one batch's groups."""
    out = []
    for _, run in itertools.groupby(items, key=lambda item: id(item[0])):
        run = list(run)
        out += batch_loss(run[0][0], params, config, mask_prompt, [rows for _, rows in run])
    return out


def _step_gradients(batch: Batch, params: ModelParams, config: ModelConfig,
                    mask_prompt: bool, worker=None) -> float:
    """The mean NLL of a training batch. When it is finite, every parameter
    is left holding the gradient one tape over all the batch's groups gives it.

    With a worker, the batch's longest length groups run there meanwhile,
    each on a tape of its own, and the rest here on one tape. The worker's
    groups' gradients are then added to this tape's last group first, the
    order in which one tape over the whole batch sums them.
    """
    groups = _length_groups(batch.lengths.tolist())
    total = sum(int(_loss_mask(batch, rows, mask_prompt).sum()) for rows in groups)
    k = _split([_pass_cost(batch, rows) for rows in groups], worker)
    if k:
        worker.submit(_each_group_gradients, batch, mask_prompt, groups[:k], total)
    parts, _ = _share_gradients(batch, mask_prompt, groups[k:], total, params, config)
    theirs = worker.receive() if k else []
    loss = _weighted_sum([p for group, _ in theirs for p in group] + parts, total).item()
    if math.isfinite(loss):  # so every share is, and every share has gradients
        for i, (_, t) in enumerate(params.items()):
            for _, grads in reversed(theirs):
                if grads[i] is None:
                    continue
                if t.grad is None:
                    t.grad = grads[i]
                else:
                    t.grad += grads[i]
    return loss


def evaluate_loss(examples, params: ModelParams, config: ModelConfig,
                  mask_prompt: bool = False, worker=None) -> float:
    """Mean NLL over a list of examples, forward-only. With a worker, a
    cost-balanced share of the batches' length groups runs there."""
    if not examples:
        raise ValueError("evaluate_loss needs at least one example")
    pad = SpecialTokens.for_vocab(config.audio_vocab).pad
    batches = make_batches(examples, EVAL_TOKEN_BUDGET, seed=0, pad_id=pad)
    items = [(batch, rows) for batch in batches for rows in _length_groups(batch.lengths.tolist())]
    k = _split([_pass_cost(batch, rows) for batch, rows in items], worker)
    if k:
        worker.submit(_group_losses, items[:k], mask_prompt)
    mine = _group_losses(items[k:], mask_prompt, params, config)
    parts = (worker.receive() if k else []) + mine
    total_nll, total_count = 0.0, 0
    for _, run in itertools.groupby(zip(items, parts), key=lambda pair: id(pair[0][0])):
        run = [part for _, part in run]  # one batch's parts, folded as its mean
        count = sum(n for _, n in run)
        total_nll += _weighted_sum(run, count).item() * count
        total_count += count
    return total_nll / total_count


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    best_val_loss: float
    best_step: int
    curve: list = field(default_factory=list)  # rows of (step, train_loss, val_loss)


def train(corpus: Corpus, cfg: TrainConfig, model_config: ModelConfig,
          checkpoint_path=None, verbose: bool = False) -> TrainResult:
    """Run cfg.total_steps updates and return the lowest-validation snapshot.

    The best checkpoint is written to checkpoint_path (when given) every time
    validation improves, so a divergence abort always leaves the last good
    checkpoint on disk; the DivergenceError carries the partial result, as
    does the WorkerError of a worker that dies or hangs. No process started
    here outlives the call.
    """
    check_model_fits(corpus.config, corpus.audio_vocab, model_config)
    if not corpus.train or not corpus.val:
        raise ValueError("train and validation splits must be nonempty")
    specials = SpecialTokens.for_vocab(model_config.audio_vocab)
    train_ex = [build_example(u, corpus.spec, specials) for u in corpus.train]
    val_ex = [build_example(u, corpus.spec, specials) for u in corpus.val]

    params = init_params(model_config, cfg.seed)
    state = OptimState.for_params(params)

    with forked_worker(params, model_config) as worker:
        init_train = evaluate_loss(train_ex[: min(len(train_ex), 200)], params, model_config,
                                   cfg.mask_prompt, worker)
        init_val = evaluate_loss(val_ex, params, model_config, cfg.mask_prompt, worker)
        curve = [(0, init_train, init_val)]
        best_params = params.copy()
        best_val = init_val
        best_step = 0
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, best_params)
        if verbose:
            print(f"step {0:>6d}/{cfg.total_steps}  train {init_train:.4f}  val {init_val:.4f}")

        window: list = []
        batches = itertools.chain.from_iterable(  # a new shuffle each epoch, made when reached
            make_batches(train_ex, cfg.token_budget, cfg.seed + epoch, specials.pad)
            for epoch in itertools.count())
        try:
            for step, batch in zip(range(1, cfg.total_steps + 1), batches):
                loss_value = _step_gradients(batch, params, model_config, cfg.mask_prompt,
                                             worker)
                if step == cfg.total_steps and worker is not None:
                    worker.stop()  # the final validation runs here meanwhile
                    worker = None
                if not math.isfinite(loss_value):
                    raise DivergenceError(f"non-finite training loss at step {step - 1}")
                clip_gradients(params, cfg.clip_norm)
                try:
                    adamw_step(params, state, lr_at(step, cfg), cfg)
                except DivergenceError as err:
                    raise DivergenceError(f"{err} (step {step - 1})") from None
                window.append(loss_value)
                if step % cfg.validation_interval == 0 or step == cfg.total_steps:
                    val = evaluate_loss(val_ex, params, model_config, cfg.mask_prompt, worker)
                    train_avg = sum(window) / len(window)
                    window = []
                    curve.append((step, train_avg, val))
                    if val < best_val:
                        best_val = val
                        best_step = step
                        best_params = params.copy()
                        if checkpoint_path is not None:
                            save_checkpoint(checkpoint_path, best_params)
                    if verbose:
                        print(f"step {step:>6d}/{cfg.total_steps}  train {train_avg:.4f}  "
                              f"val {val:.4f}  lr {lr_at(step, cfg):.2e}")
        except (DivergenceError, WorkerError) as err:
            err.result = TrainResult(best_params, best_val, best_step, curve)
            raise
    return TrainResult(best_params, best_val, best_step, curve)


def write_loss_csv(path, curve) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,train_loss,val_loss\n")
        for step, train_loss, val_loss in curve:
            fh.write(f"{step},{train_loss:.6f},{val_loss:.6f}\n")
