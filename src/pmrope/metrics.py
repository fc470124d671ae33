"""Evaluation statistics: token error rate, duration accuracy, style
similarity, bootstrap and Wilson confidence intervals, Pearson correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

DEFAULT_BOOTSTRAP_RESAMPLES = 10000
DEFAULT_BOOTSTRAP_SEED = 42
DEFAULT_DA_MARGIN = 0.10
CI_LEVEL = 0.95

# absorbs float rounding at inclusive boundaries (e.g. gen exactly 1.1*target)
_TIE_EPS = 1e-12


@dataclass
class EvalReport:
    metric: str
    mean: float
    ci_low: float
    ci_high: float
    n: int
    method: str      # "bootstrap" | "wilson"
    resamples: int   # 0 for closed-form methods
    seed: int        # 0 for closed-form methods


def error_rate(reference, hypothesis) -> float:
    """Levenshtein distance (unit costs) over the reference length: the
    error_rates of one pair.

    May exceed 1.0 when the hypothesis carries more errors than the reference
    has tokens.
    """
    return error_rates([reference], [hypothesis])[0]


def error_rates(references, hypotheses) -> list:
    """error_rate of each (reference, hypothesis) pair, by one dynamic programme
    over every pair at once.

    The programme runs one reference token per row, for every pair whose
    reference is that long: a row takes the deletion and substitution moves
    from the row above, then insertions as a running minimum of cur[j] - j,
    shifted back by j. Hypotheses are right-padded to the longest; a pair's
    distance is read at its own hypothesis length when its last reference
    row is done. Pairs run longest reference first, so the rows still going
    are always a prefix of them.
    """
    refs = [list(reference) for reference in references]
    hyps = [list(hypothesis) for hypothesis in hypotheses]
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references but {len(hyps)} hypotheses")
    if not all(refs):
        raise ValueError("reference must be nonempty")
    if not refs:
        return []
    ref_lens = np.array([len(ref) for ref in refs])
    hyp_lens = np.array([len(hyp) for hyp in hyps])
    # one array of every token gives references and hypotheses one dtype
    tokens = np.asarray([token for seq in refs + hyps for token in seq])
    order = np.argsort(-ref_lens, kind="stable")
    ref_tokens, hyp_tokens = np.split(tokens, [ref_lens.sum()])
    padded_refs = _right_padded(ref_tokens, ref_lens)[order]
    padded_hyps = _right_padded(hyp_tokens, hyp_lens)[order]
    ref_lens, hyp_lens = ref_lens[order], hyp_lens[order]
    j = np.arange(hyp_lens.max() + 1, dtype=np.int32)
    prev = np.tile(j, (len(refs), 1))
    cur = np.empty_like(prev)
    distances = np.empty(len(refs), dtype=np.int64)
    going = len(refs)
    for i in range(1, ref_lens[0] + 1):
        going = int((ref_lens[:going] >= i).sum())
        row = cur[:going]
        row[:, 0] = i
        np.minimum(prev[:going, 1:] + 1,
                   prev[:going, :-1] + (padded_refs[:going, i - 1, None] != padded_hyps[:going]),
                   out=row[:, 1:])
        row -= j
        np.minimum.accumulate(row, axis=1, out=row)
        row += j
        done = np.flatnonzero(ref_lens[:going] == i)
        distances[done] = row[done, hyp_lens[done]]
        prev, cur = cur, prev  # the rows that are done are never read again
    rates = np.empty(len(refs))
    rates[order] = distances / ref_lens
    return rates.tolist()


def _right_padded(tokens: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """[rows, max(lens)] array holding row r's lens[r] tokens, taken in order
    from tokens, left-aligned."""
    padded = np.zeros((lens.size, lens.max()), dtype=tokens.dtype)
    padded[np.arange(lens.max()) < lens[:, None]] = tokens
    return padded


def duration_accuracy(gen, target, margin: float = DEFAULT_DA_MARGIN) -> float:
    """Fraction of pairs with |gen - target| / target <= margin (inclusive)."""
    g = np.asarray(gen, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if g.shape != t.shape or g.ndim != 1:
        raise ValueError(f"length mismatch: {g.shape} vs {t.shape}")
    if g.size == 0:
        raise ValueError("duration_accuracy needs at least one pair")
    if (t <= 0).any():
        raise ValueError("targets must be positive")
    return float((np.abs(g - t) / t <= margin + _TIE_EPS).mean())


def bootstrap_ci(values, resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
                 seed: int = DEFAULT_BOOTSTRAP_SEED, metric: str = "mean") -> EvalReport:
    """Percentile bootstrap of the mean from one seeded generator, at CI_LEVEL."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("bootstrap_ci needs a nonempty 1-d sample")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = np.random.default_rng(seed)
    n = arr.size
    idx = rng.integers(0, n, size=(resamples, n))
    means = arr[idx].mean(axis=1)
    tail = (1.0 - CI_LEVEL) / 2.0 * 100.0  # 2.500000000000002, which the reports carry
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    mean = float(arr.mean())
    return EvalReport(metric=metric, mean=mean, ci_low=min(float(lo), mean),
                      ci_high=max(float(hi), mean), n=n, method="bootstrap",
                      resamples=resamples, seed=seed)


def wilson_interval(successes: int, n: int, metric: str = "proportion") -> EvalReport:
    """Closed-form Wilson score interval for a binomial proportion, at CI_LEVEL."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must lie in [0, {n}], got {successes}")
    z = NormalDist().inv_cdf(0.5 + CI_LEVEL / 2.0)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    return EvalReport(metric=metric, mean=p, ci_low=min(lo, p), ci_high=max(hi, p),
                      n=n, method="wilson", resamples=0, seed=0)


def _style_histogram(tokens, style_alphabets) -> np.ndarray:
    sets = [frozenset(a) for a in style_alphabets]
    hist = np.zeros(len(sets), dtype=np.float64)
    for token in tokens:
        for k, alphabet in enumerate(sets):
            if token in alphabet:
                hist[k] += 1.0
                break
    return hist


def style_similarity(prompt_tokens, generated_tokens, style_alphabets) -> float:
    """Cosine similarity of per-style-alphabet token histograms, in [-1, 1].

    Tokens outside every alphabet (control tokens) do not bin; a sequence with
    no in-alphabet tokens counts as orthogonal (similarity 0).
    """
    if len(list(prompt_tokens)) == 0 or len(list(generated_tokens)) == 0:
        raise ValueError("both token sequences must be nonempty")
    hp = _style_histogram(prompt_tokens, style_alphabets)
    hg = _style_histogram(generated_tokens, style_alphabets)
    np_norm = np.linalg.norm(hp)
    ng_norm = np.linalg.norm(hg)
    if np_norm == 0.0 or ng_norm == 0.0:
        return 0.0
    return float(hp @ hg / (np_norm * ng_norm))


def pearson_r(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise ValueError("pearson_r needs two equal-length samples of size >= 2")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson_r is undefined for zero-variance input")
    return float((xc * yc).sum() / (sx * sy))
