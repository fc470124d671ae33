"""Deterministic synthetic pseudo-codec corpus.

Each text symbol renders to a fixed motif of audio tokens, shifted into a
disjoint per-style sub-alphabet, and every text is emitted at several stretch
factors (token repetition, a tempo analog). Text and style are identical
across the stretch variants of a text, so target length is knowable only
through the decoder's progress schedule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .model import SpecialTokens, config_from_record


@dataclass(frozen=True)
class CorpusConfig:
    n_symbols: int = 16
    n_styles: int = 4
    motif_len: int = 4
    stretch_factors: tuple = (1, 2, 3)
    text_len_min: int = 3
    text_len_max: int = 8
    n_train: int = 4000
    n_val: int = 200
    n_test: int = 200
    seed: int = 0
    silence_prob: float = 0.0

    def __post_init__(self):
        if self.n_symbols < 1 or self.n_styles < 1 or self.motif_len < 1:
            raise ValueError("n_symbols, n_styles and motif_len must be positive")
        if not self.stretch_factors or any(s < 1 for s in self.stretch_factors):
            raise ValueError("stretch factors must be integers >= 1")
        if not 1 <= self.text_len_min <= self.text_len_max:
            raise ValueError("need 1 <= text_len_min <= text_len_max")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ValueError("split sizes must be positive")
        if not 0.0 <= self.silence_prob <= 1.0:
            raise ValueError("silence_prob must be in [0, 1]")


@dataclass
class SymbolSpec:
    """Per-symbol base motifs and the disjoint per-style alphabet blocks."""

    motifs: np.ndarray   # [n_symbols, motif_len], values in [0, per_style)
    per_style: int
    n_styles: int

    @property
    def n_symbols(self) -> int:
        return self.motifs.shape[0]

    def style_alphabet(self, style_id: int) -> range:
        if not 0 <= style_id < self.n_styles:
            raise ValueError(f"style {style_id} outside [0, {self.n_styles})")
        return range(style_id * self.per_style, (style_id + 1) * self.per_style)

    def style_alphabets(self) -> list:
        return [self.style_alphabet(k) for k in range(self.n_styles)]


@dataclass
class Utterance:
    text: list          # symbol ids
    style_id: int
    stretch: int
    audio: list         # audio token ids
    duration_tokens: int


@dataclass
class Corpus:
    config: CorpusConfig
    audio_vocab: int
    spec: SymbolSpec
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)


def build_symbol_spec(config: CorpusConfig, audio_vocab: int) -> SymbolSpec:
    """Seeded motif table; motifs are distinct across symbols."""
    per_style = audio_vocab // config.n_styles
    if per_style < 1 or config.n_styles * per_style > audio_vocab:
        raise ValueError(
            f"{config.n_styles} style alphabets do not fit in an audio vocab of {audio_vocab}"
        )
    if per_style ** config.motif_len < config.n_symbols:
        raise ValueError("motif space too small to give every symbol a distinct motif")
    rng = np.random.default_rng(config.seed)
    motifs = []
    seen = set()
    tries = 0
    while len(motifs) < config.n_symbols:
        motif = tuple(int(v) for v in rng.integers(0, per_style, size=config.motif_len))
        tries += 1
        if motif in seen:
            if tries > 1000 * config.n_symbols:
                raise ValueError("could not sample distinct motifs; enlarge the alphabet")
            continue
        seen.add(motif)
        motifs.append(motif)
    return SymbolSpec(motifs=np.array(motifs, dtype=np.int64), per_style=per_style,
                      n_styles=config.n_styles)


def render_audio(text, style_id: int, stretch: int, spec: SymbolSpec) -> list:
    """Concatenate style-shifted motifs, repeating each token `stretch` times."""
    if stretch < 1:
        raise ValueError(f"stretch must be >= 1, got {stretch}")
    if not 0 <= style_id < spec.n_styles:
        raise ValueError(f"style {style_id} outside [0, {spec.n_styles})")
    offset = style_id * spec.per_style
    out = []
    for symbol in text:
        if not 0 <= symbol < spec.n_symbols:
            raise ValueError(f"symbol {symbol} outside [0, {spec.n_symbols})")
        for token in spec.motifs[symbol]:
            out.extend([int(token) + offset] * stretch)
    return out


def _fresh_prompt_symbols(text, spec: SymbolSpec, prompt_symbols: int) -> list:
    """Deterministic prompt symbols, preferring ones absent from the text."""
    used = set(text)
    fresh = [s for s in range(spec.n_symbols) if s not in used]
    if len(fresh) < prompt_symbols:
        fresh += [s for s in range(spec.n_symbols) if s in used]
    return fresh[:prompt_symbols]


def prompt_for(utterance: Utterance, spec: SymbolSpec, prompt_symbols: int = 2) -> list:
    """Stretch-1 rendering of fresh symbols in the utterance's style — the
    voice-cloning prompt analog."""
    if prompt_symbols < 1:
        raise ValueError("prompt_symbols must be >= 1")
    symbols = _fresh_prompt_symbols(utterance.text, spec, prompt_symbols)
    return render_audio(symbols, utterance.style_id, 1, spec)


def generate_corpus(config: CorpusConfig, audio_vocab: int = 64) -> Corpus:
    """Sample disjoint text sets per split and render every stretch variant.

    Splits are sized exactly; when a split size is not a multiple of the
    stretch-factor count, the last text contributes only its first variants.
    """
    spec = build_symbol_spec(config, audio_vocab)
    silence_id = SpecialTokens.for_vocab(audio_vocab).silence
    rng = np.random.default_rng(config.seed)
    n_variants = len(config.stretch_factors)
    sizes = (config.n_train, config.n_val, config.n_test)
    texts_needed = [math.ceil(n / n_variants) for n in sizes]

    texts = []
    seen = set()
    tries = 0
    while len(texts) < sum(texts_needed):
        length = int(rng.integers(config.text_len_min, config.text_len_max + 1))
        text = tuple(int(v) for v in rng.integers(0, config.n_symbols, size=length))
        tries += 1
        if text in seen:
            if tries > 1000 * sum(texts_needed):
                raise ValueError("text space too small for disjoint splits; enlarge it")
            continue
        seen.add(text)
        texts.append(text)

    splits = []
    cursor = 0
    for size, n_texts in zip(sizes, texts_needed):
        utterances = []
        for text in texts[cursor:cursor + n_texts]:
            style = int(rng.integers(0, config.n_styles))
            for stretch in config.stretch_factors:
                audio = render_audio(text, style, int(stretch), spec)
                if config.silence_prob > 0.0:
                    replace = rng.random(len(audio)) < config.silence_prob
                    audio = [silence_id if hit else tok for tok, hit in zip(audio, replace)]
                utterances.append(Utterance(
                    text=list(text), style_id=style, stretch=int(stretch),
                    audio=audio, duration_tokens=len(audio),
                ))
        cursor += n_texts
        splits.append(utterances[:size])

    return Corpus(config=config, audio_vocab=audio_vocab, spec=spec,
                  train=splits[0], val=splits[1], test=splits[2])


# ---------------------------------------------------------------------------
# JSON Lines persistence
# ---------------------------------------------------------------------------

SPLIT_FILES = {"train": "train.jsonl", "val": "val.jsonl", "test": "test.jsonl"}
MANIFEST_FILE = "manifest.json"


def _utterance_line(utt: Utterance) -> str:
    record = {
        "text": utt.text,
        "style_id": utt.style_id,
        "stretch": utt.stretch,
        "audio": utt.audio,
        "duration_tokens": utt.duration_tokens,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def save_corpus(corpus: Corpus, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split, filename in SPLIT_FILES.items():
        with open(out / filename, "w", encoding="utf-8") as fh:
            for utt in getattr(corpus, split):
                fh.write(_utterance_line(utt))
    manifest = {"audio_vocab": corpus.audio_vocab, "config": asdict(corpus.config)}
    with open(out / MANIFEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


_INT = (_is_int, "an int")
_INT_LIST = (_is_int_list, "a list of ints")

#: each JSONL record key, the check its value must pass and what that check wants
_RECORD_FIELDS = {"text": _INT_LIST, "style_id": _INT, "stretch": _INT, "audio": _INT_LIST,
                  "duration_tokens": _INT}


def _load_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{where}: not valid JSON: {err}") from None


def load_manifest(corpus_dir):
    """(CorpusConfig, audio_vocab) recorded alongside a saved corpus.

    A missing or mistyped entry raises ValueError naming the file and the key.
    """
    path = Path(corpus_dir) / MANIFEST_FILE
    manifest = _load_json(path.read_text(encoding="utf-8"), str(path))
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    for key in ("config", "audio_vocab"):
        if key not in manifest:
            raise ValueError(f"{path}: missing key {key!r}")
    if not _is_int(manifest["audio_vocab"]):
        raise ValueError(f"{path}: key 'audio_vocab' must be {_INT[1]}, "
                         f"got {manifest['audio_vocab']!r}")
    try:
        config = config_from_record(CorpusConfig, manifest["config"])
    except ValueError as err:
        raise ValueError(f"{path}: key 'config': {err}") from None
    return config, manifest["audio_vocab"]


def _utterance_from_record(rec, where: str) -> Utterance:
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: record must be a JSON object")
    for key, (check, wanted) in _RECORD_FIELDS.items():
        if key not in rec:
            raise ValueError(f"{where}: missing key {key!r}")
        if not check(rec[key]):
            raise ValueError(f"{where}: key {key!r} must be {wanted}, got {rec[key]!r}")
    return Utterance(**{key: rec[key] for key in _RECORD_FIELDS})


def load_corpus(corpus_dir) -> Corpus:
    """Read a corpus saved by save_corpus.

    A malformed line raises ValueError naming the file, the line number and,
    for a missing or mistyped field, the key.
    """
    config, audio_vocab = load_manifest(corpus_dir)
    corpus = Corpus(config=config, audio_vocab=audio_vocab,
                    spec=build_symbol_spec(config, audio_vocab))
    for split, filename in SPLIT_FILES.items():
        path = Path(corpus_dir) / filename
        utterances = []
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                where = f"{path}, line {number}"
                utterances.append(_utterance_from_record(_load_json(line, where), where))
        setattr(corpus, split, utterances)
    return corpus
