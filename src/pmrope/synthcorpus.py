"""Deterministic synthetic pseudo-codec corpus.

Each text symbol renders to a fixed motif of audio tokens, shifted into a
disjoint per-style sub-alphabet, and every text is emitted at several stretch
factors (token repetition, a tempo analog). Text and style are identical
across the stretch variants of a text, so target length is knowable only
through the decoder's progress schedule.

render_audio is the only renderer: for each (style, stretch) pair it builds
once a table of every symbol's tokens and keeps it on the SymbolSpec, whose
motifs are read-only so that no table goes stale. load_corpus decodes each
line with model.read_json, which names the file and line of JSON Python cannot
read, and checks each record's id lists whole, with min, max and a set.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .model import _FIELD_CHECKS, ModelConfig, SpecialTokens, config_from_record, read_json

#: text symbols rendered into each utterance's style prompt
PROMPT_SYMBOLS = 2


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


@dataclass(frozen=True)
class SymbolSpec:
    """Per-symbol base motifs, read-only, and the disjoint per-style alphabet blocks."""

    motifs: np.ndarray   # [n_symbols, motif_len], values in [0, per_style)
    per_style: int
    n_styles: int
    #: render_audio's (style_id, stretch) -> {symbol: tokens}
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        motifs = np.array(self.motifs, dtype=np.int64)
        motifs.flags.writeable = False
        object.__setattr__(self, "motifs", motifs)

    def __reduce__(self):  # through __post_init__, as unpickling would leave motifs writable
        return SymbolSpec, (self.motifs, self.per_style, self.n_styles)

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
    return SymbolSpec(motifs=motifs, per_style=per_style, n_styles=config.n_styles)


def render_audio(text, style_id: int, stretch: int, spec: SymbolSpec) -> list:
    """Concatenate style-shifted motifs, repeating each token `stretch` times,
    by joining the text's entries in the (style_id, stretch) table on spec."""
    if stretch < 1:
        raise ValueError(f"stretch must be >= 1, got {stretch}")
    if not 0 <= style_id < spec.n_styles:
        raise ValueError(f"style {style_id} outside [0, {spec.n_styles})")
    key = (operator.index(style_id), operator.index(stretch))  # int keys only: 1.0 == 1
    table = spec.tables.get(key)
    if table is None:
        offset = key[0] * spec.per_style
        table = spec.tables[key] = {
            symbol: [token + offset for token in motif for _ in range(key[1])]
            for symbol, motif in enumerate(spec.motifs.tolist())}
    try:
        return list(chain.from_iterable(map(table.__getitem__, text)))
    except KeyError as err:  # the first symbol without a motif
        raise ValueError(f"symbol {err.args[0]} outside [0, {spec.n_symbols})") from None


def prompt_for(utterance: Utterance, spec: SymbolSpec) -> list:
    """Stretch-1 rendering of PROMPT_SYMBOLS symbols in the utterance's style —
    the voice-cloning prompt analog. Symbols absent from the text come first,
    in symbol order."""
    symbols = sorted(range(spec.n_symbols), key=set(utterance.text).__contains__)[:PROMPT_SYMBOLS]
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
        text = tuple(rng.integers(0, config.n_symbols, size=length).tolist())
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
                    replace = (rng.random(len(audio)) < config.silence_prob).tolist()
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


def save_corpus(corpus: Corpus, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split, filename in SPLIT_FILES.items():
        with open(out / filename, "w", encoding="utf-8") as fh:
            for utt in getattr(corpus, split):  # vars: asdict would copy every audio list
                fh.write(json.dumps(vars(utt), separators=(",", ":")) + "\n")
    manifest = {"audio_vocab": corpus.audio_vocab, "config": asdict(corpus.config)}
    with open(out / MANIFEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


#: each JSONL record key -> (check of its value, what the check wants), by
#: the config-field kind the value must be
_RECORD_CHECKS = {key: _FIELD_CHECKS[kind] for key, kind in (
    ("text", "tuple"), ("style_id", "int"), ("stretch", "int"), ("audio", "tuple"),
    ("duration_tokens", "int"))}


def check_model_fits(config: CorpusConfig, audio_vocab: int, model: ModelConfig) -> None:
    """Raise ValueError, naming both values, unless a model of config model
    reads and writes this corpus's alphabets: the same audio_vocab, and no
    more text symbols than its text_vocab."""
    if audio_vocab != model.audio_vocab:
        raise ValueError(f"corpus audio_vocab {audio_vocab} does not match the model's "
                         f"audio_vocab {model.audio_vocab}")
    if config.n_symbols > model.text_vocab:
        raise ValueError(f"corpus n_symbols {config.n_symbols} exceeds the model's "
                         f"text_vocab {model.text_vocab}")


def load_manifest(corpus_dir):
    """(CorpusConfig, audio_vocab) recorded alongside a saved corpus.

    A file that is not UTF-8 or not JSON raises ValueError naming it, and a
    missing or mistyped entry one naming the file and the key.
    """
    path = Path(corpus_dir) / MANIFEST_FILE
    manifest = read_json(path.read_bytes(), str(path))
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    for key in ("config", "audio_vocab"):
        if key not in manifest:
            raise ValueError(f"{path}: missing key {key!r}")
    is_int, wanted = _FIELD_CHECKS["int"]
    if not is_int(manifest["audio_vocab"]):
        raise ValueError(f"{path}: key 'audio_vocab' must be {wanted}, "
                         f"got {manifest['audio_vocab']!r}")
    try:
        config = config_from_record(CorpusConfig, manifest["config"])
    except ValueError as err:
        raise ValueError(f"{path}: key 'config': {err}") from None
    return config, manifest["audio_vocab"]


def _utterance_from_record(rec, where: str, spec: SymbolSpec, audio_vocab: int) -> Utterance:
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: record must be a JSON object")
    for key, (check, wanted) in _RECORD_CHECKS.items():
        if key not in rec:
            raise ValueError(f"{where}: missing key {key!r}")
        if not check(rec[key]):
            raise ValueError(f"{where}: key {key!r} must be {wanted}, got {rec[key]!r}")
    silence = SpecialTokens.for_vocab(audio_vocab).silence
    text, audio, duration = rec["text"], rec["audio"], rec["duration_tokens"]
    audio_ids = set(audio) - {silence}
    # each list is checked whole, by min and max; what a check wants is
    # formatted only once it fails
    ranges = (
        ("text", text and 0 <= min(text) and max(text) < spec.n_symbols,
         "nonempty, with ids in [0, {n_symbols})"),
        ("audio", not audio_ids or 0 <= min(audio_ids) and max(audio_ids) < audio_vocab,
         "ids in [0, {audio_vocab}) or the silence id {silence}"),
        ("style_id", 0 <= rec["style_id"] < spec.n_styles, "in [0, {n_styles})"),
        ("stretch", rec["stretch"] >= 1, ">= 1"),
        ("duration_tokens", duration >= 1, ">= 1"),
        ("duration_tokens", duration == len(audio), "the audio's length {length}"),
    )
    for key, ok, wanted in ranges:
        if not ok:
            wanted = wanted.format(n_symbols=spec.n_symbols, audio_vocab=audio_vocab,
                                   silence=silence, n_styles=spec.n_styles, length=len(audio))
            raise ValueError(f"{where}: key {key!r} must be {wanted}, got {rec[key]!r}")
    return Utterance(text, rec["style_id"], rec["stretch"], audio, duration)


def load_corpus(corpus_dir) -> Corpus:
    """Read a corpus saved by save_corpus.

    A malformed line (not UTF-8, not JSON, or a record with a missing,
    mistyped or out-of-range field) raises ValueError naming the file, the
    line number and, for a field, the key. The manifest sets the ranges:
    text ids below n_symbols, audio ids below audio_vocab or the silence id,
    style_id below n_styles, stretch and duration_tokens at least 1, and
    duration_tokens the audio's length.
    """
    config, audio_vocab = load_manifest(corpus_dir)
    corpus = Corpus(config=config, audio_vocab=audio_vocab,
                    spec=build_symbol_spec(config, audio_vocab))
    for split, filename in SPLIT_FILES.items():
        path = Path(corpus_dir) / filename
        utterances = []
        with open(path, "rb") as fh:  # decoded line by line, so a bad byte names its line
            for number, line in enumerate(fh, start=1):
                where = f"{path}, line {number}"
                utterances.append(_utterance_from_record(read_json(line, where), where,
                                                         corpus.spec, audio_vocab))
        setattr(corpus, split, utterances)
    return corpus
