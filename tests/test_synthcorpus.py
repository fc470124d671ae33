import json

import numpy as np
import pytest

from pmrope.metrics import style_similarity
from pmrope.model import SpecialTokens
from pmrope.synthcorpus import (
    CorpusConfig,
    Utterance,
    build_symbol_spec,
    generate_corpus,
    load_corpus,
    prompt_for,
    render_audio,
    save_corpus,
)


@pytest.fixture
def spec():
    return build_symbol_spec(CorpusConfig(seed=5), audio_vocab=64)


class TestSymbolSpec:
    def test_disjoint_style_alphabets(self, spec):
        alphabets = spec.style_alphabets()
        seen = set()
        for alphabet in alphabets:
            tokens = set(alphabet)
            assert not tokens & seen
            seen |= tokens
        assert max(seen) < 64

    def test_motifs_distinct_across_symbols(self, spec):
        rows = {tuple(row) for row in spec.motifs}
        assert len(rows) == spec.n_symbols

    def test_motif_length_uniform(self, spec):
        assert spec.motifs.shape == (16, 4)

    def test_too_many_styles_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            build_symbol_spec(CorpusConfig(n_styles=100), audio_vocab=64)


class TestRenderAudio:
    def test_single_symbol_stretch_one(self, spec):
        assert len(render_audio([3], 0, 1, spec)) == 4

    def test_stretch_triples_in_place(self, spec):
        base = render_audio([3], 1, 1, spec)
        stretched = render_audio([3], 1, 3, spec)
        assert len(stretched) == 12
        assert stretched == [tok for tok in base for _ in range(3)]

    def test_deterministic(self, spec):
        assert render_audio([1, 2], 2, 2, spec) == render_audio([1, 2], 2, 2, spec)

    def test_tokens_live_in_style_alphabet(self, spec):
        for style in range(4):
            tokens = render_audio([0, 5, 9], style, 2, spec)
            assert set(tokens) <= set(spec.style_alphabet(style))

    def test_invalid_symbol_or_style(self, spec):
        with pytest.raises(ValueError):
            render_audio([99], 0, 1, spec)
        with pytest.raises(ValueError):
            render_audio([0], 9, 1, spec)
        with pytest.raises(ValueError):
            render_audio([0], 0, 0, spec)


def small_config(**overrides):
    defaults = dict(n_train=30, n_val=9, n_test=9, seed=11)
    defaults.update(overrides)
    return CorpusConfig(**defaults)


class TestGenerateCorpus:
    def test_split_sizes_exact(self):
        corpus = generate_corpus(small_config(), 64)
        assert (len(corpus.train), len(corpus.val), len(corpus.test)) == (30, 9, 9)

    def test_default_config_split_sizes(self):
        corpus = generate_corpus(CorpusConfig(), 64)
        assert (len(corpus.train), len(corpus.val), len(corpus.test)) == (4000, 200, 200)

    def test_split_sizes_exact_when_not_multiple_of_variants(self):
        corpus = generate_corpus(small_config(n_train=31), 64)
        assert len(corpus.train) == 31

    def test_duration_invariant(self):
        corpus = generate_corpus(small_config(), 64)
        for utt in corpus.train + corpus.val + corpus.test:
            assert utt.duration_tokens == len(utt.audio)
            assert utt.duration_tokens == len(utt.text) * 4 * utt.stretch

    def test_text_disjoint_across_splits(self):
        corpus = generate_corpus(small_config(), 64)
        train_texts = {tuple(u.text) for u in corpus.train}
        val_texts = {tuple(u.text) for u in corpus.val}
        test_texts = {tuple(u.text) for u in corpus.test}
        assert not train_texts & test_texts
        assert not train_texts & val_texts
        assert not val_texts & test_texts

    def test_stretch_variants_share_text_and_style(self):
        corpus = generate_corpus(small_config(), 64)
        for i in range(0, len(corpus.train) - 2, 3):
            group = corpus.train[i:i + 3]
            assert {tuple(u.text) for u in group} == {tuple(group[0].text)}
            assert {u.style_id for u in group} == {group[0].style_id}
            assert [u.stretch for u in group] == [1, 2, 3]
            lengths = [u.duration_tokens for u in group]
            assert lengths[1] == 2 * lengths[0] and lengths[2] == 3 * lengths[0]

    def test_audio_in_style_alphabet(self):
        corpus = generate_corpus(small_config(), 64)
        for utt in corpus.train:
            assert set(utt.audio) <= set(corpus.spec.style_alphabet(utt.style_id))

    def test_bit_reproducible(self):
        a = generate_corpus(small_config(), 64)
        b = generate_corpus(small_config(), 64)
        for split in ("train", "val", "test"):
            for ua, ub in zip(getattr(a, split), getattr(b, split)):
                assert ua == ub

    def test_silence_replacement_budget(self):
        silence = SpecialTokens.for_vocab(64).silence
        corpus = generate_corpus(small_config(silence_prob=0.5), 64)
        tokens = [tok for u in corpus.train for tok in u.audio]
        fraction = sum(tok == silence for tok in tokens) / len(tokens)
        assert 0.35 <= fraction <= 0.65

    def test_silence_absent_by_default(self):
        silence = SpecialTokens.for_vocab(64).silence
        corpus = generate_corpus(small_config(), 64)
        assert all(silence not in u.audio for u in corpus.train)


class TestPromptFor:
    def test_prompt_length(self, spec):
        utt = Utterance(text=[1, 2, 3], style_id=2, stretch=2, audio=[], duration_tokens=1)
        assert len(prompt_for(utt, spec)) == 2 * 4

    def test_prompt_in_style_alphabet(self, spec):
        utt = Utterance(text=[1, 2], style_id=3, stretch=1, audio=[], duration_tokens=1)
        assert set(prompt_for(utt, spec)) <= set(spec.style_alphabet(3))

    def test_prompt_symbols_avoid_the_text(self, spec):
        utt = Utterance(text=[0, 1, 2], style_id=0, stretch=1, audio=[], duration_tokens=1)
        prompt = prompt_for(utt, spec)
        text_render = render_audio([0, 1, 2], 0, 1, spec)
        # fresh symbols: prompt must not be a prefix of the text's own rendering
        assert prompt[:4] != text_render[:4]

    def test_clean_prompt_has_unit_style_similarity(self):
        corpus = generate_corpus(small_config(), 64)
        alphabets = corpus.spec.style_alphabets()
        for utt in corpus.train[:6]:
            prompt = prompt_for(utt, corpus.spec)
            assert style_similarity(prompt, utt.audio, alphabets) == pytest.approx(1.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(small_config(), 64)
        save_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded.config == corpus.config
        assert loaded.audio_vocab == 64
        assert np.array_equal(loaded.spec.motifs, corpus.spec.motifs)
        for split in ("train", "val", "test"):
            assert getattr(loaded, split) == getattr(corpus, split)

    def test_silence_ids_pass_the_range_check(self, tmp_path):
        corpus = generate_corpus(small_config(silence_prob=0.5), 64)
        save_corpus(corpus, tmp_path)
        assert load_corpus(tmp_path).train == corpus.train

    def test_regeneration_is_byte_identical(self, tmp_path):
        save_corpus(generate_corpus(small_config(), 64), tmp_path / "a")
        save_corpus(generate_corpus(small_config(), 64), tmp_path / "b")
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_jsonl_line_fields(self, tmp_path):
        save_corpus(generate_corpus(small_config(), 64), tmp_path)
        with open(tmp_path / "train.jsonl", encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        assert set(record) == {"text", "style_id", "stretch", "audio", "duration_tokens"}

    def test_manifest_records_seed(self, tmp_path):
        save_corpus(generate_corpus(small_config(), 64), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert manifest["audio_vocab"] == 64
