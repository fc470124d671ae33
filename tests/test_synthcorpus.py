import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import prompt_reference, render_audio_reference, utterance_from_record_reference
from pmrope.metrics import style_similarity
from pmrope.model import SpecialTokens
from pmrope.synthcorpus import (
    CorpusConfig,
    SymbolSpec,
    Utterance,
    _utterance_from_record,
    build_symbol_spec,
    generate_corpus,
    load_corpus,
    prompt_for,
    render_audio,
    save_corpus,
)


def mostly(valid, invalid):
    """valid's values, and one time in ten invalid's."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 0 else valid)


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"ValueError: {err}"


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

    def test_motifs_are_read_only(self, spec):
        # render_audio keeps tables rendered from them on the spec
        with pytest.raises(ValueError, match="read-only"):
            spec.motifs[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.motifs = np.zeros_like(spec.motifs)
        source = np.zeros((2, 3), dtype=np.int64)
        copied = SymbolSpec(motifs=source, per_style=4, n_styles=1)
        source[0, 0] = 3
        assert copied.motifs[0, 0] == 0
        render_audio([1], 0, 1, spec)
        sent = pickle.loads(pickle.dumps(spec))  # as ablate sends it to its worker
        assert not sent.motifs.flags.writeable and np.array_equal(sent.motifs, spec.motifs)


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

    def test_invalid_symbol_is_the_first_bad_one(self, spec):
        with pytest.raises(ValueError, match=r"^symbol -1 outside \[0, 16\)$"):
            render_audio([0, -1, 99], 0, 1, spec)

    def test_rendering_is_a_fresh_list(self, spec):
        render_audio([2], 1, 2, spec).append(-1)
        assert render_audio([2], 1, 2, spec) == render_audio_reference([2], 1, 2, spec)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tables_equal_the_token_by_token_reference(self, data):
        # a fresh spec per example, the last one collected: a table kept
        # anywhere but on its own spec would serve another spec's tokens
        n_symbols, n_styles = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
        spec = build_symbol_spec(CorpusConfig(
            n_symbols=n_symbols, n_styles=n_styles, motif_len=data.draw(st.integers(1, 5)),
            seed=data.draw(st.integers(0, 3))), audio_vocab=64)
        for _ in range(data.draw(st.integers(1, 4))):  # later calls may reuse a table
            text = data.draw(st.lists(mostly(st.integers(0, n_symbols - 1),
                                             st.sampled_from([-2, -1, n_symbols, n_symbols + 1])),
                                      max_size=8))
            style = data.draw(mostly(st.integers(0, n_styles - 1), st.sampled_from([-1, n_styles])))
            stretch = data.draw(mostly(st.integers(1, 4), st.integers(-1, 0)))
            assert (outcome(render_audio, text, style, stretch, spec)
                    == outcome(render_audio_reference, text, style, stretch, spec))
            utt = Utterance(text=text, style_id=style, stretch=1, audio=[], duration_tokens=1)
            assert outcome(prompt_for, utt, spec) == outcome(prompt_reference, utt, spec)


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


#: valid records to mutate: silence among the audio ids, 16 symbols, 4 styles
RECORDS = [json.loads(json.dumps(vars(u))) for u in
           generate_corpus(small_config(silence_prob=0.3), 64).train]
RECORD_SPEC = build_symbol_spec(small_config(), 64)
SILENCE = SpecialTokens.for_vocab(64).silence
#: values inside a list or in place of a field: booleans and floats a JSON
#: decoder gives, ids at and past each bound, the silence id, other types
#: (a list or dict built afresh for each draw, since a mutation may insert into it)
ODD_VALUES = (st.sampled_from([True, False, 1.0, 0.0, None, "3"])
              | st.builds(lambda: [1]) | st.builds(dict)
              | st.integers(-3, 70) | st.sampled_from([-1, 15, 16, 63, 64, SILENCE]))


class TestRecordChecks:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_checks_equal_the_per_id_reference(self, data):
        rec = json.loads(json.dumps(data.draw(st.sampled_from(RECORDS))))
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(["insert", "replace", "empty", "drop", "fit"]))
            key = data.draw(st.sampled_from(["text", "audio", "style_id", "stretch",
                                             "duration_tokens"]))
            if kind == "insert" and isinstance(rec.get(key), list):
                at = data.draw(st.integers(0, len(rec[key])))
                rec[key].insert(at, data.draw(ODD_VALUES))
            elif kind == "replace":
                rec[key] = data.draw(ODD_VALUES)
            elif kind == "empty" and key in ("text", "audio"):
                rec[key] = []
            elif kind == "drop":
                rec.pop(key, None)
            elif kind == "fit" and isinstance(rec.get("audio"), list):
                rec["duration_tokens"] = len(rec["audio"])  # so later checks are reached
        if data.draw(st.integers(0, 19)) == 0:
            rec = data.draw(st.sampled_from([None, [rec], 3]))
        where = "val.jsonl, line 7"
        assert (outcome(_utterance_from_record, rec, where, RECORD_SPEC, 64)
                == outcome(utterance_from_record_reference, rec, where, RECORD_SPEC, 64))

    @pytest.mark.parametrize("edit, message", [
        (lambda r: dict(r, text=[*r["text"], True]), "key 'text' must be a list of ints"),
        (lambda r: dict(r, audio=[1.0, *r["audio"]]), "key 'audio' must be a list of ints"),
        (lambda r: dict(r, text=[-1]), "key 'text' must be nonempty, with ids in [0, 16)"),
        (lambda r: dict(r, audio=[*r["audio"], 64]),
         "key 'audio' must be ids in [0, 64) or the silence id 67"),
        (lambda r: dict(r, audio=[-1]), "key 'audio' must be ids in [0, 64)"),
        (lambda r: dict(r, audio=[], duration_tokens=1),
         "key 'duration_tokens' must be the audio's length 0"),
        (lambda r: dict(r, audio=[SILENCE], duration_tokens=1), None),
    ], ids=["bool_in_text", "float_in_audio", "negative_text_id", "audio_id_at_vocab",
            "negative_audio_id", "empty_audio", "silence_only_audio"])
    def test_whole_list_checks(self, edit, message):
        rec = edit(RECORDS[0])
        got = outcome(_utterance_from_record, rec, "where", RECORD_SPEC, 64)
        if message is None:
            assert got == Utterance(**rec)
        else:
            assert isinstance(got, str) and got.startswith(f"ValueError: where: {message}")
