"""Segmentation, vocabulary building, tokenization and term vectors."""

import hashlib
import math
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from afg.errors import DataError
from afg.ingest import split
from afg.synthdata import generate_rct_corpus, mapped_sentences
from afg.textproc import (
    CONTINUATION_MARKER,
    DEFAULT_ABBREVIATIONS,
    PAD_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    _match_word,
    _safe_lower,
    _word_symbols,
    build_vocab,
    cosine_similarity,
    load_abbreviations,
    segment_sentences,
    term_vector,
    tokenize,
)
from conftest import EXAMPLE1_ABSTRACT, EXAMPLE2_ABSTRACT


class TestSegmentSentences:
    def test_two_plain_sentences(self):
        assert segment_sentences("A is B. C is D.") == ["A is B.", "C is D."]

    def test_abbreviation_suppresses_split(self):
        assert segment_sentences("See Fig. 2 for details.") == ["See Fig. 2 for details."]

    def test_example_abstracts_sentence_counts(self):
        assert len(segment_sentences(EXAMPLE1_ABSTRACT)) == 6
        assert len(segment_sentences(EXAMPLE2_ABSTRACT)) == 7

    def test_whitespace_only_is_empty(self):
        assert segment_sentences("   \n\t ") == []

    def test_no_split_inside_parentheses(self):
        text = "The setup (see Sec. 2! It matters) is standard. Results follow."
        assert segment_sentences(text) == [
            "The setup (see Sec. 2! It matters) is standard.",
            "Results follow.",
        ]

    def test_lowercase_continuation_not_split(self):
        assert segment_sentences("It boiled at 100. degrees were noted.") == [
            "It boiled at 100. degrees were noted."
        ]

    def test_question_and_exclamation(self):
        assert segment_sentences("Why? Because. So!") == ["Why?", "Because.", "So!"]

    def test_no_empty_sentences_and_text_preserved(self):
        text = "One sentence here.   Another follows!  And a third?  "
        parts = segment_sentences(text)
        assert all(p for p in parts)
        assert "".join("".join(p.split()) for p in parts) == "".join(text.split())


def _reference_segment_sentences(text, abbreviations=DEFAULT_ABBREVIATIONS):
    """The character-by-character segmenter: every character, one at a time."""
    if not text.strip():
        return []
    sentences = []
    start = 0
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth = max(0, depth - 1)
        elif ch in ".!?" and depth == 0:
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j > i + 1 and j < n and (text[j].isupper() or text[j].isdigit()):
                head = text[: i + 1]
                abbreviated = False
                for abbr in abbreviations:
                    if head.endswith(abbr):
                        k = len(head) - len(abbr)
                        if k == 0 or not text[k - 1].isalnum():
                            abbreviated = True
                            break
                if not (ch == "." and abbreviated):
                    piece = text[start : i + 1].strip()
                    if piece:
                        sentences.append(piece)
                    start = j
                    i = j
                    continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _reference_term_vector(text):
    """Term counts by replacing non-term characters with spaces, then splitting."""
    counts = {}
    cleaned = re.sub(r"[^\w.\-]+", " ", text.lower())
    for raw in cleaned.split():
        term = raw if re.match(r"^(?:[^\W\d_]\.-?)+$", raw) else raw.strip(".-")
        if term:
            counts[term] = counts.get(term, 0) + 1
    return counts


# Full-Unicode text, salted with the characters the segmenter and term
# vectors treat specially: whitespace that only str.isspace knows
# (\x1c-\x1f, \x85, U+3000), brackets, runs of sentence punctuation,
# sentence starts and abbreviations.
SPECIAL_PIECES = st.sampled_from([
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000", " ", "\n", ". ", "? ", "!\t",
    "...", "?!", "(", ")", "[", "]", "{", "}", "A", "7", "a", "e.g.", "Fig.", "J.-L.", "-",
    "_", "İ",
])
SALTED_TEXT = st.lists(st.one_of(st.characters(), SPECIAL_PIECES), max_size=60).map("".join)
ABBREVIATIONS = st.lists(
    st.one_of(st.sampled_from([".", "", "e.g.", "Fig.", "et al.", "A.", "a. A"]),
              st.text(max_size=3)),
    max_size=4,
).map(tuple)


class TestRewrittenTextLayers:
    @given(st.one_of(st.text(), SALTED_TEXT))
    @example("See Fig. 2 (p. 3! Or [q. 4]) here.\x1cNext one.\u3000Then 9 more")
    def test_segmenter_matches_character_loop(self, text):
        assert segment_sentences(text) == _reference_segment_sentences(text)

    @given(SALTED_TEXT, ABBREVIATIONS)
    @example("A. B. C.  D", ("",))
    @example("x. Y. z.\x85W", (".",))
    @example("e.g. A test. B", ())
    def test_segmenter_matches_character_loop_for_any_abbreviations(self, text, abbreviations):
        assert segment_sentences(text, abbreviations) == (
            _reference_segment_sentences(text, abbreviations)
        )

    @given(st.one_of(st.text(), SALTED_TEXT))
    @example("J.-L. Renaud,\x1fA.B. x..y -- 5985\u20135990 _a_ İ.")
    def test_term_vector_matches_sub_and_split(self, text):
        assert term_vector(text) == _reference_term_vector(text)

    def test_regex_whitespace_is_str_isspace(self):
        # The segmenter finds whitespace runs with re's \s; its rules are
        # stated in terms of str.isspace.
        space = re.compile(r"\s")
        assert [c for c in range(sys.maxunicode + 1)
                if bool(space.match(chr(c))) != chr(c).isspace()] == []


class TestBuildVocab:
    def test_reserved_tokens_present(self):
        v = build_vocab(["some words here"], max_size=50, min_frequency=1)
        assert PAD_TOKEN in v.token_to_id and UNK_TOKEN in v.token_to_id
        assert sorted(v.token_to_id.values()) == list(range(len(v)))

    def test_pair_merge_produces_piece(self):
        # "aa" appears twice; the ('a', '##a') merge must enter the vocabulary
        v = build_vocab(["aa aa"], max_size=8, min_frequency=2)
        assert "aa" in v.token_to_id

    def test_deterministic(self):
        corpus = ["the cat sat", "the mat sat flat"]
        v1 = build_vocab(corpus, max_size=40, min_frequency=1)
        v2 = build_vocab(corpus, max_size=40, min_frequency=1)
        assert v1.token_to_id == v2.token_to_id

    def test_min_frequency_blocks_rare_merges(self):
        v = build_vocab(["ab"], max_size=50, min_frequency=2)
        assert "ab" not in v.token_to_id  # the pair occurs once
        assert "a" in v.token_to_id and "##b" in v.token_to_id

    def test_respects_max_size(self):
        v = build_vocab(["abcdefgh " * 5], max_size=12, min_frequency=1)
        assert len(v) <= 12

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocab(["the cat sat on the mat"], max_size=40, min_frequency=1)
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.token_to_id == v.token_to_id


@pytest.mark.parametrize("load", [load_abbreviations, Vocabulary.load])
def test_non_utf8_file_is_a_data_error(tmp_path, load):
    path = tmp_path / "latin1.txt"
    path.write_bytes("[PAD]\n[UNK]\nFig.\ncaf\u00e9\n".encode("latin-1"))
    with pytest.raises(DataError, match="not UTF-8"):
        load(path)


def _reference_build_vocab(corpus, max_size, min_frequency=2):
    """The full-recount merge loop: every pair in every word, before every merge."""
    word_freq = {}
    for text in corpus:
        for word in text.split():
            word = _safe_lower(word)
            word_freq[word] = word_freq.get(word, 0) + 1
    sequences = {w: _word_symbols(w) for w in word_freq}
    alphabet_freq = {}
    for w, seq in sequences.items():
        for sym in seq:
            alphabet_freq[sym] = alphabet_freq.get(sym, 0) + word_freq[w]
    alphabet = sorted(alphabet_freq)
    if 2 + len(alphabet) > max_size:
        alphabet = sorted(sorted(alphabet), key=lambda s: -alphabet_freq[s])[: max_size - 2]
        alphabet.sort()
    tokens = [PAD_TOKEN, UNK_TOKEN] + alphabet
    seen = set(tokens)
    while len(tokens) < max_size:
        pair_counts = {}
        for w, seq in sequences.items():
            f = word_freq[w]
            for a, b in zip(seq, seq[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + f
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        if pair_counts[best] < min_frequency:
            break
        a, b = best
        merged = a + b.removeprefix(CONTINUATION_MARKER)
        for w, seq in sequences.items():
            out = []
            k = 0
            while k < len(seq):
                if k + 1 < len(seq) and seq[k] == a and seq[k + 1] == b:
                    out.append(merged)
                    k += 2
                else:
                    out.append(seq[k])
                    k += 1
            sequences[w] = out
        if merged not in seen:
            tokens.append(merged)
            seen.add(merged)
    return {tok: i for i, tok in enumerate(tokens)}


# Words glued from a few overlapping pieces, so pairs repeat, tie and share
# symbols ("aaaa"); "İ" lowers to two characters and so keeps its case.
VOCAB_WORDS = st.lists(
    st.sampled_from(["a", "b", "ab", "aab", "ä", "ω", "İ"]), min_size=1, max_size=5
).map("".join)
VOCAB_CORPUS = st.lists(st.lists(VOCAB_WORDS, max_size=6).map(" ".join), min_size=1, max_size=12)


class TestBuildVocabMergeOrder:
    @given(VOCAB_CORPUS, st.integers(min_value=3, max_value=80),
           st.integers(min_value=1, max_value=3))
    @example(["aaaa aaa aa"], 20, 1)
    @example(["ab abab abc bc bcd abcd", "abcd bcd"], 40, 1)
    def test_same_vocabulary_as_full_recount(self, corpus, max_size, min_frequency):
        assert build_vocab(corpus, max_size, min_frequency).token_to_id == (
            _reference_build_vocab(corpus, max_size, min_frequency)
        )

    def test_same_symbol_pairs_merge_left_to_right(self):
        # (##a, ##a) occurs twice in a ##a ##a ##a, overlapping, so it wins
        # with count 2 but merges once: a ##aa ##a, then a ##aaa, then aaaa.
        v = build_vocab(["aaaa"], max_size=10, min_frequency=1)
        assert list(v.token_to_id) == [
            PAD_TOKEN, UNK_TOKEN, "##a", "a", "##aa", "##aaa", "aaaa",
        ]

    def test_criterion_6_vocabulary_pinned(self, tmp_path):
        # blake2b-128 of the saved vocabulary, taken from the full-recount
        # loop; any change in merge order or tie rule changes it.
        pairs = mapped_sentences(generate_rct_corpus(950, seed=100))[:6000]
        ds = split(pairs, 5000 / 6000, seed=42)
        path = tmp_path / "vocab.txt"
        build_vocab([t for t, _ in ds.train], max_size=512, min_frequency=2).save(path)
        assert hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() == (
            "850c72ec8c3f37d1d4275cbaebea26b3"
        )


class TestTokenize:
    def test_whole_word_hit(self):
        v = build_vocab(["hello hello world"], max_size=60, min_frequency=1)
        assert "hello" in v.token_to_id
        seq = tokenize("hello", v)
        assert len(seq.token_ids) == 1
        assert v.id_to_token[seq.token_ids[0]] == "hello"

    def test_greedy_longest_match_pieces(self):
        vocab = Vocabulary(
            {PAD_TOKEN: 0, UNK_TOKEN: 1, "un": 2, "##seen": 3, "##word": 4, "u": 5,
             "##n": 6, "##s": 7}
        )
        seq = tokenize("unseenword", vocab)
        pieces = [vocab.id_to_token[i] for i in seq.token_ids]
        assert pieces == ["un", "##seen", "##word"]

    def test_unmatchable_word_is_unknown(self):
        v = build_vocab(["plain text only"], max_size=60, min_frequency=1)
        seq = tokenize("über", v)  # no umlaut in the corpus alphabet
        assert list(seq.token_ids) == [v.unk_id]

    def test_case_folded_matching(self):
        v = build_vocab(["the cat sat"], max_size=60, min_frequency=1)
        assert tokenize("The CAT", v).token_ids == tokenize("the cat", v).token_ids


# Non-ASCII letters in the corpus give the vocabulary multi-byte pieces;
# "İ" lowers to two characters and so keeps its case.
MIXED_VOCAB = build_vocab(
    ["Über straße naïve café ωmega İstanbul the cat sat on the mat", "crème brûlée ωω"],
    max_size=90, min_frequency=1,
)
ASCII_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\t\n"),
    max_size=60,
)
MIXED_TEXT = st.text(alphabet=st.sampled_from("abcehmst ÜüßéωİÉ.-\t"), max_size=60)


def _lower_keeping_length(word: str) -> str:
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in word)


class TestTokenizePaths:
    @given(ASCII_TEXT)
    def test_ascii_fast_path_matches_general_path(self, text):
        # One non-ASCII word at the end sends the same words down the
        # general path; everything before it must come out the same.
        fast = tokenize(text, MIXED_VOCAB)
        general = tokenize(text + " é", MIXED_VOCAB)
        n = len(fast.token_ids)
        assert len(general.token_ids) == n + 1
        assert general.token_ids[:n] == fast.token_ids

    @given(st.one_of(ASCII_TEXT, MIXED_TEXT))
    def test_spans_hold_their_pieces(self, text):
        # Each word's pieces, markers stripped, spell the lowered word, or the
        # word is one unknown token; the text's ids are its words' ids in order.
        words = text.split()
        word_ids = [tokenize(word, MIXED_VOCAB).token_ids for word in words]
        assert tokenize(text, MIXED_VOCAB).token_ids == sum(word_ids, ())
        for word, ids in zip(words, word_ids):
            if ids != (MIXED_VOCAB.unk_id,):
                pieces = [MIXED_VOCAB.id_to_token[i].removeprefix(CONTINUATION_MARKER)
                          for i in ids]
                assert "".join(pieces) == _lower_keeping_length(word)

    @given(st.lists(st.text(alphabet=st.sampled_from("abcehmstzÜüßéωİÉ.-"), min_size=1,
                            max_size=12), min_size=1, max_size=8))
    @example(["a" * 101, "cat", "a" * 101, "CAT"])
    def test_each_word_is_matched_once_and_its_ids_kept(self, words):
        vocab = Vocabulary(dict(MIXED_VOCAB.token_to_id))
        expected = []
        for word in words:
            pieces = _match_word(_safe_lower(word), vocab)
            expected.extend([vocab.unk_id] if pieces is None
                            else [vocab.token_to_id[piece] for piece in pieces])
        text = " ".join(words)
        first = tokenize(text, vocab).token_ids
        assert first == tuple(expected)
        assert set(vocab._word_ids) == {_safe_lower(word) for word in words}
        assert tokenize(text, vocab).token_ids == first


class TestTermVector:
    def test_case_folding_counts(self):
        assert term_vector("A a b") == {"a": 2, "b": 1}

    def test_empty(self):
        assert term_vector("") == {}
        assert term_vector("  ,, !! ") == {}

    def test_reference_fragment(self):
        # en dash separates the page numbers, commas vanish
        assert term_vector("2018, 20, 5985–5990") == {
            "2018": 1, "20": 1, "5985": 1, "5990": 1,
        }

    def test_initials_survive_as_one_term(self):
        tv = term_vector("J.-L. Renaud")
        assert tv == {"j.-l.": 1, "renaud": 1}

    def test_trailing_punctuation_stripped(self):
        assert term_vector("yields. economy-") == {"yields": 1, "economy": 1}

    def test_internal_hyphen_and_decimal_kept(self):
        assert term_vector("5985-5990 factor 6.005") == {
            "5985-5990": 1, "factor": 1, "6.005": 1,
        }


class TestCosineSimilarity:
    def test_identical_texts(self):
        tv = term_vector("silver catalyst regenerated by the oxidant")
        assert cosine_similarity(tv, tv) == pytest.approx(1.0)

    def test_disjoint_terms(self):
        assert cosine_similarity({"a": 1}, {"b": 2}) == 0.0

    def test_half_overlap(self):
        assert cosine_similarity({"a": 1, "b": 1}, {"a": 1, "c": 1}) == pytest.approx(0.5)

    def test_empty_vector_gives_zero(self):
        assert cosine_similarity({}, {"a": 1}) == 0.0
        assert cosine_similarity({}, {}) == 0.0

    def test_bounds(self):
        a = {"x": 3, "y": 1}
        b = {"x": 1, "z": 5}
        s = cosine_similarity(a, b)
        assert 0.0 <= s <= 1.0


terms = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    st.integers(min_value=1, max_value=40),
    max_size=8,
)


@given(terms, terms)
def test_cosine_symmetry_property(a, b):
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)


@given(terms, terms, st.integers(min_value=1, max_value=9))
def test_cosine_scale_invariance_property(a, b, k):
    scaled = {t: c * k for t, c in a.items()}
    assert cosine_similarity(scaled, b) == pytest.approx(
        cosine_similarity(a, b), abs=1e-9
    )


def reference_cosine(a, b):
    """The per-term formula in generator expressions, summed in Python."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(count * b[term] for term, count in a.items() if term in b)
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return dot / (norm_a * norm_b)


counts = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=10**12)),
    max_size=12,
)


@given(counts, counts)
@example({"a": 10**12, "b": 1}, {"a": 10**12 - 1, "b": 10**12, "c": 3})
def test_cosine_is_the_reference_formula_bit_for_bit(a, b):
    assert cosine_similarity(a, b).hex() == reference_cosine(a, b).hex()


@given(st.text(min_size=1, max_size=200))
def test_segmentation_preserves_nonspace_text(text):
    parts = segment_sentences(text)
    assert all(p.strip() for p in parts)
    assert "".join("".join(p.split()) for p in parts) == "".join(text.split())


@given(st.text(alphabet="abc d.", min_size=1, max_size=40))
def test_tokenize_is_total(text):
    v = build_vocab(["abc abd dca d.d."], max_size=40, min_frequency=1)
    seq = tokenize(text, v)
    words = text.split()
    assert len(seq.token_ids) >= len(words) if words else len(seq.token_ids) == 0
