"""Text processing: sentence segmentation, subword tokenization, term vectors,
the one reader of UTF-8 text and JSON files that the other modules use, and
the one writer of every output file.

The tokenizer splits words into vocabulary pieces by greedy longest-prefix
matching, with ``##`` marking word-internal continuation pieces, so
technical strings decompose into known parts instead of collapsing to the
unknown token. The vocabulary itself is built by iterative pair merging
starting from single characters: the most frequent adjacent pair merges
first, the lexicographically smallest on ties. The pairs are counted once;
an index from each pair to the words holding it and a heap of counts let
each merge rewrite only the words it changes, in the same merge order as
recounting every pair before every merge.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import json
import math
import operator
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CONTINUATION_MARKER = "##"

# Words longer than this go straight to the unknown token.
MAX_WORD_CHARS = 100

DEFAULT_ABBREVIATIONS = ("e.g.", "i.e.", "et al.", "Fig.", "vs.", "Dr.")


# ---------------------------------------------------------------------------
# Sentence segmentation
# ---------------------------------------------------------------------------

# The characters segmentation acts on: a bracket, which moves the depth, or a
# ``.``, ``!`` or ``?`` followed by whitespace, which may end a sentence. For
# str patterns ``\s`` matches exactly the characters ``str.isspace`` accepts.
_SEGMENT_CANDIDATE = re.compile(r"[(\[{]|[)\]}]|[.!?]\s+")


def segment_sentences(text: str, abbreviations=DEFAULT_ABBREVIATIONS) -> list[str]:
    """Split text into sentences with simple, auditable rules.

    A sentence boundary is a ``.``, ``!`` or ``?`` followed by whitespace
    and an uppercase letter or digit, outside brackets (``()``, ``[]`` and
    ``{}`` all count), where the period does not terminate a listed
    abbreviation. Whitespace-only input yields an empty list.
    """
    if not text.strip():
        return []
    sentences: list[str] = []
    start = 0
    depth = 0
    n = len(text)
    for match in _SEGMENT_CANDIDATE.finditer(text):
        i = match.start()
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth = max(0, depth - 1)
        elif depth == 0:
            j = match.end()
            if j < n and (text[j].isupper() or text[j].isdigit()) and not (
                ch == "." and _ends_with_abbreviation(text, i, abbreviations)
            ):
                piece = text[start : i + 1].strip()
                if piece:
                    sentences.append(piece)
                start = j
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _ends_with_abbreviation(text: str, period_index: int, abbreviations) -> bool:
    end = period_index + 1
    abbreviations = tuple(abbreviations)
    if not text.endswith(abbreviations, 0, end):  # one call rules out most periods
        return False
    for abbr in abbreviations:
        if text.endswith(abbr, 0, end):
            k = end - len(abbr)
            if k == 0 or not text[k - 1].isalnum():
                return True
    return False


def read_text(path: str | Path) -> str:
    """The text of a file; bytes that are not UTF-8 are a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not UTF-8: {exc}") from None


def write_file(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``, calling ``os.write`` until all is written; an OSError
    names the path and removes the file, whose part-written bytes would read as corrupt.
    Callers encode their text first, so a failed encode truncates nothing."""
    view = memoryview(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
    try:
        while view:
            view = view[os.write(fd, view):]
    except OSError as exc:
        exc.filename = str(path)
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise
    finally:
        os.close(fd)


def read_json(path: str | Path, what: str, error: type[Exception] = DataError):
    """The parsed JSON of a file; text that is not JSON is ``error``."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:  # ValueError: bad JSON, or a too-long integer
        raise error(f"invalid JSON in {what}: {exc}") from None


def is_number(value) -> bool:
    """Whether a parsed JSON value is a finite number (``true`` and ``false`` are not)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_SURROGATE = re.compile("[\ud800-\udfff]")


def is_text(value) -> bool:
    """Whether a parsed JSON value is a string UTF-8 can encode: one with no lone surrogate."""
    return type(value) is str and (value.isascii() or _SURROGATE.search(value) is None)


def read_json_records(path: str | Path, what: str,
                      error: type[Exception] = DataError) -> list[dict]:
    """The JSON array of objects in a file; any other JSON is ``error``."""
    records = read_json(path, what, error)
    if not isinstance(records, list):
        raise error(f"{what} must be a JSON array")
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise error(f"{what} entry #{i} is not a JSON object")
    return records


def load_abbreviations(path: str | Path) -> tuple[str, ...]:
    """One abbreviation per line, blank lines ignored."""
    lines = read_text(path).splitlines()
    return tuple(line.strip() for line in lines if line.strip())


# ---------------------------------------------------------------------------
# Subword vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    token_to_id: dict[str, int]

    def __post_init__(self):
        self.id_to_token = [None] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            self.id_to_token[i] = tok
        self.unk_id = self.token_to_id[UNK_TOKEN]
        # Each lowered word's token ids, filled in by ``tokenize``.
        self._word_ids: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.token_to_id)

    def save(self, path: str | Path) -> None:
        write_file(path, ("\n".join(self.id_to_token) + "\n").encode())

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = read_text(path).splitlines()
        tokens = [t for t in tokens if t]
        mapping = {tok: i for i, tok in enumerate(tokens)}
        if len(mapping) != len(tokens):
            raise DataError(f"duplicate tokens in vocabulary file {path}")
        for reserved in (PAD_TOKEN, UNK_TOKEN):
            if reserved not in mapping:
                raise DataError(f"vocabulary file {path} missing reserved token {reserved}")
        return cls(mapping)


def _safe_lower(word: str) -> str:
    # Per-character lowering leaves as it is each character whose lowercase
    # is longer (a handful of codepoints, none of them ASCII, such as "İ",
    # which str.lower turns into "i" and a combining dot). Vocabularies are
    # built and texts tokenized under this rule, so it fixes the pieces, and
    # the token ids, of words holding such a character.
    if word.isascii():
        return word.lower()
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in word)


def _lowered_words(text: str):
    """The whitespace-separated words of ``text``, each lowered keeping its length."""
    return text.lower().split() if text.isascii() else map(_safe_lower, text.split())


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION_MARKER + ch for ch in word[1:]]


def build_vocab(corpus: list[str], max_size: int, min_frequency: int = 2) -> Vocabulary:
    """Build a merge-based subword vocabulary from scratch.

    Starts from the character alphabet (word-initial characters plain,
    word-internal ones carrying the continuation marker) and repeatedly
    merges the most frequent adjacent symbol pair, lexicographically
    smallest pair first on ties, until ``max_size`` tokens exist or no
    pair reaches ``min_frequency``, which is at least 1.

    The pairs are counted once. After that, the loop keeps the counts, an
    index from each pair to the words that contain it and a heap of
    ``(-count, pair)`` entries. A merge rewrites only the words indexed
    under the winning pair: it subtracts each word's old pairs, merges the
    word left to right without overlap and adds its new pairs, indexing
    the word under each. Every pair the merge touched gets a fresh heap
    entry, and an entry whose count no longer matches is dropped when it
    reaches the top. The heap order is the ``(-count, pair)`` order of a
    full recount, so the merge sequence and the tie rule are those of
    recounting every pair in every word before each merge.
    """
    n_reserved = 2

    word_freq: dict[str, int] = {}
    for text in corpus:
        for word in _lowered_words(text):
            word_freq[word] = word_freq.get(word, 0) + 1

    sequences = [_word_symbols(w) for w in word_freq]
    freqs = list(word_freq.values())

    alphabet_freq: dict[str, int] = {}
    for seq, f in zip(sequences, freqs):
        for sym in seq:
            alphabet_freq[sym] = alphabet_freq.get(sym, 0) + f
    alphabet = sorted(alphabet_freq)
    if n_reserved + len(alphabet) > max_size:
        alphabet = sorted(
            sorted(alphabet), key=lambda s: -alphabet_freq[s]
        )[: max_size - n_reserved]
        alphabet.sort()

    tokens: list[str] = [PAD_TOKEN, UNK_TOKEN] + alphabet
    seen = set(tokens)

    pair_counts: dict[tuple[str, str], int] = {}
    words_with: dict[tuple[str, str], set[int]] = {}
    for i, (seq, f) in enumerate(zip(sequences, freqs)):
        for pair in zip(seq, seq[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + f
            words_with.setdefault(pair, set()).add(i)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    while len(tokens) < max_size:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < min_frequency:
            break
        best = heap[0][1]
        a, b = best
        merged = a + (b[len(CONTINUATION_MARKER):] if b.startswith(CONTINUATION_MARKER) else b)
        changed = set()
        # An index entry can be stale (the word lost the pair to an
        # earlier merge); merging such a word leaves it as it is.
        for i in words_with.pop(best):
            seq = sequences[i]
            out = []
            k = 0
            while k < len(seq):
                if k + 1 < len(seq) and seq[k] == a and seq[k + 1] == b:
                    out.append(merged)
                    k += 2
                else:
                    out.append(seq[k])
                    k += 1
            if len(out) == len(seq):
                continue
            f = freqs[i]
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] -= f
                changed.add(pair)
            for pair in zip(out, out[1:]):
                pair_counts[pair] = pair_counts.get(pair, 0) + f
                words_with.setdefault(pair, set()).add(i)
                changed.add(pair)
            sequences[i] = out
        for pair in changed:
            count = pair_counts[pair]
            if count:
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
        if merged not in seen:
            tokens.append(merged)
            seen.add(merged)

    return Vocabulary({tok: i for i, tok in enumerate(tokens)})


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenSequence:
    """The token ids of a text."""

    token_ids: tuple[int, ...]


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Greedy longest-prefix subword tokenization of whitespace words.

    Any word that cannot be fully covered by vocabulary pieces maps to the
    single unknown token. Each distinct word is matched once per vocabulary,
    which keeps its ids.
    """
    word_ids = vocab._word_ids
    ids: list[int] = []
    for word in _lowered_words(text):
        known = word_ids.get(word)
        if known is None:
            pieces = _match_word(word, vocab)
            known = word_ids[word] = ((vocab.unk_id,) if pieces is None else
                                      tuple(vocab.token_to_id[piece] for piece in pieces))
        ids.extend(known)
    return TokenSequence(tuple(ids))


def _match_word(word: str, vocab: Vocabulary) -> list[str] | None:
    if len(word) > MAX_WORD_CHARS:
        return None
    tokens = vocab.token_to_id
    pieces = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        found = None
        while end > start:
            candidate = word[start:end]
            if start > 0:
                candidate = CONTINUATION_MARKER + candidate
            if candidate in tokens:
                found = candidate
                break
            end -= 1
        if found is None:
            return None
        pieces.append(found)
        start = end
    return pieces


# ---------------------------------------------------------------------------
# Term vectors and cosine similarity
# ---------------------------------------------------------------------------

_TERM = re.compile(r"[\w.\-]+")
_INITIALS = re.compile(r"^(?:[^\W\d_]\.-?)+$")


def term_vector(text: str) -> dict[str, int]:
    """Lowercased word counts with punctuation stripped.

    Intra-token hyphens and periods survive (so page ranges and dotted
    initials stay single terms); everything else separates terms.
    """
    counts: dict[str, int] = {}
    for raw in _TERM.findall(text.lower()):
        # Dotted initials ("j.-l.") keep their periods; _INITIALS needs one.
        term = raw if "." in raw and _INITIALS.match(raw) else raw.strip(".-")
        if term:
            counts[term] = counts.get(term, 0) + 1
    return counts


def cosine_similarity(a: dict[str, int], b: dict[str, int]) -> float:
    """Cosine of two sparse vectors of positive counts; 0.0 when either is empty."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    # Each sum runs in C over ints, so it is exact; a term of a that b lacks adds 0.
    dot = sum(map(operator.mul, a.values(), map(b.get, a, itertools.repeat(0))))
    norm_a = math.sqrt(sum(map(operator.mul, a.values(), a.values())))
    norm_b = math.sqrt(sum(map(operator.mul, b.values(), b.values())))
    return dot / (norm_a * norm_b)
