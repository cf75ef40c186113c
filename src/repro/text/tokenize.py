"""Tokenization and normalization.

The tokenizer is intentionally simple and deterministic: lowercase,
unicode-fold a handful of common punctuation variants, split on
non-alphanumeric boundaries while keeping numbers (including decimals,
thousand separators, and signed values) as single tokens.
"""

from __future__ import annotations

import re
import threading
import unicodedata
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple

from repro.analysis import sanitizer as _sanitizer
from repro.obs.metrics import get_registry
from repro.text.stem import stem
from repro.text.stopwords import is_stopword

#: entries kept in the shared analysis cache.  Sized for the benchmark
#: lakes (a few thousand distinct payloads per modality) while staying
#: small enough that pathological workloads cannot hold the whole lake's
#: text in memory twice.
ANALYZE_CACHE_SIZE = 16384

# A token is either a number (optionally signed, with , . separators) or a
# run of letters/digits.  Apostrophes inside words ("o'brien") are kept.
_TOKEN_RE = re.compile(
    r"""
    [+-]?\d[\d,]*(?:\.\d+)?      # numbers: 12  1,234  -3.5  +7
    | [a-z0-9]+(?:'[a-z]+)?      # words, optionally with an inner apostrophe
    """,
    re.VERBOSE,
)

_WHITESPACE_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class Token:
    """A token with its character span in the source text."""

    text: str
    start: int
    end: int


def normalize(text: str) -> str:
    """Lowercase, strip accents, and collapse whitespace.

    >>> normalize("  Café\\tRenée ")
    'cafe renee'

    ASCII text skips the Unicode folding: NFKD maps every ASCII
    character to itself and none of them is a combining mark.
    """
    if not text.isascii():
        text = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = text.lower()
    return _WHITESPACE_RE.sub(" ", text).strip()


def tokenize(text: str) -> List[str]:
    """Split ``text`` into normalized tokens.

    >>> tokenize("Meagan Good, 1,234 votes (51.2%)")
    ['meagan', 'good', '1,234', 'votes', '51.2']
    """
    return [match.group(0) for match in _TOKEN_RE.finditer(normalize(text))]


def tokenize_with_spans(text: str) -> List[Token]:
    """Tokenize while preserving character offsets into the normalized text."""
    normalized = normalize(text)
    return [
        Token(match.group(0), match.start(), match.end())
        for match in _TOKEN_RE.finditer(normalized)
    ]


#: the shared analysis LRU.  Hand-rolled (OrderedDict + lock) rather
#: than ``functools.lru_cache`` so each lookup can report its hit/miss
#: into the metrics registry — which is what lets two interleaved
#: verification campaigns attribute analysis-cache activity to
#: themselves instead of reading cross-polluted process-wide deltas.
_ANALYZE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_ANALYZE_LOCK = threading.Lock()


class CacheInfo(NamedTuple):
    """``functools``-shaped statistics of the shared analysis cache."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def _analyze_uncached(
    text: str, remove_stopwords: bool, stemming: bool
) -> tuple:
    out: List[str] = []
    for token in tokenize(text):
        if remove_stopwords and is_stopword(token):
            continue
        if stemming and token[0].isalpha():
            token = stem(token)
        out.append(token)
    return tuple(out)


def analyze(
    text: str,
    remove_stopwords: bool = True,
    stemming: bool = True,
) -> List[str]:
    """Full analysis chain used by the inverted index: tokenize, drop
    stopwords, stem.

    Numeric tokens are passed through unchanged so that values like
    ``1,234`` remain searchable.

    Results are memoized in a process-wide LRU keyed on the text and the
    analyzer options, so index build, search, and the rerankers share one
    analysis of any given payload.  Callers receive a fresh list each
    time (the cached tuple is never exposed for mutation).  Every lookup
    reports into the ``text.analyze_cache.hits`` / ``.misses`` metrics.
    """
    key = (text, remove_stopwords, stemming)
    with _ANALYZE_LOCK:
        cached = _ANALYZE_CACHE.get(key)
        if cached is not None:
            _ANALYZE_CACHE.move_to_end(key)
    if cached is not None:
        get_registry().counter("text.analyze_cache.hits").inc()
        return list(cached)
    result = _analyze_uncached(text, remove_stopwords, stemming)
    with _ANALYZE_LOCK:
        _ANALYZE_CACHE[key] = result
        _ANALYZE_CACHE.move_to_end(key)
        while len(_ANALYZE_CACHE) > ANALYZE_CACHE_SIZE:
            _ANALYZE_CACHE.popitem(last=False)
        _sanitizer.note_write(_ANALYZE_CACHE, "entries", lock=_ANALYZE_LOCK)
    get_registry().counter("text.analyze_cache.misses").inc()
    return list(result)


def analyze_cache_info() -> CacheInfo:
    """Hit/miss statistics of the shared analysis cache.

    Hits and misses read the process-lifetime metrics counters; clearing
    the cache does not reset them (unlike ``functools.lru_cache``).
    """
    registry = get_registry()
    with _ANALYZE_LOCK:
        currsize = len(_ANALYZE_CACHE)
    return CacheInfo(
        hits=int(registry.counter("text.analyze_cache.hits").value),
        misses=int(registry.counter("text.analyze_cache.misses").value),
        maxsize=ANALYZE_CACHE_SIZE,
        currsize=currsize,
    )


def analyze_cache_clear() -> None:
    """Drop every memoized analysis (mainly for tests and benchmarks)."""
    with _ANALYZE_LOCK:
        _ANALYZE_CACHE.clear()


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9\"'])")


def sentences(text: str) -> List[str]:
    """Split raw (non-normalized) text into sentences.

    Used by the text chunker to produce passage-sized units for the
    semantic index.  Splitting is heuristic: sentence-final punctuation
    followed by whitespace and an upper-case/numeric start.
    """
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in _SENTENCE_RE.split(text) if part.strip()]


def shingle(tokens: Iterable[str], size: int) -> List[str]:
    """Produce contiguous token shingles (w-shingles) of ``size`` tokens."""
    if size <= 0:
        raise ValueError(f"shingle size must be positive, got {size}")
    token_list = list(tokens)
    if len(token_list) < size:
        return [" ".join(token_list)] if token_list else []
    return [
        " ".join(token_list[i : i + size])
        for i in range(len(token_list) - size + 1)
    ]
