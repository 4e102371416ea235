"""Seeded generator of Senate-like speeches with realistic sparsity.

`synth.sample_tbip` draws every count from a dense Poisson rate, so its
corpora are far denser than real speech (71% at D=5000, V=3000). This
generator writes word sequences instead, so the corpus goes through
tokenization and the vocabulary filters like real text:

- a Zipf background vocabulary of function words shared by everyone;
- topics, each a Zipf distribution over its own slice of content words,
  with a few fixed multi-word phrases that survive as bigrams/trigrams;
- author-dependent word choice: inside a topic, a word's weight is tilted
  by exp(x_a * eta_v), with author positions x_a in two clusters;
- lognormal document lengths in the hundreds of tokens, and one to three
  topics per document.

Output is JSON lines with the `id`, `author` and `text` fields that
`textideal preprocess` reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_CONSONANTS = list("bcdfghjklmnprstvz")
_VOWELS = list("aeiou")


@dataclass(frozen=True)
class SenateSpec:
    """Corpus shape; the defaults are the benchmark's senate workload."""

    num_docs: int = 800
    num_authors: int = 100
    num_topics: int = 20
    background_words: int = 400
    words_per_topic: int = 1000
    phrases_per_topic: int = 80
    median_length: int = 260
    background_share: float = 0.45
    polarity: float = 1.0
    topic_zipf: float = 0.6


def _word_list(rng, n):
    """n distinct lowercase pseudo-words of two to four syllables."""
    words = []
    seen = set()
    while len(words) < n:
        syllables = rng.integers(2, 5)
        w = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _zipf(n, exponent):
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


def generate(seed, spec=SenateSpec()):
    """Return (records, author_positions) for the given seed.

    records: list of {"id", "author", "text"} dicts; author_positions maps
    author name -> true position in {-1, +1}.
    """
    # The salt keeps this stream apart from synth's default_rng(seed) draws.
    rng = np.random.default_rng([seed, 20_05_04232])
    n_content = spec.num_topics * spec.words_per_topic
    words = np.array(_word_list(rng, spec.background_words + n_content), dtype=object)
    background = words[: spec.background_words]
    content = words[spec.background_words :].reshape(spec.num_topics, spec.words_per_topic)

    # Topic tokens: single words plus fixed phrases (2-3 content words).
    topic_tokens = []
    for k in range(spec.num_topics):
        phrases = []
        for _ in range(spec.phrases_per_topic):
            n = rng.integers(2, 4)
            phrases.append(" ".join(rng.choice(content[k], size=n, replace=False)))
        toks = np.concatenate([content[k], np.array(phrases, dtype=object)])
        topic_tokens.append(toks[rng.permutation(toks.size)])
    tokens_per_topic = spec.words_per_topic + spec.phrases_per_topic
    base = _zipf(tokens_per_topic, spec.topic_zipf)
    eta = spec.polarity * rng.standard_normal((spec.num_topics, tokens_per_topic))

    x = np.where(np.arange(spec.num_authors) < spec.num_authors // 2, -1.0, 1.0)
    author_names = [f"senator{a:03d}" for a in range(spec.num_authors)]
    # Cumulative tilted word distributions per (author, topic).
    tilted = base[None, None, :] * np.exp(x[:, None, None] * eta[None, :, :])
    cdf = np.cumsum(tilted, axis=2)
    cdf /= cdf[:, :, -1:]
    bg_cdf = np.cumsum(_zipf(spec.background_words, 1.0))

    author_of = np.sort(rng.integers(0, spec.num_authors, size=spec.num_docs))
    author_of[: spec.num_authors] = np.arange(spec.num_authors)
    rng.shuffle(author_of)
    lengths = np.maximum(
        20, np.round(spec.median_length * rng.lognormal(0.0, 0.5, spec.num_docs))
    ).astype(np.int64)

    records = []
    for d in range(spec.num_docs):
        a = author_of[d]
        n = lengths[d]
        n_bg = rng.binomial(n, spec.background_share)
        n_topic = n - n_bg
        num_doc_topics = rng.integers(1, 4)
        doc_topics = rng.choice(spec.num_topics, size=num_doc_topics, replace=False)
        share = rng.dirichlet(np.ones(num_doc_topics))
        parts = [background[np.searchsorted(bg_cdf, rng.uniform(size=n_bg) * bg_cdf[-1])]]
        for k, c in zip(doc_topics, rng.multinomial(n_topic, share)):
            idx = np.searchsorted(cdf[a, k], rng.uniform(size=c))
            parts.append(topic_tokens[k][np.minimum(idx, tokens_per_topic - 1)])
        doc = np.concatenate(parts)
        doc = doc[rng.permutation(doc.size)]
        records.append(
            {"id": f"speech{d:05d}", "author": author_names[a], "text": " ".join(doc)}
        )
    return records, dict(zip(author_names, x.tolist()))


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
