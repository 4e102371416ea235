"""Corpus ingestion and preprocessing.

Turns raw documents into a sparse document-term count matrix with author
labels: n-gram tokenization, frequency- and author-based vocabulary
filtering, author verbosity weights, and the rounded log(1 + y) count
transform used for long-document corpora.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import re

import numpy as np
import scipy.sparse as sp

from .fitio import load_named_values, save_named_values

# Letters only: digits, underscores and punctuation never form tokens.
_TOKEN_RE = re.compile(r"[^\W\d_]+")


class AllDocumentsFiltered(Exception):
    """Preprocessing removed every document."""


@dataclass(frozen=True)
class RawDocument:
    """One input text with an opaque id and a non-empty author label."""

    doc_id: str
    author_id: str
    text: str


@dataclass(frozen=True)
class PreprocessConfig:
    """Vocabulary and author filtering thresholds.

    Document-frequency bounds are fractions of the documents surviving the
    author filter; both bounds are inclusive.
    """

    min_doc_frequency: float = 0.001
    max_doc_frequency: float = 0.3
    min_authors_per_term: int = 10
    min_docs_per_author: int = 1
    stopwords: frozenset = frozenset()
    max_ngram: int = 3

    def __post_init__(self):
        if not 0.0 <= self.min_doc_frequency < self.max_doc_frequency <= 1.0:
            raise ValueError(
                "need 0 <= min_doc_frequency < max_doc_frequency <= 1, got "
                f"[{self.min_doc_frequency}, {self.max_doc_frequency}]"
            )
        if self.max_ngram not in (1, 2, 3):
            raise ValueError(f"max_ngram must be 1, 2 or 3, got {self.max_ngram}")


class Vocabulary:
    """Ordered list of token n-grams with a dense term -> index map."""

    def __init__(self, terms):
        self.terms = list(terms)
        self.index = {t: i for i, t in enumerate(self.terms)}
        if len(self.index) != len(self.terms):
            raise ValueError("duplicate terms in vocabulary")

    def __len__(self):
        return len(self.terms)

    def __contains__(self, term):
        return term in self.index

    def __getitem__(self, i):
        return self.terms[i]

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.terms == other.terms


class SparseCorpus:
    """Immutable document-term count matrix with per-document author labels.

    `counts` is a D x V CSR matrix whose stored entries are strictly
    positive integers; `author_of[d]` indexes into `author_names`.
    """

    def __init__(self, counts, author_of, author_names, doc_ids=None):
        counts = sp.csr_matrix(counts, dtype=np.float64)
        counts.eliminate_zeros()
        counts.sort_indices()
        author_of = np.asarray(author_of, dtype=np.int64)
        if counts.shape[0] != author_of.shape[0]:
            raise ValueError("author_of length must equal the number of documents")
        if counts.nnz and (
            np.any(counts.data <= 0) or np.any(counts.data != np.round(counts.data))
        ):
            raise ValueError("counts must be strictly positive integers")
        if len(author_names) == 0:
            raise ValueError("need at least one author")
        if author_of.size and (author_of.min() < 0 or author_of.max() >= len(author_names)):
            raise ValueError("author_of index out of range")
        self.counts = counts
        self.author_of = author_of
        self.author_names = list(author_names)
        if doc_ids is None:
            doc_ids = [f"doc{d}" for d in range(counts.shape[0])]
        if len(doc_ids) != counts.shape[0]:
            raise ValueError("doc_ids length must equal the number of documents")
        self.doc_ids = list(doc_ids)

    @property
    def num_docs(self):
        return self.counts.shape[0]

    @property
    def num_terms(self):
        return self.counts.shape[1]

    @property
    def num_authors(self):
        return len(self.author_names)

    def entries(self):
        """Return (doc_idx, term_idx, count) arrays for the stored nonzeros."""
        coo = self.counts.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data.copy()

    def dense_rows(self, doc_idx):
        """Dense count rows for the given document indices.

        Scatters the stored CSR entries directly: scipy's row fancy indexing
        costs more than the whole likelihood on small batches.
        """
        doc_idx = np.asarray(doc_idx, dtype=np.int64)
        c = self.counts
        start = c.indptr[doc_idx]
        length = c.indptr[doc_idx + 1] - start
        rows = np.repeat(np.arange(doc_idx.size), length)
        # Offset of each selected entry in c.data: its rank within the
        # selection, shifted by where its row starts in the CSR arrays.
        pos = np.arange(rows.size) + np.repeat(start - (np.cumsum(length) - length), length)
        out = np.zeros((doc_idx.size, c.shape[1]))
        out.ravel()[rows * c.shape[1] + c.indices[pos]] = c.data[pos]
        return out

    def doc_totals(self):
        """Total token count per document."""
        return np.asarray(self.counts.sum(axis=1)).ravel()


def tokenize(text, max_ngram=1, stopwords=frozenset()):
    """Count lowercased alphabetic n-grams in `text`.

    Stopwords are dropped before n-grams are formed, so phrases may bridge
    removed stopwords. N-gram tokens join their words with single spaces.
    """
    words = [w for w in _TOKEN_RE.findall(text.lower()) if w not in stopwords]
    counts = Counter()
    for n in range(1, max_ngram + 1):
        # One C-level count per order; keys keep first-occurrence order.
        # The shifted copies go in a list: star-unpacking a generator here
        # kept ~40 MiB of freed blocks resident after an 800-speech corpus,
        # until the next full garbage collection.
        counts.update(map(" ".join, zip(*[words[k:] for k in range(n)])))
    return counts


def build_corpus(docs, cfg):
    """Build a (SparseCorpus, Vocabulary) pair from raw documents.

    Filtering happens in a fixed order: authors with fewer than
    `min_docs_per_author` documents are dropped first (with their
    documents); document frequencies are then measured over the survivors;
    the vocabulary keeps n-grams with document frequency inside the
    inclusive [min, max] band that are used by at least
    `min_authors_per_term` distinct authors; finally, documents left with
    no in-vocabulary tokens are dropped.

    Raises AllDocumentsFiltered when nothing survives.
    """
    if not docs:
        raise ValueError("docs must be non-empty")
    seen_ids = set()
    for d in docs:
        if d.doc_id in seen_ids:
            raise ValueError(f"duplicate doc_id {d.doc_id!r}")
        seen_ids.add(d.doc_id)
        if not d.author_id:
            raise ValueError(f"document {d.doc_id!r} has an empty author_id")

    docs_by_author = Counter(d.author_id for d in docs)
    kept = [d for d in docs if docs_by_author[d.author_id] >= cfg.min_docs_per_author]
    if not kept:
        raise AllDocumentsFiltered(
            f"no author has >= {cfg.min_docs_per_author} documents"
        )

    token_counts = [tokenize(d.text, cfg.max_ngram, cfg.stopwords) for d in kept]

    doc_freq = Counter(chain.from_iterable(token_counts))
    n_docs = len(kept)
    lo, hi = cfg.min_doc_frequency, cfg.max_doc_frequency
    # A term used by m distinct authors is in at least m documents, so the
    # author count is only needed for terms that pass this bound.
    candidates = {
        t
        for t, c in doc_freq.items()
        if lo <= c / n_docs <= hi and c >= cfg.min_authors_per_term
    }
    used_by_author = {}
    for d, tc in zip(kept, token_counts):
        used_by_author.setdefault(d.author_id, set()).update(tc.keys() & candidates)
    author_freq = Counter(chain.from_iterable(used_by_author.values()))
    vocab_terms = sorted(
        t for t in candidates if author_freq[t] >= cfg.min_authors_per_term
    )
    if not vocab_terms:
        raise AllDocumentsFiltered("vocabulary filters removed every term")
    vocab = Vocabulary(vocab_terms)

    # Entries go in unsorted: the CSR conversion sorts each row's columns.
    rows, cols, vals = [], [], []
    kept_docs = []
    for d, tc in zip(kept, token_counts):
        terms = tc.keys() & vocab.index.keys()
        if not terms:
            continue
        rows.extend([len(kept_docs)] * len(terms))
        cols.extend(map(vocab.index.__getitem__, terms))
        vals.extend(map(tc.__getitem__, terms))
        kept_docs.append(d)
    if not kept_docs:
        raise AllDocumentsFiltered("every document lost all tokens to the filters")

    author_names = sorted({d.author_id for d in kept_docs})
    author_index = {a: s for s, a in enumerate(author_names)}
    author_of = np.array([author_index[d.author_id] for d in kept_docs], dtype=np.int64)
    counts = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(kept_docs), len(vocab)), dtype=np.float64
    )
    corpus = SparseCorpus(
        counts, author_of, author_names, doc_ids=[d.doc_id for d in kept_docs]
    )
    return corpus, vocab


def compute_weights(corpus):
    """Author verbosity weights: average document length over the grand mean.

    Returns an array w with one entry per author; mean(w) == 1 up to float
    rounding.
    """
    totals = corpus.doc_totals()
    docs_per_author = np.bincount(corpus.author_of, minlength=corpus.num_authors)
    if np.any(docs_per_author == 0):
        raise ValueError("every author must have at least one document")
    tokens_per_author = np.bincount(
        corpus.author_of, weights=totals, minlength=corpus.num_authors
    )
    n = tokens_per_author / docs_per_author
    return n / n.mean()


def log_transform(corpus):
    """Replace each count y by round(ln(1 + y)), rounding halves up.

    A count of 1 maps back to 1; entries rounding to zero are dropped from
    the sparse structure (cannot happen for integer counts >= 1).
    """
    data = np.floor(np.log1p(corpus.counts.data) + 0.5)
    out = sp.csr_matrix(
        (data, corpus.counts.indices.copy(), corpus.counts.indptr.copy()),
        shape=corpus.counts.shape,
    )
    out.eliminate_zeros()
    return SparseCorpus(out, corpus.author_of, corpus.author_names, corpus.doc_ids)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

COUNTS_FILE = "counts.txt"
VOCAB_FILE = "vocabulary.txt"
AUTHORS_FILE = "authors.csv"
WEIGHTS_FILE = "weights.csv"


def read_documents_jsonl(path):
    """Read documents from a JSON-lines file with id/author/text fields."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: invalid JSON: {exc.msg} at column {exc.colno}"
                ) from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{line_no}: expected a JSON object")
            try:
                docs.append(
                    RawDocument(str(rec["id"]), str(rec["author"]), str(rec["text"]))
                )
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{line_no}: missing field {exc.args[0]!r}"
                ) from None
    return docs


def save_corpus(corpus, vocab, outdir):
    """Write the counts/vocabulary/authors triple under `outdir`."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, cols, vals = corpus.entries()
    # Python ints format about twice as fast as numpy scalars.
    lines = zip(rows.tolist(), cols.tolist(), vals.astype(np.int64).tolist())
    with open(outdir / COUNTS_FILE, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{d} {v} {c}\n" for d, v, c in lines))
    with open(outdir / VOCAB_FILE, "w", encoding="utf-8") as fh:
        for term in vocab.terms:
            fh.write(term + "\n")
    with open(outdir / AUTHORS_FILE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_index", "author_name", "doc_id"])
        for d in range(corpus.num_docs):
            writer.writerow([d, corpus.author_names[corpus.author_of[d]], corpus.doc_ids[d]])


def load_vocabulary(indir):
    """Read the Vocabulary written by `save_corpus` under `indir`."""
    with open(Path(indir) / VOCAB_FILE, encoding="utf-8") as fh:
        return Vocabulary(line.rstrip("\n") for line in fh if line.rstrip("\n"))


def read_doc_index_csv(path, columns):
    """Rows of a CSV keyed by their leading integer doc_index.

    Returns {doc_index: the row's later fields}. Only a first row whose
    first field is `doc_index` is taken as the header; blank rows are
    skipped. A row without an integer doc_index and at least one more
    field, or one that repeats a doc_index, raises ValueError naming the
    file and the line; `columns` describes the later fields in the message.
    """
    fields_by_doc = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row or (i == 0 and row[0] == "doc_index"):
                continue
            where = f"{path} line {reader.line_num}"
            try:
                doc = int(row[0])
            except ValueError:
                doc = None
            if doc is None or len(row) < 2:
                raise ValueError(f"{where}: expected doc_index,{columns}")
            if doc in fields_by_doc:
                raise ValueError(f"{where}: repeats doc_index {doc}")
            fields_by_doc[doc] = row[1:]
    return fields_by_doc


_COUNTS_DTYPE = np.dtype([("doc", np.int64), ("term", np.int64), ("count", np.float64)])


def _read_counts(path):
    """(doc, term, count) arrays from a counts file; blank lines are skipped.

    Raises ValueError naming the file on a line that is not exactly two
    integer indices and a number.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text or text.isspace():
        # loadtxt warns on input without data; an empty corpus is valid.
        table = np.empty(0, dtype=_COUNTS_DTYPE)
    else:
        try:
            table = np.loadtxt(io.StringIO(text), dtype=_COUNTS_DTYPE, comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return table["doc"], table["term"], table["count"]


def load_corpus(indir):
    """Load a (SparseCorpus, Vocabulary) pair written by `save_corpus`.

    An authors file without the doc_id column gives the default ids doc{d}.
    Raises ValueError on a malformed counts or authors line, a counts file
    that repeats a (doc, term) pair, or an authors file that repeats a
    doc_index.
    """
    indir = Path(indir)
    vocab = load_vocabulary(indir)

    authors_path = indir / AUTHORS_FILE
    fields_by_doc = read_doc_index_csv(authors_path, "author_name[,doc_id]")
    if not fields_by_doc:
        raise ValueError(f"{authors_path} lists no documents")
    num_docs = max(fields_by_doc) + 1
    if sorted(fields_by_doc) != list(range(num_docs)):
        raise ValueError(f"{authors_path} has gaps in doc_index")
    doc_rows = [fields_by_doc[d] for d in range(num_docs)]
    author_names = sorted({fields[0] for fields in doc_rows})
    author_index = {a: s for s, a in enumerate(author_names)}
    author_of = np.array([author_index[fields[0]] for fields in doc_rows], dtype=np.int64)

    rows, cols, vals = _read_counts(indir / COUNTS_FILE)
    counts = sp.csr_matrix(
        (vals, (rows, cols)), shape=(num_docs, len(vocab)), dtype=np.float64
    )
    # Building the CSR matrix sums repeated (doc, term) lines into one entry.
    if counts.nnz != len(vals):
        raise ValueError(f"{indir / COUNTS_FILE} repeats a (doc, term) pair")
    doc_ids = [fields[1] if len(fields) > 1 else f"doc{d}" for d, fields in enumerate(doc_rows)]
    return SparseCorpus(counts, author_of, author_names, doc_ids), vocab


def save_weights(path, author_names, weights):
    save_named_values(path, ["author_name", "weight"], author_names, weights)


def load_weights(path):
    """Return (author_names, weights) from a weights CSV."""
    return load_named_values(path, ["author_name", "weight"])
