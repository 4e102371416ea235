"""Corpus ingestion and preprocessing.

Turns raw documents into a sparse document-term count matrix with author
labels: n-gram tokenization, frequency- and author-based vocabulary
filtering, author verbosity weights, and the rounded log(1 + y) count
transform used for long-document corpora. Its doc_index-keyed tables
(`authors.csv`, debate labels) are read by `read_doc_index_csv`, whose rows
follow `fitio.read_keyed_rows` and whose doc_index values must be 0..n-1.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import re

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .fitio import load_named_values, open_text, read_keyed_rows, save_named_values

# Letters only: digits, underscores and punctuation never form tokens.
_TOKEN_RE = re.compile(r"[^\W\d_]+")


class AllDocumentsFiltered(ValueError):
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
            # A repeated term's first position is not the last one indexed.
            first = next(t for i, t in enumerate(self.terms) if self.index[t] != i)
            raise ValueError(f"vocabulary repeats term {first!r}")

    def __len__(self):
        return len(self.terms)

    def __contains__(self, term):
        return term in self.index

    def __getitem__(self, i):
        return self.terms[i]

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.terms == other.terms


def take_rows(indptr, rows):
    """(indptr, positions) of the given CSR rows, in the order given: their own
    row pointer and each entry's offset in the stored arrays. scipy's row
    fancy indexing costs more than the whole likelihood on small batches."""
    rows = np.asarray(rows, dtype=np.int64)
    start = indptr[rows]
    length = indptr[rows + 1] - start
    out = np.zeros(rows.size + 1, dtype=np.int64)
    out[1:] = length.cumsum()
    # Offset of each selected entry: its rank within the selection, shifted
    # by where its row starts in the stored arrays.
    pos = (start - out[:-1]).repeat(length)
    pos += np.arange(pos.size)
    return out, pos


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

    def row_entries(self, doc_idx):
        """(indptr, term_idx, count) of the given documents' rows, in order."""
        indptr, pos = take_rows(self.counts.indptr, doc_idx)
        return indptr, self.counts.indices[pos], self.counts.data[pos]

    def doc_totals(self):
        """Total token count per document."""
        return np.asarray(self.counts.sum(axis=1)).ravel()

    @cached_property
    def log_factorial_sum(self):
        """Sum of log(y!) over the stored counts, a constant of every Poisson
        likelihood on this corpus."""
        return np.sum(gammaln(self.counts.data + 1.0))


def _words(text, stopwords):
    """Lowercased alphabetic words of `text`, stopwords removed."""
    words = _TOKEN_RE.findall(text.lower())
    return [w for w in words if w not in stopwords] if stopwords else words


def tokenize(text, max_ngram=1, stopwords=frozenset()):
    """Count lowercased alphabetic n-grams in `text`.

    Stopwords are dropped before n-grams are formed, so phrases may bridge
    removed stopwords. N-gram tokens join their words with single spaces.
    """
    words = _words(text, stopwords)
    counts = Counter()
    for n in range(1, max_ngram + 1):
        # One C-level count per order; keys keep first-occurrence order.
        # The shifted copies go in a list: star-unpacking a generator here
        # kept ~40 MiB of freed blocks resident after an 800-speech corpus,
        # until the next full garbage collection.
        counts.update(map(" ".join, zip(*[words[k:] for k in range(n)])))
    return counts


def _pair_codes(first, second, base):
    """Codes first * base + second of integer pairs with 0 <= second < base.

    Distinct pairs get distinct codes. Raises OverflowError when a code
    could leave int64 instead of wrapping silently.
    """
    # The largest code is (max(first) + 1) * base - 1.
    if first.size and (int(first.max()) + 1) * base > np.iinfo(np.int64).max + 1:
        raise OverflowError("pair codes would overflow int64")
    return first * base + second


def _next_order(ids, words, num_words, doc_of, n):
    """Ids of the n-grams starting at each position, from the ids of the
    (n-1)-grams there, and the codes that spell each id.

    The order-n id is the rank of the code (id of the leading (n-1)-gram,
    id of the last word) among the distinct codes, so ids stay dense and
    codes below (number of (n-1)-grams) x (number of words). Positions
    whose n-gram would cross a document end get id -1.
    """
    starts = max(ids.size - 1, 0)
    # Positions are grouped by document, so equal first and last documents
    # mean the whole n-gram lies in one document.
    valid = doc_of[:starts] == doc_of[n - 1 :]
    codes = _pair_codes(ids[:starts][valid], words[n - 1 :][valid], num_words)
    spelled, inverse = np.unique(codes, return_inverse=True)
    ids = np.full(starts, -1)
    ids[valid] = inverse
    return ids, spelled


def _filter_terms(ids, doc_of, doc_author, cfg):
    """The vocabulary filters over one n-gram order.

    `ids` holds the dense term id of the n-gram starting at each position
    (-1 for none), `doc_of` each position's document and `doc_author` each
    document's author code. Returns the (document, term, count) triples of
    the terms kept, and their sorted ids.
    """
    num_ids = int(ids.max()) + 1 if ids.size else 0
    valid = ids >= 0
    pairs, pair_count = np.unique(
        _pair_codes(doc_of[: ids.size][valid], ids[valid], num_ids), return_counts=True
    )
    pair_doc, pair_term = np.divmod(pairs, num_ids)
    doc_freq = np.bincount(pair_term, minlength=num_ids)
    frac = doc_freq / doc_author.size
    # A term used by m distinct authors is in at least m documents, so the
    # author count is only needed for terms that pass this bound.
    keep = (
        (cfg.min_doc_frequency <= frac)
        & (frac <= cfg.max_doc_frequency)
        & (doc_freq >= cfg.min_authors_per_term)
    )
    cand = keep[pair_term]
    # Deduplicated by a sort: a plain np.unique hashes on numpy >= 2.3,
    # which is many times slower here.
    author_pairs = np.sort(_pair_codes(doc_author[pair_doc[cand]], pair_term[cand], num_ids))
    author_pairs = author_pairs[np.diff(author_pairs, prepend=-1) != 0]
    keep &= np.bincount(author_pairs % num_ids, minlength=num_ids) >= cfg.min_authors_per_term
    cand = keep[pair_term]
    return pair_doc[cand], pair_term[cand], pair_count[cand], np.flatnonzero(keep)


def build_corpus(docs, cfg):
    """Build a (SparseCorpus, Vocabulary) pair from raw documents.

    Filtering happens in a fixed order: authors with fewer than
    `min_docs_per_author` documents are dropped first (with their
    documents); document frequencies are then measured over the survivors;
    the vocabulary keeps n-grams with document frequency inside the
    inclusive [min, max] band that are used by at least
    `min_authors_per_term` distinct authors; finally, documents left with
    no in-vocabulary tokens are dropped.

    Terms are counted as integers: every word gets an id, and each n-gram
    of order n > 1 is the pair (id of its leading (n-1)-gram, id of its
    last word), re-indexed densely per order so that codes stay small.
    Counts, document frequencies and authors per term are sorts and
    bincounts over those ids; only vocabulary terms become strings.

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

    # A new word's id is the number of words seen before it.
    word_ids = defaultdict()
    word_ids.default_factory = word_ids.__len__
    doc_words = [
        np.fromiter(map(word_ids.__getitem__, words), np.int64, len(words))
        for words in (_words(d.text, cfg.stopwords) for d in kept)
    ]
    doc_of = np.repeat(np.arange(len(kept)), [w.size for w in doc_words])
    words = np.concatenate(doc_words)
    del doc_words
    author_code = {}
    doc_author = np.array([author_code.setdefault(d.author_id, len(author_code)) for d in kept])

    ids, spellings, filtered = words, [], []
    for n in range(1, cfg.max_ngram + 1):
        if n > 1:
            ids, spelled = _next_order(ids, words, len(word_ids), doc_of, n)
            spellings.append(spelled)
        filtered.append(_filter_terms(ids, doc_of, doc_author, cfg))

    # Spell out the kept terms, peeling the last word off each code.
    id_word = list(word_ids)
    num_words = len(id_word)
    terms = []
    for n, (*_, term_ids) in enumerate(filtered, start=1):
        parts = []
        for spelled in reversed(spellings[: n - 1]):
            term_ids, last = np.divmod(spelled[term_ids], num_words)
            parts.append(last)
        parts.append(term_ids)
        terms.extend(" ".join(map(id_word.__getitem__, t))
                     for t in zip(*(p.tolist() for p in reversed(parts))))
    if not terms:
        raise AllDocumentsFiltered("vocabulary filters removed every term")
    order = sorted(range(len(terms)), key=terms.__getitem__)
    vocab = Vocabulary(terms[i] for i in order)

    # Column of each kept term, numbered order by order as in `terms`.
    column = np.empty(len(terms), np.int64)
    column[order] = np.arange(len(terms))
    rows, cols, vals = [], [], []
    offset = 0
    for pair_doc, pair_term, pair_count, term_ids in filtered:
        rows.append(pair_doc)
        cols.append(column[offset + np.searchsorted(term_ids, pair_term)])
        vals.append(pair_count)
        offset += term_ids.size
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    # Drop documents without in-vocabulary tokens and renumber the rest.
    has_terms = np.bincount(rows, minlength=len(kept)) > 0
    rows = (np.cumsum(has_terms) - 1)[rows]
    kept_docs = [kept[i] for i in np.flatnonzero(has_terms)]

    author_names = sorted({d.author_id for d in kept_docs})
    author_index = {a: s for s, a in enumerate(author_names)}
    author_of = np.array([author_index[d.author_id] for d in kept_docs], dtype=np.int64)
    counts = sp.csr_matrix(
        (vals.astype(np.float64), (rows, cols)),
        shape=(len(kept_docs), len(vocab)), dtype=np.float64,
    )
    corpus = SparseCorpus(
        counts, author_of, author_names, doc_ids=[d.doc_id for d in kept_docs]
    )
    return corpus, vocab


def compute_weights(corpus):
    """Author verbosity weights: average document length over the grand mean.

    Returns an array w with one entry per author; mean(w) == 1 up to float
    rounding. Raises ValueError if an author has no document, or no token
    (a zero weight would make the TBIP likelihood take 0 * log 0).
    """
    totals = corpus.doc_totals()
    docs_per_author = np.bincount(corpus.author_of, minlength=corpus.num_authors)
    if np.any(docs_per_author == 0):
        raise ValueError("every author must have at least one document")
    tokens_per_author = np.bincount(
        corpus.author_of, weights=totals, minlength=corpus.num_authors
    )
    silent = [corpus.author_names[a] for a in np.flatnonzero(tokens_per_author == 0)]
    if silent:
        raise ValueError(f"authors whose documents hold no tokens: {silent}")
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
    with open_text(path) as fh:
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
    """Read the Vocabulary written by `save_corpus` under `indir`.

    A repeated term raises ValueError naming the file and the term.
    """
    path = Path(indir) / VOCAB_FILE
    with open_text(path) as fh:
        terms = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    try:
        return Vocabulary(terms)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _doc_index_row(row):
    if not row[1]:
        raise ValueError
    return int(row[0]), row[1:]


def read_doc_index_csv(path, columns):
    """The later fields of each `fitio.read_keyed_rows` row of a doc_index,
    `columns` CSV, as a list indexed by doc_index. The doc_index values
    must be 0..n-1 for some n >= 1, each once, and the second field (a name
    or label) must be non-empty, or ValueError names the file."""
    fields_by_doc = read_keyed_rows(path, "doc_index", _doc_index_row, f"doc_index,{columns}")
    num_docs = len(fields_by_doc)
    if not num_docs or sorted(fields_by_doc) != list(range(num_docs)):
        raise ValueError(f"{path}: doc_index values must be 0..n-1 over n >= 1 rows")
    return [fields_by_doc[d] for d in range(num_docs)]


_COUNTS_DTYPE = np.dtype([("doc", np.int64), ("term", np.int64), ("count", np.float64)])


def _read_counts(path):
    """(doc, term, count) arrays from a counts file; blank lines are skipped.

    Raises ValueError naming the file on a line that is not exactly two
    integer indices and a number.
    """
    with open_text(path) as fh, warnings.catch_warnings():
        # loadtxt warns on input without data; an empty corpus is valid.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(fh, dtype=_COUNTS_DTYPE, comments=None, ndmin=1)
        except UnicodeDecodeError:
            raise  # open_text names the file
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return table["doc"], table["term"], table["count"]


def load_corpus(indir):
    """Load a (SparseCorpus, Vocabulary) pair written by `save_corpus`.

    An authors file without the doc_id column gives the default ids doc{d}.
    Raises ValueError on a malformed counts or authors line, a counts file
    that repeats a (doc, term) pair or holds an index outside the documents
    or the vocabulary, or an authors file whose doc_index values are not
    0..n-1, each once.
    """
    indir = Path(indir)
    vocab = load_vocabulary(indir)

    doc_rows = read_doc_index_csv(indir / AUTHORS_FILE, "author_name[,doc_id]")
    num_docs = len(doc_rows)
    author_names = sorted({fields[0] for fields in doc_rows})
    author_index = {a: s for s, a in enumerate(author_names)}
    author_of = np.array([author_index[fields[0]] for fields in doc_rows], dtype=np.int64)

    counts_path = indir / COUNTS_FILE
    rows, cols, vals = _read_counts(counts_path)
    for kind, index, bound in (("doc", rows, num_docs), ("term", cols, len(vocab))):
        bad = index[(index < 0) | (index >= bound)]
        if bad.size:
            raise ValueError(f"{counts_path}: {kind} index {bad[0]} is outside [0, {bound})")
    counts = sp.csr_matrix(
        (vals, (rows, cols)), shape=(num_docs, len(vocab)), dtype=np.float64
    )
    # Building the CSR matrix sums repeated (doc, term) lines into one entry.
    if counts.nnz != len(vals):
        raise ValueError(f"{counts_path} repeats a (doc, term) pair")
    doc_ids = [fields[1] if len(fields) > 1 else f"doc{d}" for d, fields in enumerate(doc_rows)]
    return SparseCorpus(counts, author_of, author_names, doc_ids), vocab


def save_weights(path, author_names, weights):
    save_named_values(path, ["author_name", "weight"], author_names, weights)


def load_weights(path):
    """Return (author_names, weights) from a weights CSV."""
    return load_named_values(path, ["author_name", "weight"])
