import gc
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

import _oracles
from textideal.corpus import (
    AllDocumentsFiltered,
    PreprocessConfig,
    RawDocument,
    SparseCorpus,
    Vocabulary,
    build_corpus,
    compute_weights,
    load_corpus,
    load_vocabulary,
    load_weights,
    log_transform,
    read_documents_jsonl,
    save_corpus,
    save_weights,
    tokenize,
)
from textideal.corpus import _next_order, _pair_codes, _read_counts


class TestTokenize:
    def test_ngram_counts(self):
        counts = tokenize("Gun Violence gun", max_ngram=2)
        assert counts == {
            "gun": 2,
            "violence": 1,
            "gun violence": 1,
            "violence gun": 1,
        }

    def test_empty_text(self):
        assert tokenize("") == {}

    def test_stopwords_removed_before_ngrams(self):
        assert tokenize("the gun", max_ngram=1, stopwords={"the"}) == {"gun": 1}
        # bigram bridges the removed stopword
        counts = tokenize("gun the violence", max_ngram=2, stopwords={"the"})
        assert counts["gun violence"] == 1

    def test_nonalphabetic_dropped(self):
        counts = tokenize("vote2024 H.R. 1628!")
        assert counts == {"vote": 1, "h": 1, "r": 1}


def _docs(rows):
    return [RawDocument(f"d{i}", a, t) for i, (a, t) in enumerate(rows)]


class TestBuildCorpus:
    def test_low_document_frequency_excluded(self):
        # 1 of 2000 documents = 0.05%, below a 0.1% floor
        rows = [("a%d" % (i % 5), "common words here") for i in range(1999)]
        rows.append(("a0", "common words here rareterm"))
        corpus, vocab = build_corpus(
            _docs(rows),
            PreprocessConfig(min_doc_frequency=0.001, max_doc_frequency=1.0,
                             min_authors_per_term=1, max_ngram=1),
        )
        assert "rareterm" not in vocab
        assert "common" in vocab

    def test_high_document_frequency_excluded(self):
        rows = [("a%d" % (i % 3), "procedural filler topic%s" % chr(97 + i % 7))
                for i in range(70)]
        corpus, vocab = build_corpus(
            _docs(rows),
            PreprocessConfig(min_doc_frequency=0.0, max_doc_frequency=0.3,
                             min_authors_per_term=1, max_ngram=1),
        )
        assert "procedural" not in vocab and "filler" not in vocab
        assert "topica" in vocab

    def test_min_authors_per_term(self):
        # "insider" used by 9 authors, general terms by 10
        rows = [(f"a{i}", "shared language insider") for i in range(9)]
        rows += [("a9", "shared language")]
        corpus, vocab = build_corpus(
            _docs(rows),
            PreprocessConfig(min_doc_frequency=0.0, max_doc_frequency=1.0,
                             min_authors_per_term=10, max_ngram=1),
        )
        assert "insider" not in vocab
        assert "shared" in vocab

    def test_min_docs_per_author_drops_author(self):
        rows = [("prolific", f"speech number {i}") for i in range(24)]
        rows += [("quiet", "speech number x")] * 23
        corpus, vocab = build_corpus(
            _docs([(a, t) for a, t in rows]),
            PreprocessConfig(min_doc_frequency=0.0, max_doc_frequency=1.0,
                             min_authors_per_term=1, min_docs_per_author=24,
                             max_ngram=1),
        )
        assert corpus.author_names == ["prolific"]
        assert corpus.num_docs == 24

    def test_nothing_survives(self):
        with pytest.raises(AllDocumentsFiltered):
            build_corpus(
                _docs([("a", "solo text")]),
                PreprocessConfig(min_doc_frequency=0.0, max_doc_frequency=1.0,
                                 min_authors_per_term=5, max_ngram=1),
            )

    def test_deterministic(self):
        rows = [("a%d" % (i % 4), f"word{chr(97 + i % 11)} stable phrase here") for i in range(60)]
        cfg = PreprocessConfig(min_doc_frequency=0.0, max_doc_frequency=1.0,
                               min_authors_per_term=2, max_ngram=2)
        c1, v1 = build_corpus(_docs(rows), cfg)
        c2, v2 = build_corpus(_docs(rows), cfg)
        assert v1 == v2
        assert (c1.counts != c2.counts).nnz == 0
        assert np.array_equal(c1.author_of, c2.author_of)

    def test_document_frequency_band_holds_post_hoc(self):
        rng = np.random.default_rng(0)
        words = [f"w{chr(97+i//5)}{chr(97+i%5)}" for i in range(30)]
        rows = []
        for i in range(200):
            picked = rng.choice(words, size=8)
            rows.append((f"a{i % 6}", " ".join(picked)))
        cfg = PreprocessConfig(min_doc_frequency=0.05, max_doc_frequency=0.5,
                               min_authors_per_term=1, max_ngram=1)
        corpus, vocab = build_corpus(_docs(rows), cfg)
        df = np.asarray((corpus.counts > 0).sum(axis=0)).ravel() / corpus.num_docs
        assert np.all(df >= cfg.min_doc_frequency - 1e-12)
        assert np.all(df <= cfg.max_doc_frequency + 1e-12)

    def test_vocab_round_trip(self):
        vocab = Vocabulary(["alpha", "beta gamma", "delta"])
        for i, term in enumerate(vocab.terms):
            assert vocab.index[term] == i
            assert vocab[i] == term


def _corpus_from_dense(dense, author_of, names):
    return SparseCorpus(sp.csr_matrix(np.asarray(dense, dtype=float)),
                        author_of, names)


class TestWeights:
    def test_single_author(self):
        corpus = _corpus_from_dense([[3, 2]], [0], ["solo"])
        assert np.allclose(compute_weights(corpus), [1.0])

    def test_two_authors_ratio(self):
        # author means 10 and 30 -> weights 0.5 and 1.5
        corpus = _corpus_from_dense([[10], [30]], [0, 1], ["a", "b"])
        assert np.allclose(compute_weights(corpus), [0.5, 1.5])

    def test_equal_verbosity(self):
        corpus = _corpus_from_dense([[5], [5], [5]], [0, 1, 2], ["a", "b", "c"])
        assert np.allclose(compute_weights(corpus), [1, 1, 1])

    def test_mean_one_invariant(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            d = rng.integers(2, 30)
            s = rng.integers(1, min(d, 6) + 1)
            dense = rng.poisson(3.0, size=(d, 8)) + 1
            author_of = np.concatenate([np.arange(s), rng.integers(0, s, d - s)])
            corpus = _corpus_from_dense(dense, author_of, [f"a{i}" for i in range(s)])
            w = compute_weights(corpus)
            assert abs(w.mean() - 1.0) <= 1e-12
            assert np.all(w > 0)

    def test_author_without_tokens_rejected(self):
        # A zero weight would make the TBIP likelihood take 0 * log 0.
        corpus = _corpus_from_dense([[3, 1], [0, 0], [0, 0], [2, 2]], [0, 1, 2, 0],
                                    ["a", "b", "c"])
        with pytest.raises(ValueError, match=r"no tokens: \['b', 'c'\]"):
            compute_weights(corpus)


class TestLogTransform:
    def test_count_one_stays_one(self):
        corpus = _corpus_from_dense([[1, 0], [0, 1]], [0, 0], ["a"])
        out = log_transform(corpus)
        assert np.array_equal(out.counts.toarray(), [[1, 0], [0, 1]])

    def test_absent_entries_stay_absent(self):
        corpus = _corpus_from_dense([[5, 0, 2]], [0], ["a"])
        out = log_transform(corpus)
        assert out.counts[0, 1] == 0
        assert out.counts.nnz == 2

    def test_rounding(self):
        # round(ln 21) = round(3.045) = 3; round(ln 4) = round(1.386) = 1
        corpus = _corpus_from_dense([[20, 3]], [0], ["a"])
        out = log_transform(corpus)
        assert out.counts[0, 0] == 3.0
        assert out.counts[0, 1] == 1.0

    def test_idempotent_on_unit_counts(self):
        corpus = _corpus_from_dense([[1, 1, 0], [0, 1, 1]], [0, 1], ["a", "b"])
        once = log_transform(corpus)
        twice = log_transform(once)
        assert (once.counts != twice.counts).nnz == 0


class TestFileFormats:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "d1", "author": "sen_a", "text": "gun violence"}\n'
            '{"id": "d2", "author": "sen_b", "text": "tax reform"}\n',
            encoding="utf-8",
        )
        docs = read_documents_jsonl(path)
        assert docs[0] == RawDocument("d1", "sen_a", "gun violence")
        assert len(docs) == 2

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "expected a JSON object"),
        ('"text"', "expected a JSON object"),
        ("{bad", "invalid JSON"),
    ])
    def test_malformed_jsonl_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "author": "a", "text": "t"}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_documents_jsonl(path)
        assert str(err.value).startswith(f"{path}:2: ")
        assert message in str(err.value)

    def test_corpus_round_trip(self, tmp_path):
        dense = [[2, 0, 1], [0, 3, 0], [1, 1, 1]]
        corpus = SparseCorpus(sp.csr_matrix(np.asarray(dense, dtype=float)), [0, 1, 0],
                              ["alice", "bob"], doc_ids=["s1", "speech, 2", "s3"])
        vocab = Vocabulary(["apple", "banana", "cherry"])
        save_corpus(corpus, vocab, tmp_path)
        loaded, vocab2 = load_corpus(tmp_path)
        assert vocab2 == vocab
        assert np.array_equal(loaded.counts.toarray(), dense)
        assert loaded.author_names == ["alice", "bob"]
        assert np.array_equal(loaded.author_of, corpus.author_of)
        assert loaded.doc_ids == ["s1", "speech, 2", "s3"]

    def test_two_column_authors_file_gets_default_ids(self, tmp_path):
        (tmp_path / "vocabulary.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "authors.csv").write_text(
            "doc_index,author_name\n0,alice\n1,bob\n", encoding="utf-8")
        (tmp_path / "counts.txt").write_text("0 0 2\n1 1 1\n", encoding="utf-8")
        loaded, _ = load_corpus(tmp_path)
        assert loaded.doc_ids == ["doc0", "doc1"]
        assert loaded.author_names == ["alice", "bob"]

    def test_duplicate_count_lines_rejected(self, tmp_path):
        (tmp_path / "vocabulary.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "authors.csv").write_text(
            "doc_index,author_name,doc_id\n0,alice,d0\n", encoding="utf-8")
        (tmp_path / "counts.txt").write_text("0 0 2\n0 1 1\n0 0 3\n",
                                             encoding="utf-8")
        with pytest.raises(ValueError, match="counts.txt"):
            load_corpus(tmp_path)

    def _write_two_doc_corpus(self, tmp_path, counts_text):
        (tmp_path / "vocabulary.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "authors.csv").write_text(
            "doc_index,author_name,doc_id\n0,alice,d0\n1,bob,d1\n", encoding="utf-8")
        (tmp_path / "counts.txt").write_text(counts_text, encoding="utf-8")

    def test_repeated_vocabulary_term_names_file_and_term(self, tmp_path):
        path = tmp_path / "vocabulary.txt"
        path.write_text("a\nb\nc\nb\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_vocabulary(tmp_path)
        assert str(err.value) == f"{path}: vocabulary repeats term 'b'"

    def test_load_corpus_closes_its_files(self, tmp_path):
        self._write_two_doc_corpus(tmp_path, "0 0 2\n1 1 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_corpus(tmp_path)
            assert load_vocabulary(tmp_path) == Vocabulary(["a", "b"])
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("text", ["", "\n", "  \n\n\t\n"])
    def test_empty_counts_file_gives_empty_corpus(self, tmp_path, text):
        self._write_two_doc_corpus(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded, vocab = load_corpus(tmp_path)
        assert loaded.counts.shape == (2, 2)
        assert loaded.counts.nnz == 0
        assert len(vocab) == 2

    def test_blank_lines_and_tabs_between_counts(self, tmp_path):
        self._write_two_doc_corpus(tmp_path, "\n0 0 2\n\n1\t1\t1.0\n\n")
        loaded, _ = load_corpus(tmp_path)
        assert np.array_equal(loaded.counts.toarray(), [[2, 0], [0, 1]])

    @pytest.mark.parametrize("line", [
        "0 1.5 2",    # non-integer term index
        "0.0 1 2",    # non-integer document index
        "zero 1 2",   # not a number
        "0 1",        # missing column
        "0 1 2 7",    # extra column
        "# 0 1 2",    # comments are not part of the format
    ])
    def test_malformed_count_line_rejected(self, tmp_path, line):
        self._write_two_doc_corpus(tmp_path, f"0 0 2\n{line}\n")
        with pytest.raises(ValueError, match="counts.txt"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("line, message", [
        ("1", "authors.csv:4: expected doc_index,author_name"),
        ("one,carol,d9", "authors.csv:4: expected doc_index,author_name"),
        ("1,carol,d9", "authors.csv:4: repeats doc_index 1"),
        ("doc_index,author_name,doc_id", "authors.csv:4: expected doc_index,author_name"),
        ("2,", "authors.csv:4: expected doc_index,author_name"),  # an empty name
        ("2,,d2", "authors.csv:4: expected doc_index,author_name"),
    ])
    def test_malformed_authors_line_rejected(self, tmp_path, line, message):
        self._write_two_doc_corpus(tmp_path, "0 0 2\n1 1 1\n")
        with open(tmp_path / "authors.csv", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match=message):
            load_corpus(tmp_path)

    def test_weights_round_trip(self, tmp_path):
        path = tmp_path / "weights.csv"
        save_weights(path, ["a", "b"], np.array([0.5, 1.5]))
        names, w = load_weights(path)
        assert names == ["a", "b"]
        assert np.array_equal(w, [0.5, 1.5])

    @pytest.mark.parametrize("line", ["solo", "a,heavy"])
    def test_malformed_weights_row_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "weights.csv"
        save_weights(path, ["a", "b"], np.array([0.5, 1.5]))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError) as err:
            load_weights(path)
        assert str(err.value).startswith(f"{path}:4: ")


_labels = st.text(max_size=6)
_author_names = st.text(min_size=1, max_size=6)  # load_corpus rejects an empty name


@st.composite
def _small_corpora(draw):
    num_authors = draw(st.integers(1, 4))
    author_names = sorted(draw(st.sets(_author_names, min_size=num_authors,
                                       max_size=num_authors)))
    num_docs = draw(st.integers(num_authors, 8))
    # Every author keeps a document: load_corpus lists the authors it sees.
    extra = draw(st.lists(st.integers(0, num_authors - 1),
                          min_size=num_docs - num_authors,
                          max_size=num_docs - num_authors))
    author_of = draw(st.permutations(list(range(num_authors)) + extra))
    num_terms = draw(st.integers(1, 5))
    dense = draw(st.lists(st.lists(st.integers(0, 30), min_size=num_terms,
                                   max_size=num_terms),
                          min_size=num_docs, max_size=num_docs))
    doc_ids = draw(st.lists(_labels, min_size=num_docs, max_size=num_docs))
    corpus = SparseCorpus(sp.csr_matrix(np.array(dense, dtype=float)), author_of,
                          author_names, doc_ids=doc_ids)
    return corpus, Vocabulary([f"t{v}" for v in range(num_terms)])


class TestCorpusProperties:
    @settings(max_examples=60, deadline=None)
    @given(_small_corpora(), st.data())
    def test_row_entries_match_scipy_row_indexing(self, pair, data):
        corpus, _ = pair
        idx = data.draw(st.lists(st.integers(0, corpus.num_docs - 1), max_size=10))
        expected = corpus.counts[idx]
        indptr, terms, counts = corpus.row_entries(np.array(idx, dtype=np.int64))
        assert np.array_equal(indptr, expected.indptr)
        assert np.array_equal(terms, expected.indices)
        assert np.array_equal(counts, expected.data)

    @settings(max_examples=60, deadline=None)
    @given(_small_corpora())
    def test_save_load_round_trip(self, pair):
        corpus, vocab = pair
        with tempfile.TemporaryDirectory() as tmp:
            save_corpus(corpus, vocab, tmp)
            loaded, vocab2 = load_corpus(tmp)
            written = (Path(tmp) / "counts.txt").read_bytes()
            _oracles.write_counts_lines(corpus, Path(tmp) / "oracle.txt")
            assert written == (Path(tmp) / "oracle.txt").read_bytes()
        assert vocab2 == vocab
        assert loaded.counts.shape == corpus.counts.shape
        assert np.array_equal(loaded.counts.toarray(), corpus.counts.toarray())
        assert np.array_equal(loaded.author_of, corpus.author_of)
        assert loaded.author_names == corpus.author_names
        assert loaded.doc_ids == corpus.doc_ids


# Names CSV quoting has to handle, and the header's field names as names.
_score_names = st.one_of(st.text(max_size=6), st.sampled_from(
    ["author_name", "weight", "name", "score", "a,b", '"q"', 'x"", y', "line\nbreak",
     " pad "]))
_scores = st.floats(allow_nan=False)


class TestWeightsCsvProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_score_names, _scores), max_size=6, unique_by=lambda row: row[0]))
    def test_save_load_round_trip(self, rows):
        names = [n for n, _ in rows]
        weights = np.array([w for _, w in rows], dtype=np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            save_weights(Path(tmp) / "weights.csv", names, weights)
            loaded_names, loaded = load_weights(Path(tmp) / "weights.csv")
        assert loaded_names == names
        assert loaded.astype(np.float64).tobytes() == weights.tobytes()


_WORDS = ["a", "b", "c", "d"]
# Variants of the four words: mixed case, digits and punctuation inside and
# around them, and non-ASCII letters ("İ" lowercases to "i" and a combining
# dot, which is not a letter).
_VARIANTS = ["B", "Cd", "a1c", "7", "d.", "!", "b,a", "c-d", "é", "Éa", "ß", "aß", "İ", "bİ"]


@st.composite
def _raw_documents(draw):
    """Tiny texts over four words and their variants, some shorter than any
    n-gram and some with runs of one repeated word, and now and then a
    repeated id or an empty author."""
    num_docs = draw(st.integers(0, 8))
    docs = []
    for d in range(num_docs):
        max_size = draw(st.sampled_from([2, 10]))
        tokens = draw(st.lists(st.sampled_from(_WORDS + _VARIANTS), max_size=max_size))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(tokens)))
            tokens[at:at] = [draw(st.sampled_from(_WORDS))] * draw(st.integers(2, 4))
        rare = draw(st.integers(0, 99))
        doc_id = "d0" if rare == 41 else f"d{d}"
        author = "" if rare == 59 else draw(st.sampled_from(["x", "y", "z"]))
        docs.append(RawDocument(doc_id, author, " ".join(tokens)))
    return docs


@st.composite
def _preprocess_configs(draw):
    # Fractions that a document frequency over up to eight documents can
    # equal exactly, so the inclusive band edges are hit.
    lo = draw(st.sampled_from([0.0, 0.125, 0.2, 0.25, 1 / 3, 0.5, 0.75]))
    hi = draw(st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]))
    assume(lo < hi)
    return PreprocessConfig(
        min_doc_frequency=lo,
        max_doc_frequency=hi,
        min_authors_per_term=draw(st.integers(0, 4)),
        min_docs_per_author=draw(st.integers(0, 3)),
        stopwords=frozenset(draw(st.sets(st.sampled_from(_WORDS), max_size=2))),
        max_ngram=draw(st.integers(1, 3)),
    )


def _build_outcome(build, docs, cfg):
    """Everything build_corpus returns or raises, in comparable form."""
    try:
        corpus, vocab = build(docs, cfg)
    except (ValueError, AllDocumentsFiltered) as exc:
        return type(exc), str(exc)
    c = corpus.counts
    return (
        vocab.terms,
        c.shape,
        [(a.dtype.str, a.tobytes()) for a in (c.indptr, c.indices, c.data)],
        (corpus.author_of.dtype.str, corpus.author_of.tobytes()),
        corpus.author_names,
        corpus.doc_ids,
    )


class TestMatchesLoopOracle:
    def test_tokenize_keeps_first_occurrence_order(self):
        counts = tokenize("b a b a c", max_ngram=3)
        assert list(counts.items()) == list(_oracles.tokenize("b a b a c", 3).items())
        assert list(counts) == ["b", "a", "c", "b a", "a b", "a c",
                                "b a b", "a b a", "b a c"]

    @settings(max_examples=400, deadline=None)
    @given(_raw_documents(), _preprocess_configs())
    @example([], PreprocessConfig())
    @example(_docs([("x", "a b"), ("y", "a")]) + [RawDocument("d0", "z", "c")],
             PreprocessConfig())
    @example(_docs([("x", "a b"), ("", "a")]), PreprocessConfig())
    @example(_docs([("x", "a b"), ("y", "a")]),
             PreprocessConfig(min_docs_per_author=2))
    @example(_docs([("x", "a b"), ("y", "a c")]),
             PreprocessConfig(min_doc_frequency=0.0, max_doc_frequency=1.0,
                              min_authors_per_term=3))
    @example(_docs([("x", "a b a"), ("y", "a b c"), ("x", "b")]),
             PreprocessConfig(min_doc_frequency=1 / 3, max_doc_frequency=2 / 3,
                              min_authors_per_term=2, max_ngram=2))
    def test_build_corpus_matches_loop_oracle(self, docs, cfg):
        for d in docs:
            expected = _oracles.tokenize(d.text, cfg.max_ngram, cfg.stopwords)
            got = tokenize(d.text, cfg.max_ngram, cfg.stopwords)
            assert list(got.items()) == list(expected.items())
        assert (_build_outcome(build_corpus, docs, cfg)
                == _build_outcome(_oracles.build_corpus, docs, cfg))


def _traced_peak(fn, *args):
    """(fn(*args), peak bytes traced while it ran above what was traced before)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestBuildCorpusMemory:
    def test_peak_below_half_of_string_counters(self):
        """Integer-coded n-grams: the traced peak stays below half of the
        per-document string Counters' peak, with the same outcome."""
        rng = np.random.default_rng(3)
        letters = np.array(list("bcdfghklmnprstvz"))
        vowels = np.array(list("aeiou"))
        lexicon = ["".join(a + b for a, b in zip(rng.choice(letters, 3), rng.choice(vowels, 3)))
                   for _ in range(3000)]
        weights = 1.0 / np.arange(1, len(lexicon) + 1)
        weights /= weights.sum()
        docs = [
            RawDocument(f"d{i}", f"a{i % 40}",
                        " ".join(rng.choice(lexicon, size=rng.integers(100, 300), p=weights)))
            for i in range(300)
        ]
        cfg = PreprocessConfig()
        got, peak = _traced_peak(_build_outcome, build_corpus, docs, cfg)
        expected, oracle_peak = _traced_peak(_build_outcome, _oracles.build_corpus, docs, cfg)
        assert got == expected
        assert peak < oracle_peak / 2


class TestReadCountsMemory:
    def test_peak_below_arrays_plus_one_copy_of_the_file(self, tmp_path):
        """The parser reads the open file: no whole-file string or StringIO
        copy, so the traced peak stays below the parsed table (24 bytes a
        line) plus the file's size, and the arrays match a float parse."""
        rng = np.random.default_rng(0)
        n = 50_000
        lines = zip(np.repeat(np.arange(n // 50), 50), rng.integers(0, 20_000, n),
                    rng.integers(1, 9, n))
        path = tmp_path / "counts.txt"
        path.write_text("".join(f"{d} {t} {c}\n" for d, t, c in lines), encoding="utf-8")
        (docs, terms, counts), peak = _traced_peak(_read_counts, path)
        table = np.loadtxt(path, dtype=np.float64, ndmin=2)
        assert np.array_equal(docs, table[:, 0]) and docs.dtype == np.int64
        assert np.array_equal(terms, table[:, 1]) and terms.dtype == np.int64
        assert np.array_equal(counts, table[:, 2])
        assert peak < 24 * n + path.stat().st_size


class TestPairCodes:
    def test_guard_admits_the_last_code_and_rejects_the_next(self):
        top = np.iinfo(np.int64).max
        codes = _pair_codes(np.array([0, 2**32 - 1]), np.array([5, 2**31 - 1]), 2**31)
        assert codes.tolist() == [5, top]
        with pytest.raises(OverflowError):
            _pair_codes(np.array([0, 2**32]), np.array([5, 0]), 2**31)

    def test_trigram_codes_of_a_huge_vocabulary_stay_in_range(self):
        """Word ids near 3e9 would need codes near 2.7e28 as base**3; with
        bigrams re-indexed densely, trigram codes stay below 2 x 3e9."""
        num_words = 3_000_000_000
        words = np.array([num_words - 1, 1, num_words - 2, 1, num_words - 1, 1])
        doc_of = np.array([0, 0, 0, 0, 1, 1])
        bigrams, spelled2 = _next_order(words, words, num_words, doc_of, 2)
        # Bigram codes sorted: (1, W-2), (W-2, 1), (W-1, 1); the one at
        # position 3 would cross into document 1.
        assert bigrams.tolist() == [2, 0, 1, -1, 2]
        assert spelled2.tolist() == [2 * num_words - 2, (num_words - 2) * num_words + 1,
                                     (num_words - 1) * num_words + 1]
        trigrams, spelled3 = _next_order(bigrams, words, num_words, doc_of, 3)
        assert trigrams.tolist() == [1, 0, -1, -1]
        assert spelled3.tolist() == [0 * num_words + 1, 2 * num_words + num_words - 2]


class TestSparseCorpusValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            SparseCorpus(sp.csr_matrix(np.array([[1.5]])), [0], ["a"])

    def test_rejects_out_of_range_author(self):
        with pytest.raises(ValueError):
            SparseCorpus(sp.csr_matrix(np.eye(2)), [0, 5], ["a"])
