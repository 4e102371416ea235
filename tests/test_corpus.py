import gc
import math
import tempfile
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

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

    def test_weights_round_trip(self, tmp_path):
        path = tmp_path / "weights.csv"
        save_weights(path, ["a", "b"], np.array([0.5, 1.5]))
        names, w = load_weights(path)
        assert names == ["a", "b"]
        assert np.array_equal(w, [0.5, 1.5])


_labels = st.text(max_size=6)


@st.composite
def _small_corpora(draw):
    num_authors = draw(st.integers(1, 4))
    author_names = sorted(draw(st.sets(_labels, min_size=num_authors,
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
    def test_dense_rows_match_scipy_row_indexing(self, pair, data):
        corpus, _ = pair
        idx = data.draw(st.lists(st.integers(0, corpus.num_docs - 1), max_size=10))
        expected = corpus.counts[idx].toarray()
        assert np.array_equal(corpus.dense_rows(idx), expected)

    @settings(max_examples=60, deadline=None)
    @given(_small_corpora())
    def test_save_load_round_trip(self, pair):
        corpus, vocab = pair
        with tempfile.TemporaryDirectory() as tmp:
            save_corpus(corpus, vocab, tmp)
            loaded, vocab2 = load_corpus(tmp)
        assert vocab2 == vocab
        assert loaded.counts.shape == corpus.counts.shape
        assert np.array_equal(loaded.counts.toarray(), corpus.counts.toarray())
        assert np.array_equal(loaded.author_of, corpus.author_of)
        assert loaded.author_names == corpus.author_names
        assert loaded.doc_ids == corpus.doc_ids


class TestSparseCorpusValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            SparseCorpus(sp.csr_matrix(np.array([[1.5]])), [0], ["a"])

    def test_rejects_out_of_range_author(self):
        with pytest.raises(ValueError):
            SparseCorpus(sp.csr_matrix(np.eye(2)), [0, 5], ["a"])
