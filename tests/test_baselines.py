import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from _oracles import wordfish_fit, wordfish_loglik, wordshoal_stage_one
from textideal import engine
from textideal.baselines import (
    DebateLabeledCorpus,
    DebateTooSmall,
    WordfishModel,
    _fit_wordfish,
    aggregate_by_author,
    fit_factor,
    train_wordfish,
    train_wordshoal,
)
from textideal.corpus import SparseCorpus
from textideal.tbip import TrainConfig


def wordfish_counts(num_authors, num_terms, polarity, seed, base_scale=0.5):
    rng = np.random.default_rng(seed)
    x = np.ones(num_authors)
    x[: num_authors // 2] = -1.0
    alpha = base_scale * rng.standard_normal(num_authors)
    psi = base_scale * rng.standard_normal(num_terms)
    b = polarity * rng.standard_normal(num_terms)
    lam = np.exp(alpha[:, None] + psi[None, :] + np.outer(x, b))
    return rng.poisson(lam).astype(float), x


def one_doc_per_author_corpus(counts):
    num_authors = counts.shape[0]
    return SparseCorpus(sp.csr_matrix(counts), np.arange(num_authors),
                        [f"a{i}" for i in range(num_authors)])


def wordshoal_corpus(num_authors, num_debates, num_terms, seed, noise=0.1):
    """One document per (author, debate); per-debate scaling data whose
    positions are debate-affine transforms of a shared two-cluster x."""
    rng = np.random.default_rng(seed)
    x = np.ones(num_authors)
    x[: num_authors // 2] = -1.0
    rows, authors, labels = [], [], []
    for j in range(num_debates):
        a_j = 0.3 * rng.standard_normal()
        b_j = rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.3)
        pos = a_j + b_j * x + noise * rng.standard_normal(num_authors)
        alpha = 0.3 * rng.standard_normal(num_authors)
        psi = 0.3 * rng.standard_normal(num_terms)
        b = rng.standard_normal(num_terms)
        lam = np.exp(alpha[:, None] + psi[None, :] + np.outer(pos, b))
        counts = rng.poisson(lam).astype(float)
        for s in range(num_authors):
            rows.append(counts[s])
            authors.append(s)
            labels.append(f"debate{j:02d}")
    corpus = SparseCorpus(sp.csr_matrix(np.vstack(rows)), np.array(authors),
                          [f"a{i}" for i in range(num_authors)])
    return corpus, labels, x


def ragged_debate_corpus(seed):
    """Debates over different author subsets, each with its own number of
    active terms; some authors speak twice in a debate."""
    rng = np.random.default_rng(seed)
    num_authors, num_terms = 12, 40
    layout = [(np.arange(12), 40), (np.array([1, 3, 4, 8, 10]), 9), (np.arange(2, 9), 23)]
    rows, authors, labels = [], [], []
    for j, (members, active) in enumerate(layout):
        lam = np.zeros((members.size, num_terms))
        terms = rng.choice(num_terms, active, replace=False)
        x = rng.standard_normal(members.size)
        lam[:, terms] = np.exp(0.3 + np.outer(x, rng.standard_normal(active)))
        for speakers in (slice(None), slice(None, None, 2)):
            rows.append(rng.poisson(lam[speakers]))
            authors.append(members[speakers])
            labels += [f"debate{j}"] * members[speakers].size
    corpus = SparseCorpus(sp.csr_matrix(np.vstack(rows).astype(float)), np.concatenate(authors),
                          [f"a{i}" for i in range(num_authors)])
    return DebateLabeledCorpus.build(corpus, labels)


class TestAggregate:
    def test_pools_documents_per_author(self):
        counts = np.array([[1, 0], [2, 3], [0, 4]], dtype=float)
        corpus = SparseCorpus(sp.csr_matrix(counts), [1, 0, 1], ["a", "b"])
        dense, present = aggregate_by_author(corpus)
        assert np.array_equal(present, [0, 1])
        assert np.array_equal(dense, [[2, 3], [1, 4]])

    def test_restricted_to_documents(self):
        counts = np.array([[1, 1], [5, 5], [2, 0]], dtype=float)
        corpus = SparseCorpus(sp.csr_matrix(counts), [0, 1, 0], ["a", "b"])
        dense, present = aggregate_by_author(corpus, np.array([0, 2]))
        assert np.array_equal(present, [0])
        assert np.array_equal(dense, [[3, 1]])


@st.composite
def _corpora_and_doc_subsets(draw):
    """A small corpus and distinct documents of it in any order."""
    num_docs = draw(st.integers(1, 8))
    num_terms = draw(st.integers(1, 6))
    num_authors = draw(st.integers(1, 4))
    dense = draw(st.lists(st.lists(st.integers(0, 30), min_size=num_terms,
                                   max_size=num_terms),
                          min_size=num_docs, max_size=num_docs))
    author_of = draw(st.lists(st.integers(0, num_authors - 1),
                              min_size=num_docs, max_size=num_docs))
    corpus = SparseCorpus(sp.csr_matrix(np.array(dense, dtype=float)), author_of,
                          [f"a{i}" for i in range(num_authors)])
    docs = draw(st.permutations(range(num_docs)))
    return corpus, np.array(docs[: draw(st.integers(0, num_docs))], dtype=np.int64)


class TestAggregateProperties:
    @settings(max_examples=100, deadline=None)
    @given(_corpora_and_doc_subsets())
    def test_matches_scipy_pooling_bytes(self, case):
        corpus, doc_idx = case
        authors = corpus.author_of[doc_idx]
        present, rows = np.unique(authors, return_inverse=True)
        pooling = sp.csr_matrix((np.ones(doc_idx.size), (rows, np.arange(doc_idx.size))),
                                shape=(present.size, doc_idx.size))
        expected = np.asarray((pooling @ corpus.counts[doc_idx]).todense())
        dense, got_present = aggregate_by_author(corpus, doc_idx)
        assert np.array_equal(got_present, present)
        assert (dense.shape, dense.dtype) == (expected.shape, expected.dtype)
        assert dense.flags.c_contiguous and expected.flags.c_contiguous
        assert dense.tobytes() == expected.tobytes()


class TestWordfish:
    def test_recovers_positions(self):
        counts, x_true = wordfish_counts(30, 200, polarity=1.0, seed=5)
        corpus = one_doc_per_author_corpus(counts)
        cfg = TrainConfig(max_steps=3000, seed=1, lr=0.02, elbo_report_interval=1000)
        fit = train_wordfish(corpus, cfg)
        assert abs(np.corrcoef(fit.x_hat, x_true)[0, 1]) >= 0.9

    def test_no_polarity_no_signal(self):
        counts, x_true = wordfish_counts(30, 200, polarity=0.0, seed=5)
        corpus = one_doc_per_author_corpus(counts)
        cfg = TrainConfig(max_steps=3000, seed=1, lr=0.02, elbo_report_interval=1000)
        fit = train_wordfish(corpus, cfg)
        assert abs(np.corrcoef(fit.x_hat, x_true)[0, 1]) < 0.3

    def test_sign_flip_symmetry_at_rate_level(self):
        rng = np.random.default_rng(0)
        model = WordfishModel([rng.poisson(2.0, (4, 6)).astype(float)])
        samples = {
            "alpha": rng.standard_normal(4),
            "psi": rng.standard_normal(6),
            "b": rng.standard_normal(6),
            "x": rng.standard_normal(4),
        }
        flipped = dict(samples, b=-samples["b"], x=-samples["x"])
        rows = np.arange(4)
        v1, _ = model.loglik(samples, rows)
        v2, _ = model.loglik(flipped, rows)
        assert v1 == v2


class TestDebateLabeledCorpus:
    def test_build_drops_single_author_debates(self):
        counts = np.eye(4) + 1.0
        corpus = SparseCorpus(sp.csr_matrix(counts), [0, 1, 0, 1],
                              ["a", "b"])
        labels = ["big", "big", "big", "solo"]
        d = DebateLabeledCorpus.build(corpus, labels)
        assert d.debate_ids == ["big"]
        assert d.corpus.num_docs == 3

    def test_build_rejects_all_small(self):
        counts = np.ones((2, 3))
        corpus = SparseCorpus(sp.csr_matrix(counts), [0, 0], ["a"])
        with pytest.raises(DebateTooSmall):
            DebateLabeledCorpus.build(corpus, ["d1", "d2"])

    def test_label_count_mismatch(self):
        corpus = SparseCorpus(sp.csr_matrix(np.ones((2, 2))), [0, 1], ["a", "b"])
        with pytest.raises(ValueError):
            DebateLabeledCorpus.build(corpus, ["only-one"])


class TestWordshoal:
    def test_single_debate_positions_are_affine_in_stage_one(self):
        corpus, labels, _ = wordshoal_corpus(20, 1, 120, seed=4)
        d = DebateLabeledCorpus.build(corpus, labels)
        cfg = TrainConfig(max_steps=3000, seed=1, lr=0.02, elbo_report_interval=3000)
        fit = train_wordshoal(d, cfg)
        stage1 = fit.debate_positions[:, 0]
        corr = np.corrcoef(fit.x_hat, stage1)[0, 1]
        assert abs(corr) >= 1.0 - 1e-6

    def test_two_stage_recovery(self):
        corpus, labels, x_true = wordshoal_corpus(20, 6, 120, seed=3)
        d = DebateLabeledCorpus.build(corpus, labels)
        cfg = TrainConfig(max_steps=3000, seed=1, lr=0.02, elbo_report_interval=3000)
        fit = train_wordshoal(d, cfg)
        assert abs(np.corrcoef(fit.x_hat, x_true)[0, 1]) >= 0.85

    def test_stage_two_affine_invariance(self):
        rng = np.random.default_rng(0)
        num_authors, num_debates = 25, 5
        x = np.ones(num_authors)
        x[:12] = -1.0
        positions = (
            0.2 * rng.standard_normal(num_debates)[None, :]
            + rng.uniform(0.6, 1.4, num_debates)[None, :] * x[:, None]
            + 0.08 * rng.standard_normal((num_authors, num_debates))
        )
        st1, _ = fit_factor(positions)
        scale = rng.uniform(0.5, 3.0, num_debates) * rng.choice([-1.0, 1.0], num_debates)
        shift = rng.standard_normal(num_debates)
        st2, _ = fit_factor(positions * scale[None, :] + shift[None, :])
        assert abs(np.corrcoef(st1.x_mean, st2.x_mean)[0, 1]) >= 0.99

    def test_stage_one_order_independent(self):
        """Debate j's stage-one column equals a standalone wordfish fit of its
        own pooled active-term counts on the [seed, j] stream, so it depends
        on nothing else; the standalone fits run in reverse order."""
        corpus, labels, _ = wordshoal_corpus(12, 4, 60, seed=8)
        d = DebateLabeledCorpus.build(corpus, labels)
        cfg = TrainConfig(max_steps=400, seed=2, lr=0.02, elbo_report_interval=400)
        fit = train_wordshoal(d, cfg)
        for j in reversed(range(d.num_debates)):
            counts, present = aggregate_by_author(d.corpus, np.flatnonzero(d.debate_of == j))
            active = counts[:, counts.sum(axis=0) > 0]
            alone = _fit_wordfish([active], cfg, [np.random.default_rng([cfg.seed, j])])[0]
            assert np.array_equal(fit.debate_positions[present, j], alone.x_hat)
            absent = np.setdiff1d(np.arange(d.corpus.num_authors), present)
            assert np.all(np.isnan(fit.debate_positions[absent, j]))

    def test_too_few_terms_raises_with_labels(self):
        # two authors share a single term in the tiny debate
        counts = np.array([[3.0, 1, 1], [2, 1, 1], [3, 0, 0], [1, 0, 0]])
        corpus = SparseCorpus(sp.csr_matrix(counts), [0, 1, 0, 1], ["a", "b"])
        labels = ["wide", "wide", "narrow", "narrow"]
        d = DebateLabeledCorpus.build(corpus, labels)
        with pytest.raises(DebateTooSmall) as err:
            train_wordshoal(d, TrainConfig(max_steps=10))
        assert "narrow" in err.value.labels

    def test_factor_elbo_monotone_after_first_sweep(self):
        rng = np.random.default_rng(5)
        positions = rng.standard_normal((15, 3))
        _, trace = fit_factor(positions, sweeps=60)
        values = [v for _, v in trace[1:]]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-8 * abs(a)


class TestStackedStageOne:
    """One engine run for every debate equals one run per debate, bitwise."""

    @pytest.mark.parametrize("mc_samples", [1, 2])
    def test_ragged_debates_match_per_debate_runs(self, mc_samples):
        d = ragged_debate_corpus(seed=11)
        shapes = set()
        for j in range(d.num_debates):
            counts, present = aggregate_by_author(d.corpus, np.flatnonzero(d.debate_of == j))
            shapes.add((present.size, int(np.count_nonzero(counts.sum(axis=0)))))
        assert len({n for n, _ in shapes}) == 3 and len({v for _, v in shapes}) == 3
        cfg = TrainConfig(max_steps=150, seed=3, lr=0.02, mc_samples=mc_samples,
                          elbo_report_interval=150)
        fit = train_wordshoal(d, cfg)
        assert np.array_equal(fit.debate_positions, wordshoal_stage_one(d, cfg), equal_nan=True)

    def test_single_debate_matches_one_run(self):
        corpus, labels, _ = wordshoal_corpus(10, 1, 40, seed=6)
        d = DebateLabeledCorpus.build(corpus, labels)
        cfg = TrainConfig(max_steps=200, seed=5, lr=0.02, elbo_report_interval=200)
        fit = train_wordshoal(d, cfg)
        assert np.array_equal(fit.debate_positions, wordshoal_stage_one(d, cfg))

    def test_train_wordfish_matches_single_model_run(self):
        counts, _ = wordfish_counts(15, 50, polarity=1.0, seed=2)
        cfg = TrainConfig(max_steps=200, seed=4, lr=0.02, elbo_report_interval=50)
        fit = train_wordfish(one_doc_per_author_corpus(counts), cfg)
        means, trace = wordfish_fit(counts, cfg, np.random.default_rng(cfg.seed))
        assert np.array_equal(fit.x_hat, means["x"])
        assert np.array_equal(fit.psi_hat, means["psi"])
        assert np.array_equal(fit.b_hat, means["b"])
        assert fit.elbo_trace == trace

    def test_block_gradients_match_single_model(self):
        rng = np.random.default_rng(7)
        # Includes one-author (1, v) and one-term (n, 1) blocks.
        shapes = [(3, 5), (1, 4), (4, 2), (1, 6), (5, 1)]
        blocks = [rng.poisson(2.0, shape).astype(float) for shape in shapes]
        model = WordfishModel(blocks)
        num_authors = sum(n for n, _ in shapes)
        num_terms = sum(v for _, v in shapes)
        samples = {name: rng.standard_normal(size) for name, size in
                   [("alpha", num_authors), ("psi", num_terms), ("b", num_terms),
                    ("x", num_authors)]}
        value, grads = model.loglik(samples, np.arange(num_authors))
        total = 0.0
        for counts, rows, terms in zip(blocks, model.author_slices, model.term_slices):
            part = {"alpha": samples["alpha"][rows], "psi": samples["psi"][terms],
                    "b": samples["b"][terms], "x": samples["x"][rows]}
            v, g = wordfish_loglik(counts, part, np.arange(counts.shape[0]))
            total += v
            for name, sl in [("alpha", rows), ("psi", terms), ("b", terms), ("x", rows)]:
                assert np.array_equal(grads[name][sl], g[name])
        assert value == pytest.approx(total, rel=1e-12)

    def test_rejects_a_partial_batch(self):
        model = WordfishModel([np.ones((3, 2))])
        samples = {"alpha": np.zeros(3), "psi": np.zeros(2), "b": np.zeros(2), "x": np.zeros(3)}
        with pytest.raises(ValueError):
            model.loglik(samples, np.array([0, 2]))


class TestWordshoalFailures:
    def test_divergence_raises_non_finite_elbo(self):
        corpus, labels, _ = wordshoal_corpus(8, 3, 30, seed=1)
        d = DebateLabeledCorpus.build(corpus, labels)
        with pytest.raises(engine.NonFiniteElbo):
            train_wordshoal(d, TrainConfig(max_steps=200, seed=0, lr=1e8))

    def test_too_small_debates_all_named_before_any_fit(self, monkeypatch):
        counts = np.array([[3.0, 1, 1, 2], [2, 1, 1, 1],
                           [3, 0, 0, 0], [1, 0, 0, 0],
                           [0, 2, 0, 0], [0, 5, 0, 0]])
        corpus = SparseCorpus(sp.csr_matrix(counts), [0, 1, 0, 1, 0, 1], ["a", "b"])
        d = DebateLabeledCorpus.build(corpus, ["wide", "wide", "narrow", "narrow", "thin", "thin"])

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started before the size check")

        monkeypatch.setattr(engine, "fit", no_fit)
        with pytest.raises(DebateTooSmall) as err:
            train_wordshoal(d, TrainConfig(max_steps=10))
        assert err.value.labels == ["narrow", "thin"]
