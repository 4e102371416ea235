import numpy as np
import pytest
import scipy.sparse as sp

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
        model = WordfishModel(rng.poisson(2.0, (4, 6)).astype(float))
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
            alone = _fit_wordfish(active, cfg, np.random.default_rng([cfg.seed, j]))
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
