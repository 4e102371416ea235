import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.stats import poisson

from _oracles import factor_draws, tbip_loglik
from textideal import engine, tbip
from textideal.corpus import SparseCorpus, compute_weights
from textideal.synth import SynthSpec, sample_tbip
from textideal.tbip import (
    FitResult,
    PriorConfig,
    TBIPModel,
    TrainConfig,
    load_fit,
    log_likelihood_doc,
    make_state,
    save_fit,
    tbip_rate,
    train_tbip,
)


class TestRate:
    def test_zero_tilt_reduces_to_factorization_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k, v = rng.integers(1, 5), rng.integers(1, 7)
            theta = rng.gamma(1.0, 1.0, k) + 0.1
            beta = rng.gamma(1.0, 1.0, (k, v)) + 0.1
            w = float(rng.uniform(0.5, 2.0))
            x = float(rng.standard_normal())
            rate = tbip_rate(theta, beta, np.zeros((k, v)), x, w)
            plain = w * (theta @ (beta * np.exp(x * np.zeros((k, v)))))
            reference = w * (theta @ (beta * np.ones((k, v))))
            assert np.array_equal(rate, plain)
            assert np.array_equal(rate, reference)

    def test_single_topic_tilt(self):
        # theta=1, beta=1, eta=ln 2: x=+1 doubles the rate, x=-1 halves it
        eta = np.array([[math.log(2.0)]])
        up = tbip_rate(np.ones(1), np.ones((1, 1)), eta, 1.0, 1.0)
        down = tbip_rate(np.ones(1), np.ones((1, 1)), eta, -1.0, 1.0)
        assert np.allclose(up, [2.0]) and np.allclose(down, [0.5])

    def test_tilt_free_sum(self):
        rate = tbip_rate(np.array([1.0, 1.0]), np.array([[2.0], [3.0]]),
                         np.zeros((2, 1)), 7.3, 1.0)
        assert np.allclose(rate, [5.0])

    def test_overflow_is_an_error(self):
        eta = np.array([[800.0]])
        with pytest.raises(OverflowError):
            tbip_rate(np.ones(1), np.ones((1, 1)), eta, 1.0, 1.0)

    def test_sign_flip_symmetry_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k, v = rng.integers(1, 4), rng.integers(1, 6)
            theta = rng.gamma(1.0, 1.0, k) + 0.1
            beta = rng.gamma(1.0, 1.0, (k, v)) + 0.1
            eta = rng.standard_normal((k, v))
            x = float(rng.standard_normal())
            w = float(rng.uniform(0.5, 2.0))
            a = tbip_rate(theta, beta, eta, x, w)
            b = tbip_rate(theta, beta, -eta, -x, w)
            assert np.array_equal(a, b)


class TestLogLikelihoodDoc:
    def test_all_zero_counts(self):
        lam = np.array([0.5, 1.5, 2.0])
        assert np.isclose(log_likelihood_doc(np.zeros(3), lam), -lam.sum())

    def test_unit_count_unit_rate(self):
        assert np.isclose(log_likelihood_doc(np.ones(1), np.ones(1)), -1.0)

    def test_matches_independent_pmf(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.integers(1, 9)
            y = rng.integers(0, 6, v).astype(float)
            lam = rng.uniform(0.1, 4.0, v)
            mine = log_likelihood_doc(y, lam)
            oracle = poisson.logpmf(y, lam).sum()
            assert abs(mine - oracle) <= 1e-12 * max(1.0, abs(oracle))


def _tiny_corpus(rng, num_docs=8, num_terms=6, num_authors=3):
    dense = rng.poisson(2.0, size=(num_docs, num_terms)).astype(float)
    dense[:, 0] += 1
    return SparseCorpus(sp.csr_matrix(dense), np.arange(num_docs) % num_authors,
                        [f"a{i}" for i in range(num_authors)])


def _assert_close_rel(got, expected, rtol=1e-12, magnitude=None):
    """Agreement relative to the largest magnitude of the expected array.

    `magnitude`, when given, is per entry the sum of |terms| that the
    expected entry adds up; an entry whose terms cancel may then differ by
    rtol times that sum.
    """
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    bound = np.max(np.abs(expected))
    if magnitude is not None:
        bound = np.maximum(bound, magnitude)
    assert np.all(np.abs(got - expected) <= rtol * bound)


def _check_both_layouts(corpus, dense, weights, samples, doc_idx):
    """Value and every gradient of both layouts within 1e-12 of the loop
    oracle: the value relative to itself, each gradient entry relative to
    the larger of the gradient's largest entry and the entry's own terms."""
    doc_idx = np.asarray(doc_idx)
    exp_value, exp_grads, mags = tbip_loglik(dense, corpus.author_of, weights, samples,
                                             doc_idx, magnitudes=True)
    # theta and beta gradients are with respect to their logs: the oracle's
    # sample-space gradient times the sample.
    for name in ("theta", "beta"):
        exp_grads[name] = exp_grads[name] * samples[name]
        mags[name] = mags[name] * samples[name]
    # Both layouts: the corpus read as dense rows, and as one block per
    # author over the terms its batch documents use.
    for dense_share in (0.0, np.inf):
        with mock.patch.object(tbip, "_DENSE_SHARE", dense_share):
            model = TBIPModel(corpus, weights)
            assert (model._dense is None) == (dense_share == np.inf)
            value, grads = model.loglik(samples, doc_idx)
            _assert_close_rel(value, exp_value)
            assert set(grads) == set(exp_grads)
            for name in exp_grads:
                _assert_close_rel(grads[name], exp_grads[name], magnitude=mags[name])


class TestLoglikMatchesLoopOracle:
    """The structured kernel (mass from per-author sums over vocabulary
    tiles, y / lambda over each author's used columns) against the
    one-mask-per-author loop."""

    def _setup(self, seed, empty_doc=None, num_docs=12, num_terms=9, k=3,
               num_authors=4, dense_of=None):
        """`dense_of(rng, author_of)`, when given, draws the count matrix."""
        rng = np.random.default_rng(seed)
        dense = rng.poisson(1.5, size=(num_docs, num_terms)).astype(float)
        if empty_doc is not None:
            dense[empty_doc] = 0.0
        author_of = rng.permutation(np.arange(num_docs) % num_authors)
        if dense_of is not None:
            dense = dense_of(rng, author_of)
        corpus = SparseCorpus(sp.csr_matrix(dense), author_of,
                              [f"a{i}" for i in range(num_authors)])
        samples = {
            "theta": rng.gamma(1.0, 1.0, (num_docs, k)) + 0.05,
            "beta": rng.gamma(1.0, 1.0, (k, num_terms)) + 0.05,
            "eta": rng.normal(0.0, 0.7, (k, num_terms)),
            "x": rng.normal(0.0, 1.0, num_authors),
        }
        weights = compute_weights(corpus)
        return corpus, dense, weights, samples

    _check = staticmethod(_check_both_layouts)

    def test_single_author_batch(self):
        corpus, dense, weights, samples = self._setup(0)
        docs = np.flatnonzero(corpus.author_of == 2)[::-1]
        self._check(corpus, dense, weights, samples, docs)

    def test_all_distinct_authors(self):
        corpus, dense, weights, samples = self._setup(1)
        docs = [int(np.flatnonzero(corpus.author_of == a)[0]) for a in (3, 0, 2, 1)]
        self._check(corpus, dense, weights, samples, docs)

    def test_one_author_holds_most_of_the_batch(self):
        """One author dominates the batch and the others have one document
        each: the dense layout's per-author pass sees rows of very unequal
        counts."""
        corpus, dense, weights, samples = self._setup(13, num_docs=60, num_authors=5)
        big = np.flatnonzero(corpus.author_of == 3)
        others = [int(np.flatnonzero(corpus.author_of == a)[0]) for a in (0, 1, 2, 4)]
        docs = np.random.default_rng(14).permutation(np.concatenate([big, others]))
        assert big.size > 2 * len(others)
        self._check(corpus, dense, weights, samples, docs)

    def test_one_document_batch(self):
        corpus, dense, weights, samples = self._setup(15)
        self._check(corpus, dense, weights, samples, [7])

    def test_repeated_authors_in_batch_order(self):
        corpus, dense, weights, samples = self._setup(2, num_docs=80)
        docs = np.random.default_rng(3).permutation(corpus.num_docs)[:60]
        assert np.unique(corpus.author_of[docs]).size < docs.size
        self._check(corpus, dense, weights, samples, docs)

    def test_document_without_nonzeros(self):
        corpus, dense, weights, samples = self._setup(4, empty_doc=5)
        assert corpus.counts.getrow(5).nnz == 0
        self._check(corpus, dense, weights, samples, [5, 0, 7, 3, 11])
        self._check(corpus, dense, weights, samples, [5])

    @pytest.mark.parametrize("tile_cells, k", [(1, 3), (40, 3), (28, 1)])
    def test_several_vocabulary_tiles(self, monkeypatch, tile_cells, k):
        monkeypatch.setattr(tbip, "_TILE_CELLS", tile_cells)
        corpus, dense, weights, samples = self._setup(6, empty_doc=3, num_docs=30,
                                                      num_terms=23, k=k)
        docs = np.random.default_rng(7).permutation(corpus.num_docs)[:20]
        authors = np.unique(corpus.author_of[docs]).size
        # Each topic's tiles span floor(_TILE_CELLS / G) = 1, 10 and 7 of the
        # 23 terms (G = 4): more than one tile per topic, the last one ragged
        # above span 1.
        span = max(1, tile_cells // authors)
        assert 1 < -(-corpus.num_terms // span)
        assert span == 1 or corpus.num_terms % span
        self._check(corpus, dense, weights, samples, docs)

    def test_authors_with_disjoint_columns(self):
        def disjoint(rng, author_of):
            dense = np.zeros((author_of.size, 12))
            for d, a in enumerate(author_of):
                dense[d, 4 * a : 4 * a + 4] = rng.poisson(1.5, 4) + (d % 2)
            return dense

        corpus, dense, weights, samples = self._setup(8, num_docs=15, num_terms=12,
                                                      num_authors=3, dense_of=disjoint)
        self._check(corpus, dense, weights, samples, np.arange(corpus.num_docs)[::-1])

    def test_fully_dense_batch(self):
        corpus, dense, weights, samples = self._setup(
            9, num_docs=20, num_terms=15,
            dense_of=lambda rng, author_of: rng.poisson(2.0, (author_of.size, 15)) + 1.0)
        assert corpus.counts.nnz == corpus.num_docs * corpus.num_terms
        self._check(corpus, dense, weights, samples, np.arange(corpus.num_docs))

    def test_single_topic(self):
        corpus, dense, weights, samples = self._setup(10, empty_doc=0, num_docs=20, k=1)
        self._check(corpus, dense, weights, samples, [0, 4, 9, 2, 13, 7, 18])


def _mass_sums_oracle(beta, eta, x, c, magnitudes=False):
    """`tbip._mass_sums` from the full K x G x V block exp(x_a eta) and
    einsum. With `magnitudes`, each entry is instead the sum of |terms|
    that the entry adds up."""
    f = np.abs if magnitudes else np.asarray
    e = np.exp(np.einsum("g,kv->kgv", x, eta))
    sums = np.stack([np.einsum("kv,kgv->kg", f(beta * w), e) for w in (1.0, eta)], axis=2)
    mass = np.stack([np.einsum("kg,kgv->kv", f(c * w), e) for w in (1.0, x)])
    return sums, mass


class TestMassSums:
    """The sparse layout's mass, one topic x span tile at a time, against
    the whole block at once, within 1e-13 of each entry's sum of |terms|."""

    @pytest.mark.parametrize("k, g, v, tile_cells, tiles", [
        (3, 5, 23, 20, 6),  # spans of 4 terms, the last one 3
        (2, 6, 9, 4, 9),  # _TILE_CELLS below G: spans of one term
        (4, 7, 50, None, 1),  # V within one span
        (2, 99, 3000, None, 3),  # the real constant: spans of 1323, the last 354
        (1, 1, 17, 5, 4),  # one topic and one author
        (1, 1, 17, None, 1),
    ])
    def test_matches_einsum_oracle(self, monkeypatch, k, g, v, tile_cells, tiles):
        if tile_cells is not None:
            monkeypatch.setattr(tbip, "_TILE_CELLS", tile_cells)
        assert -(-v // max(1, min(v, tbip._TILE_CELLS // g))) == tiles
        rng = np.random.default_rng(k * 1000 + g * 10 + v)
        beta = rng.gamma(1.0, 1.0, (k, v)) + 0.05
        eta = rng.normal(0.0, 0.7, (k, v))
        x = rng.normal(0.0, 1.0, g)
        c = rng.gamma(1.0, 1.0, (k, g))
        sums, mass = tbip._mass_sums(beta, eta, x, c)
        for got, expected, magnitude in zip(
                (sums, mass), _mass_sums_oracle(beta, eta, x, c),
                _mass_sums_oracle(beta, eta, x, c, magnitudes=True)):
            assert got.shape == expected.shape
            assert np.all(np.abs(got - expected) <= 1e-13 * magnitude)


@st.composite
def _loglik_cases(draw):
    """A small corpus on either side of _DENSE_SHARE, possibly skewed to one
    author and with empty documents, plus samples, weights, a batch (at
    times from one author only) and a vocabulary tile size."""
    num_docs = draw(st.integers(1, 16))
    num_terms = draw(st.integers(1, 12))
    num_authors = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
    # The share of documents that go to author 0; the rest are uniform.
    skew = draw(st.sampled_from([0.0, 0.6, 0.95]))
    empty = draw(st.lists(st.integers(0, num_docs - 1), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    author_of = np.where(rng.random(num_docs) < skew, 0, rng.integers(0, num_authors, num_docs))
    dense = rng.poisson(1.5, (num_docs, num_terms)) + 1.0
    dense[rng.random((num_docs, num_terms)) >= density] = 0.0
    dense[empty] = 0.0
    corpus = SparseCorpus(sp.csr_matrix(dense), author_of,
                          [f"a{i}" for i in range(num_authors)])
    pool = np.arange(num_docs)
    if draw(st.booleans()):
        pool = np.flatnonzero(author_of == author_of[0])
    batch = rng.permutation(pool)[: draw(st.integers(1, pool.size))]
    samples = {
        "theta": rng.gamma(1.0, 1.0, (num_docs, k)) + 0.05,
        "beta": rng.gamma(1.0, 1.0, (k, num_terms)) + 0.05,
        "eta": rng.normal(0.0, 0.7, (k, num_terms)),
        "x": rng.normal(0.0, 1.0, num_authors),
    }
    weights = rng.uniform(0.5, 2.0, num_authors)
    tile_cells = draw(st.sampled_from([1, 5, 24, tbip._TILE_CELLS]))
    return corpus, dense, weights, samples, batch, tile_cells


def _cancelling_case():
    """A drawn case whose theta gradient cancels: one document and one topic
    over 11 terms with counts 3 and 4. w (sum_v (y / lam) basis - r) is
    -1.3e-4 from terms of order 1, so rounding in either layout reads as
    6e-12 to 1e-11 relative to the gradient itself."""
    rng = np.random.default_rng(2027)
    author_of = rng.integers(0, 1, 1)
    dense = rng.poisson(1.5, (1, 11)) + 1.0
    dense[rng.random((1, 11)) >= 0.15] = 0.0
    corpus = SparseCorpus(sp.csr_matrix(dense), author_of, ["a0"])
    samples = {
        "theta": rng.gamma(1.0, 1.0, (1, 1)) + 0.05,
        "beta": rng.gamma(1.0, 1.0, (1, 11)) + 0.05,
        "eta": rng.normal(0.0, 0.7, (1, 11)),
        "x": rng.normal(0.0, 1.0, 1),
    }
    weights = rng.uniform(0.5, 2.0, 1)
    return corpus, dense, weights, samples, np.array([0]), tbip._TILE_CELLS


def test_pinned_case_cancels():
    """The explicit example below is the cancellation it stands for."""
    corpus, dense, weights, samples, batch, _ = _cancelling_case()
    assert sorted(dense[dense > 0]) == [3.0, 4.0]
    _, grads, mags = tbip_loglik(dense, corpus.author_of, weights, samples, batch,
                                 magnitudes=True)
    assert abs(grads["theta"][0, 0]) < 1e-3 * mags["theta"][0, 0]


@settings(max_examples=150, deadline=None)
@given(case=_loglik_cases())
@example(case=_cancelling_case())
def test_both_layouts_match_loop_oracle_on_drawn_corpora(case):
    corpus, dense, weights, samples, batch, tile_cells = case
    # The layout the corpus's own density picks, then both of them.
    sparse = corpus.counts.nnz < tbip._DENSE_SHARE * corpus.num_docs * corpus.num_terms
    assert (TBIPModel(corpus, weights)._dense is None) == sparse
    with mock.patch.object(tbip, "_TILE_CELLS", tile_cells):
        _check_both_layouts(corpus, dense, weights, samples, batch)


def test_loglik_peak_memory_below_dense_batch():
    """One call with gradients on a 1%-dense batch allocates less than the
    B x V dense count batch the author-grouped dense kernel needed."""
    rng = np.random.default_rng(11)
    num_docs, num_terms, k, num_authors = 256, 20_000, 20, 60
    counts = sp.random(num_docs, num_terms, density=0.01, format="csr", random_state=rng)
    counts.data = rng.poisson(1.0, counts.nnz) + 1.0
    corpus = SparseCorpus(counts, np.arange(num_docs) % num_authors,
                          [f"a{i}" for i in range(num_authors)])
    samples = {
        "theta": rng.gamma(1.0, 1.0, (num_docs, k)) + 0.05,
        "beta": rng.gamma(1.0, 1.0, (k, num_terms)) + 0.05,
        "eta": rng.normal(0.0, 0.3, (k, num_terms)),
        "x": rng.normal(0.0, 1.0, num_authors),
    }
    model = TBIPModel(corpus, compute_weights(corpus))
    tracemalloc.start()
    try:
        model.loglik(samples, np.arange(num_docs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < num_docs * num_terms * 8


def test_dense_loglik_peak_memory_on_skewed_batch():
    """A dense batch where one author holds 200 documents and 40 others
    one each: one call with gradients allocates a few B x V blocks, not
    one per author sized by the largest."""
    rng = np.random.default_rng(12)
    num_terms, k, num_authors = 400, 5, 41
    author_of = np.concatenate([np.zeros(200, dtype=int), np.arange(1, num_authors)])
    counts = sp.csr_matrix(rng.poisson(1.0, (author_of.size, num_terms)) + 0.0)
    corpus = SparseCorpus(counts, author_of, [f"a{i}" for i in range(num_authors)])
    samples = {
        "theta": rng.gamma(1.0, 1.0, (corpus.num_docs, k)) + 0.05,
        "beta": rng.gamma(1.0, 1.0, (k, num_terms)) + 0.05,
        "eta": rng.normal(0.0, 0.3, (k, num_terms)),
        "x": rng.normal(0.0, 1.0, num_authors),
    }
    model = TBIPModel(corpus, compute_weights(corpus))
    assert model._dense is not None
    batch = rng.permutation(corpus.num_docs)
    tracemalloc.start()
    try:
        model.loglik(samples, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * batch.size * num_terms * 8


class TestCountLayout:
    """The dense copy of the counts: kept for dense corpora only, exactly
    the D x V counts, and read-only."""

    def test_sparse_corpus_keeps_no_dense_copy(self):
        rng = np.random.default_rng(16)
        counts = sp.random(200, 500, density=0.03, format="csr", random_state=rng)
        counts.data = rng.poisson(1.0, counts.nnz) + 1.0
        corpus = SparseCorpus(counts, np.arange(200) % 20, [f"a{i}" for i in range(20)])
        assert corpus.counts.nnz < tbip._DENSE_SHARE * 200 * 500
        assert TBIPModel(corpus, compute_weights(corpus))._dense is None

    def test_dense_copy_is_exactly_the_read_only_counts(self):
        corpus = _tiny_corpus(np.random.default_rng(17), num_docs=12)
        cfg = TrainConfig(k=2, batch_size=5, max_steps=30, seed=3, lr=0.05,
                          elbo_report_interval=10, pretrain_sweeps=5)
        with mock.patch.object(engine, "fit", wraps=engine.fit) as fit:
            train_tbip(corpus, cfg)
        copy = fit.call_args.args[1]._dense
        assert not copy.flags.writeable
        assert np.array_equal(copy, corpus.counts.toarray())

    def test_dense_fit_matches_forced_sparse_fit(self):
        spec = SynthSpec(num_docs=1000, num_terms=300, num_authors=20, num_topics=5, seed=0)
        corpus, _ = sample_tbip(spec)
        assert corpus.counts.nnz >= tbip._DENSE_SHARE * corpus.num_docs * corpus.num_terms
        cfg = TrainConfig(k=5, batch_size=512, max_steps=200, seed=0, lr=0.01,
                          elbo_report_interval=100, pretrain_sweeps=10)
        dense_fit = train_tbip(corpus, cfg)
        with mock.patch.object(tbip, "_DENSE_SHARE", np.inf):
            sparse_fit = train_tbip(corpus, cfg)
        _assert_close_rel(dense_fit.x_hat, sparse_fit.x_hat, rtol=1e-9)


class TestPinnedTiltMatchesFactorization:
    def test_elbo_decomposes_into_factorization_part(self):
        """With the tilt and position factors pinned at zero location and
        vanishing scale, the objective equals a Poisson-factorization
        objective for the same draw plus the pinned factors' own terms."""
        rng = np.random.default_rng(3)
        corpus = _tiny_corpus(rng)
        priors = PriorConfig(a=0.4, b=0.6)
        theta0 = rng.gamma(1.0, 1.0, (corpus.num_docs, 2)) + 0.2
        beta0 = rng.gamma(1.0, 1.0, (2, corpus.num_terms)) + 0.2
        state = make_state(corpus, 2, theta0, beta0, priors, rng)
        pin = 1e-13
        params = state.parameters()
        for name in ("eta", "x"):
            params[f"{name}.mu"][:] = 0.0
            params[f"{name}.log_sigma"][:] = math.log(pin)
        weights = compute_weights(corpus)
        model = TBIPModel(corpus, weights)
        noise = state.sample_noise(rng)
        batch = np.arange(corpus.num_docs)
        full = engine.elbo_estimate(state, batch, model, corpus.num_docs, noise)

        draws = factor_draws(state, noise)
        pinned_terms = sum(draws[name].log_prior - draws[name].log_q for name in ("eta", "x"))
        theta, beta = draws["theta"].sample, draws["beta"].sample
        rates = weights[corpus.author_of][:, None] * (theta @ beta)
        dense = corpus.counts[batch].toarray()
        from scipy.special import gammaln

        pf_lik = float(np.sum(dense * np.log(rates) - rates - gammaln(dense + 1.0)))
        pf_part = sum(draws[name].log_prior - draws[name].log_q
                      for name in ("theta", "beta")) + pf_lik
        # rates with a vanishing tilt agree to float precision, not bitwise
        assert np.isclose(full, pf_part + pinned_terms, rtol=1e-9)


class TestTrain:
    def test_bitwise_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        corpus = _tiny_corpus(rng)
        cfg = TrainConfig(k=2, batch_size=4, max_steps=60, seed=7, lr=0.05,
                          elbo_report_interval=10, pretrain_sweeps=10)
        fit1 = train_tbip(corpus, cfg)
        fit2 = train_tbip(corpus, cfg)
        assert fit1.elbo_trace == fit2.elbo_trace
        assert np.array_equal(fit1.x_hat, fit2.x_hat)
        assert np.array_equal(fit1.theta_hat, fit2.theta_hat)

    def test_outputs_positive_and_finite(self):
        rng = np.random.default_rng(5)
        corpus = _tiny_corpus(rng)
        cfg = TrainConfig(k=2, batch_size=8, max_steps=40, seed=0, lr=0.05,
                          elbo_report_interval=20, pretrain_sweeps=10)
        fit = train_tbip(corpus, cfg)
        assert np.all(fit.theta_hat > 0) and np.all(fit.beta_hat > 0)
        assert np.all(np.isfinite(fit.x_hat)) and np.all(np.isfinite(fit.eta_hat))
        assert fit.eta_sigma is not None and np.all(fit.eta_sigma > 0)

    def test_explicit_init_respected(self):
        rng = np.random.default_rng(6)
        corpus = _tiny_corpus(rng)
        theta0 = np.full((corpus.num_docs, 2), 2.0)
        beta0 = np.full((2, corpus.num_terms), 3.0)
        cfg = TrainConfig(k=2, batch_size=8, max_steps=1, seed=0, lr=0.0,
                          elbo_report_interval=1)
        fit = train_tbip(corpus, cfg, init=(theta0, beta0))
        # lr=0: posterior means stay at the initialization (sigma=0.1)
        assert np.allclose(fit.theta_hat, 2.0 * math.exp(0.005))
        assert np.allclose(fit.beta_hat, 3.0 * math.exp(0.005))

    def test_bad_init_shapes_rejected(self):
        rng = np.random.default_rng(7)
        corpus = _tiny_corpus(rng)
        cfg = TrainConfig(k=2, batch_size=4, max_steps=5)
        with pytest.raises(ValueError):
            train_tbip(corpus, cfg, init=(np.ones((1, 2)), np.ones((2, 1))))

    def test_smoothed_trace_nondecreasing_early(self):
        spec = SynthSpec(num_docs=300, num_terms=80, num_authors=10,
                         num_topics=3, polarity_scale=1.0, seed=2)
        corpus, _ = sample_tbip(spec)
        cfg = TrainConfig(k=3, batch_size=128, max_steps=1000, seed=1, lr=0.01,
                          elbo_report_interval=1, pretrain_sweeps=30)
        fit = train_tbip(corpus, cfg)
        values = np.array([v for _, v in fit.elbo_trace])
        window = 100
        smoothed = np.convolve(values, np.ones(window) / window, mode="valid")
        drop_allowed = 0.01 * np.abs(smoothed[:-1])
        assert np.all(np.diff(smoothed) >= -drop_allowed)


class TestFitIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        fit = FitResult(
            theta_hat=rng.gamma(1, 1, (4, 2)) + 0.1,
            beta_hat=rng.gamma(1, 1, (2, 5)) + 0.1,
            eta_hat=rng.standard_normal((2, 5)),
            x_hat=rng.standard_normal(3),
            elbo_trace=[(1, -10.5), (2, -9.25)],
            config={"model": "tbip", "seed": 3},
            author_names=["a", "b", "c"],
            eta_sigma=np.full((2, 5), 0.1),
        )
        save_fit(fit, tmp_path)
        loaded = load_fit(tmp_path)
        for field in ("theta_hat", "beta_hat", "eta_hat", "x_hat", "eta_sigma"):
            assert np.array_equal(getattr(loaded, field), getattr(fit, field))
        assert loaded.elbo_trace == fit.elbo_trace
        assert loaded.author_names == fit.author_names
        assert loaded.config["seed"] == 3

    def test_result_validation(self):
        with pytest.raises(ValueError):
            FitResult(
                theta_hat=np.zeros((1, 1)),
                beta_hat=np.ones((1, 1)),
                eta_hat=np.zeros((1, 1)),
                x_hat=np.zeros(1),
                elbo_trace=[],
                config={},
            )
