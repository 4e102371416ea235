import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from _oracles import pf_objective, pf_sweep
from textideal import pf
from textideal.corpus import SparseCorpus
from textideal.synth import SynthSpec, sample_tbip


def _corpus(dense, num_authors=2):
    dense = np.asarray(dense, dtype=float)
    author_of = np.arange(dense.shape[0]) % num_authors
    return SparseCorpus(sp.csr_matrix(dense), author_of,
                        [f"a{i}" for i in range(num_authors)])


def _term_totals(corpus):
    _, cols, y = corpus.entries()
    return np.bincount(cols, weights=y, minlength=corpus.num_terms)


def _assert_matches_sweep(state, corpus, exact=False):
    """cavi_step(state) against the bincount oracle, bit for bit or to
    1e-12 relative; returns the new state."""
    rows, cols, y = corpus.entries()
    expected = pf_sweep(state, rows, cols, y, corpus.counts.shape)
    state = pf.cavi_step(state, corpus)
    got = (state.q_theta.shape, state.q_theta.rate, state.q_beta.shape, state.q_beta.rate)
    for g, e in zip(got, expected):
        if exact:
            assert np.array_equal(g, e)
        else:
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=0)
    return state


def _assert_matches_objective(state, corpus, exact=False):
    rows, cols, y = corpus.entries()
    value, expected = pf.pf_elbo(state, corpus), pf_objective(state, rows, cols, y)
    if exact:
        assert value == expected
    else:
        assert value == pytest.approx(expected, rel=1e-12, abs=0)


def _random_corpus(rng, num_docs, num_terms, lam=1.0):
    dense = rng.poisson(lam, size=(num_docs, num_terms)).astype(float)
    dense[:, 0] += 1
    return _corpus(dense)


class TestCaviStep:
    def test_responsibilities_normalized(self):
        """phi sums to 1 over topics, so each document's and each term's
        sums of y * phi add up to its total count."""
        rng = np.random.default_rng(0)
        corpus = _random_corpus(rng, 6, 9)
        state = pf.init_state(6, 9, 3, 0.3, 0.3, rng)
        doc_sums, term_sums, _ = state.phi_sums(corpus)
        assert np.all(doc_sums >= 0) and np.all(term_sums >= 0)
        np.testing.assert_allclose(doc_sums.sum(axis=1), corpus.doc_totals(), rtol=1e-12)
        np.testing.assert_allclose(term_sums.sum(axis=1), _term_totals(corpus), rtol=1e-12)

    def test_single_topic_allocates_everything(self):
        rng = np.random.default_rng(1)
        corpus = _random_corpus(rng, 5, 7)
        state = pf.init_state(5, 7, 1, 0.5, 0.5, rng)
        doc_sums, term_sums, _ = state.phi_sums(corpus)
        assert np.array_equal(doc_sums[:, 0], corpus.doc_totals())
        assert np.array_equal(term_sums[:, 0], _term_totals(corpus))
        new = pf.cavi_step(state, corpus)
        row_sums = np.asarray(corpus.counts.sum(axis=1)).ravel()
        assert np.allclose(new.q_theta.shape[:, 0], 0.5 + row_sums)

    def test_parameters_stay_above_prior(self):
        rng = np.random.default_rng(2)
        corpus = _random_corpus(rng, 8, 10)
        state = pf.init_state(8, 10, 3, 0.3, 0.4, rng)
        for _ in range(5):
            state = pf.cavi_step(state, corpus)
            assert np.all(state.q_theta.shape >= 0.3)
            assert np.all(state.q_beta.shape >= 0.3)
            assert np.all(state.q_theta.rate >= 0.4)
            assert np.all(state.q_beta.rate >= 0.4)


def _with_empty_row(rng, num_docs, num_terms, empty_row):
    dense = rng.poisson(1.0, size=(num_docs, num_terms)).astype(float)
    dense[empty_row] = 0.0
    return _corpus(dense)


class TestMatchesLoopOracle:
    """The factored sweep and objective agree with the bincount/logsumexp
    forms to 1e-12 relative, and bit for bit with one topic, with and
    without the pass cached by `pf_elbo`."""

    @pytest.mark.parametrize("num_topics", [1, 2, 5, 12])
    def test_sweeps_and_objective_bitwise(self, num_topics):
        rng = np.random.default_rng(10 + num_topics)
        corpus = _with_empty_row(rng, 30, 70, empty_row=4)
        assert corpus.counts.getrow(4).nnz == 0
        exact = num_topics == 1
        state = pf.init_state(30, 70, num_topics, 0.3, 0.4, rng)
        for sweep in range(4):
            if sweep % 2:
                # cavi_step reuses the pass pf_elbo cached on this state.
                _assert_matches_objective(state, corpus, exact)
            state = _assert_matches_sweep(state, corpus, exact)
            _assert_matches_objective(state, corpus, exact)

    @pytest.mark.parametrize("num_topics", [1, 3, 7])
    def test_many_chunks_bitwise(self, monkeypatch, num_topics):
        """Chunks of a few nonzeros: they end at empty documents, one
        document outgrows a chunk, and terms recur across chunks."""
        monkeypatch.setattr(pf, "_CHUNK_CELLS", 24)
        rng = np.random.default_rng(30 + num_topics)
        nnz_per_doc = [8, 0, 25, 3, 0, 0, 5, 12, 0, 7, 1, 0]
        dense = np.zeros((len(nnz_per_doc), 30))
        for d, n in enumerate(nnz_per_doc):
            dense[d, rng.choice(30, size=n, replace=False)] = rng.poisson(2.0, size=n) + 1
        corpus = _corpus(dense)
        indptr = corpus.counts.indptr
        step = 24 // num_topics
        chunks = list(pf._doc_chunks(indptr, num_topics))
        assert len(chunks) > 2
        assert [d for c in chunks for d in range(*c)] == list(range(len(nnz_per_doc)))
        assert any(indptr[d1] - indptr[d0] > step for d0, d1 in chunks)
        assert any(indptr[d1] == indptr[d1 - 1] for _, d1 in chunks[:-1])

        exact = num_topics == 1
        state = pf.init_state(*dense.shape, num_topics, 0.3, 0.4, rng)
        for _ in range(3):
            _assert_matches_objective(state, corpus, exact)
            state = _assert_matches_sweep(state, corpus, exact)

    @pytest.mark.parametrize("theta_shapes", [[1.3, 1.3, 1.3], [1.3, 0.8, 1.3]])
    def test_tied_maximal_scores(self, theta_shapes):
        """Topics with equal factors tie at the maximum score on every
        nonzero, all of them or two out of three: tied topics receive equal
        sums, and every count is allocated."""
        rng = np.random.default_rng(20)
        corpus = _random_corpus(rng, 5, 6)
        state = pf.PFState(
            pf.GammaFamily(np.tile(theta_shapes, (5, 1)), np.full((5, 3), 0.7)),
            pf.GammaFamily(np.full((3, 6), 0.9), np.full((3, 6), 1.1)),
            0.3,
            0.3,
        )
        doc_sums, term_sums, _ = state.phi_sums(corpus)
        tied = [k for k in range(3) if theta_shapes[k] == theta_shapes[0]]
        for sums in (doc_sums, term_sums):
            assert all(np.array_equal(sums[:, k], sums[:, tied[0]]) for k in tied)
        np.testing.assert_allclose(doc_sums.sum(axis=1), corpus.doc_totals(), rtol=1e-12)
        np.testing.assert_allclose(term_sums.sum(axis=1), _term_totals(corpus), rtol=1e-12)
        _assert_matches_objective(state, corpus)
        _assert_matches_sweep(state, corpus)

    def test_pretrain_matches_oracle_sweeps(self):
        rng = np.random.default_rng(21)
        corpus = _with_empty_row(rng, 12, 10, empty_row=0)
        rows, cols, y = corpus.entries()
        theta, beta = pf.pretrain(corpus, 3, a=0.3, b=0.3, sweeps=6, seed=5, tol=0.0)
        state = pf.init_state(12, 10, 3, 0.3, 0.3, np.random.default_rng(5))
        for _ in range(6):
            ts, tr, bs, br = pf_sweep(state, rows, cols, y, corpus.counts.shape)
            state = pf.PFState(pf.GammaFamily(ts, tr), pf.GammaFamily(bs, br), 0.3, 0.3)
        np.testing.assert_allclose(theta, state.q_theta.mean(), rtol=1e-12, atol=0)
        np.testing.assert_allclose(beta, state.q_beta.mean(), rtol=1e-12, atol=0)

    def test_underflowing_normalizer(self):
        """Topic 0 dominates document 0 and topic 1 dominates term 0, each
        by about 1000 nats, so at nonzero (0, 0) every topic's product of
        shifted factors underflows and the factored normalizer is 0. That
        nonzero takes the exact fallback; the other three do not."""
        corpus = _corpus([[3.0, 2.0], [1.0, 4.0]])
        state = pf.PFState(
            pf.GammaFamily(np.array([[1e3, 1e-3], [1.0, 1.0]]), np.ones((2, 2))),
            pf.GammaFamily(np.array([[1e-3, 1.0], [1e3, 1.0]]), np.ones((2, 2))),
            0.3,
            0.3,
        )
        elog_theta, elog_beta = state.expected_logs()
        shifted = (elog_theta[0] - elog_theta[0].max()) + (elog_beta[:, 0] - elog_beta[:, 0].max())
        assert np.all(np.exp(shifted) == 0.0)
        for out in state.phi_sums(corpus):
            assert np.all(np.isfinite(out))
        _assert_matches_objective(state, corpus)
        _assert_matches_sweep(state, corpus)

    @settings(max_examples=400, deadline=None)
    @given(
        num_docs=st.integers(1, 7),
        num_terms=st.integers(1, 7),
        num_topics=st.integers(1, 12),
        chunk_cells=st.sampled_from([24, 60, 1 << 17]),
        log_shapes=st.tuples(st.floats(math.log(0.3), math.log(1e6)),
                             st.floats(math.log(0.3), math.log(1e6))),
        prior_shape=st.sampled_from([1e-8, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_states_match_oracles(self, num_docs, num_terms, num_topics, chunk_cells,
                                         log_shapes, prior_shape, seed):
        """Small corpora with empty documents and terms, Gamma shapes
        log-uniform over a drawn part of [0.3, 1e6], chunks from a few
        nonzeros up. A small prior shape leaves the sums visible in the
        compared shapes."""
        rng = np.random.default_rng(seed)
        dense = rng.poisson(2.0, size=(num_docs, num_terms)) * (rng.uniform(size=(num_docs, num_terms)) < 0.5)
        corpus = _corpus(dense)
        lo, hi = sorted(log_shapes)

        def family(shape):
            return pf.GammaFamily(np.exp(rng.uniform(lo, hi, shape)),
                                  np.exp(rng.uniform(math.log(0.3), math.log(10.0), shape)))

        state = pf.PFState(family((num_docs, num_topics)), family((num_topics, num_terms)),
                           prior_shape, 0.3)
        with mock.patch.object(pf, "_CHUNK_CELLS", chunk_cells):
            _assert_matches_objective(state, corpus)
            _assert_matches_sweep(state, corpus)


class TestMemory:
    def test_sweep_and_objective_peak_stays_below_nnz_by_k(self):
        """No nnz x K array is built: the traced peak of a sweep and an
        objective stays below a quarter of one."""
        rng = np.random.default_rng(8)
        corpus = _corpus(rng.poisson(0.7, size=(400, 1000)))
        num_topics = 32
        phi_bytes = corpus.counts.nnz * num_topics * 8
        assert phi_bytes >= 16 * pf._CHUNK_CELLS * 8
        state = pf.init_state(400, 1000, num_topics, 0.3, 0.3, rng)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pf.pf_elbo(pf.cavi_step(state, corpus), corpus)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < phi_bytes / 4


class TestElbo:
    def test_nondecreasing_over_sweeps(self):
        rng = np.random.default_rng(3)
        corpus = _random_corpus(rng, 5, 8, lam=2.0)
        state = pf.init_state(5, 8, 2, 0.3, 0.3, rng)
        prev = pf.pf_elbo(state, corpus)
        for _ in range(50):
            state = pf.cavi_step(state, corpus)
            value = pf.pf_elbo(state, corpus)
            assert value >= prev - 1e-9 * abs(prev)
            prev = value

    def test_topic_permutation_invariance(self):
        rng = np.random.default_rng(4)
        corpus = _random_corpus(rng, 6, 7)
        state = pf.init_state(6, 7, 3, 0.3, 0.3, rng)
        state = pf.cavi_step(state, corpus)
        perm = [2, 0, 1]
        permuted = pf.PFState(
            pf.GammaFamily(state.q_theta.shape[:, perm], state.q_theta.rate[:, perm]),
            pf.GammaFamily(state.q_beta.shape[perm], state.q_beta.rate[perm]),
            state.prior_shape,
            state.prior_rate,
        )
        assert np.isclose(pf.pf_elbo(state, corpus), pf.pf_elbo(permuted, corpus))

    def test_matches_quadrature_on_zero_count_instance(self):
        """1x1 matrix, no counts, a=b=1: the objective decomposes into
        Gamma expectations checkable by direct numeric integration."""
        corpus = SparseCorpus(sp.csr_matrix(np.zeros((1, 1))), [0], ["a"])
        state = pf.PFState(
            pf.GammaFamily(np.array([[1.7]]), np.array([[0.9]])),
            pf.GammaFamily(np.array([[2.3]]), np.array([[1.4]])),
            1.0,
            1.0,
        )
        value = pf.pf_elbo(state, corpus)
        oracle = _quad_block(1.7, 0.9, 1.0, 1.0) + _quad_block(2.3, 1.4, 1.0, 1.0)
        oracle -= (1.7 / 0.9) * (2.3 / 1.4)
        assert np.isclose(value, oracle, rtol=1e-9)

    def test_matches_quadrature_with_counts(self):
        corpus = SparseCorpus(sp.csr_matrix(np.array([[3.0]])), [0], ["a"])
        a, b = 0.8, 1.1
        state = pf.PFState(
            pf.GammaFamily(np.array([[2.1]]), np.array([[1.3]])),
            pf.GammaFamily(np.array([[0.9]]), np.array([[0.7]])),
            a,
            b,
        )
        value = pf.pf_elbo(state, corpus)
        e_log_theta = _quad_expect(2.1, 1.3, np.log)
        e_log_beta = _quad_expect(0.9, 0.7, np.log)
        oracle = (
            _quad_block(2.1, 1.3, a, b)
            + _quad_block(0.9, 0.7, a, b)
            + 3.0 * (e_log_theta + e_log_beta)
            - (2.1 / 1.3) * (0.9 / 0.7)
            - math.lgamma(4.0)
        )
        assert np.isclose(value, oracle, rtol=1e-9)


def _quad_expect(shape, rate, fn):
    dist = gamma_dist(shape, scale=1.0 / rate)
    val, _ = quad(lambda t: fn(t) * dist.pdf(t), 0, np.inf)
    return val


def _quad_block(shape, rate, a, b):
    """E_q[log p(theta)] + H(q) for one Gamma factor, by integration."""
    dist = gamma_dist(shape, scale=1.0 / rate)

    def integrand(t):
        log_p = a * math.log(b) - math.lgamma(a) + (a - 1.0) * math.log(t) - b * t
        return (log_p - dist.logpdf(t)) * dist.pdf(t)

    val, _ = quad(integrand, 0, np.inf)
    return val


class TestPretrain:
    def test_outputs_positive_with_right_shapes(self):
        rng = np.random.default_rng(5)
        corpus = _random_corpus(rng, 12, 9)
        theta, beta = pf.pretrain(corpus, 4, a=0.3, b=0.3, sweeps=20, seed=0)
        assert theta.shape == (12, 4) and beta.shape == (4, 9)
        assert np.all(theta > 0) and np.all(beta > 0)

    def test_recovers_rates_from_factorized_counts(self):
        spec = SynthSpec(num_docs=200, num_terms=50, num_authors=10,
                         num_topics=3, polarity_scale=0.0, seed=1)
        corpus, truth = sample_tbip(spec)
        theta, beta = pf.pretrain(corpus, 3, a=0.3, b=0.3, sweeps=200, seed=0)
        est = (theta @ beta).ravel()
        true = (truth.theta @ truth.beta).ravel()
        assert np.corrcoef(est, true)[0, 1] > 0.9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        corpus = _random_corpus(rng, 10, 8)
        t1, b1 = pf.pretrain(corpus, 3, a=0.3, b=0.3, sweeps=15, seed=42)
        t2, b2 = pf.pretrain(corpus, 3, a=0.3, b=0.3, sweeps=15, seed=42)
        assert np.array_equal(t1, t2) and np.array_equal(b1, b2)

    @pytest.mark.parametrize("sweeps", [1, 2, 5])
    def test_one_phi_pass_per_sweep(self, monkeypatch, sweeps):
        """The objective is not evaluated after the last sweep: each sweep
        reads the pass its predecessor's objective cached, and the first
        reads the initial state's."""
        rng = np.random.default_rng(8)
        corpus = _random_corpus(rng, 10, 8)
        calls = []

        def counted(*args):
            calls.append(1)
            return phi_pass(*args)

        phi_pass = pf._phi_pass
        monkeypatch.setattr(pf, "_phi_pass", counted)
        pf.pretrain(corpus, 3, a=0.3, b=0.3, sweeps=sweeps, seed=0, tol=0.0)
        assert len(calls) == sweeps

    def test_invalid_arguments(self):
        rng = np.random.default_rng(7)
        corpus = _random_corpus(rng, 4, 4)
        with pytest.raises(ValueError):
            pf.pretrain(corpus, 0, a=0.3, b=0.3)
        with pytest.raises(ValueError):
            pf.pretrain(corpus, 2, a=0.3, b=0.3, sweeps=0)
