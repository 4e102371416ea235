import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from _oracles import pf_objective, pf_phi, pf_sweep
from textideal import pf
from textideal.corpus import SparseCorpus
from textideal.synth import SynthSpec, sample_tbip


def _corpus(dense, num_authors=2):
    dense = np.asarray(dense, dtype=float)
    author_of = np.arange(dense.shape[0]) % num_authors
    return SparseCorpus(sp.csr_matrix(dense), author_of,
                        [f"a{i}" for i in range(num_authors)])


def _phi(state, corpus):
    """phi over every stored nonzero, from the chunk-level kernel."""
    rows, cols, _ = corpus.entries()
    elog_theta, elog_beta = state.expected_logs()
    phi, _ = pf._chunk_phi(elog_theta, np.ascontiguousarray(elog_beta.T), rows, cols)
    return phi


def _random_corpus(rng, num_docs, num_terms, lam=1.0):
    dense = rng.poisson(lam, size=(num_docs, num_terms)).astype(float)
    dense[:, 0] += 1
    return _corpus(dense)


class TestCaviStep:
    def test_responsibilities_normalized(self):
        rng = np.random.default_rng(0)
        corpus = _random_corpus(rng, 6, 9)
        state = pf.init_state(6, 9, 3, 0.3, 0.3, rng)
        rows, cols, _ = corpus.entries()
        phi = _phi(state, corpus)
        assert np.allclose(phi.sum(axis=1), 1.0)
        assert np.all(phi >= 0)
        assert np.array_equal(phi, pf_phi(state, rows, cols))

    def test_single_topic_allocates_everything(self):
        rng = np.random.default_rng(1)
        corpus = _random_corpus(rng, 5, 7)
        state = pf.init_state(5, 7, 1, 0.5, 0.5, rng)
        phi = _phi(state, corpus)
        assert np.array_equal(phi, np.ones_like(phi))
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
    """The chunked sweep and objective equal the bincount/logsumexp forms
    bit for bit, with and without the pass cached by `pf_elbo`."""

    @pytest.mark.parametrize("num_topics", [1, 2, 5, 12])
    def test_sweeps_and_objective_bitwise(self, num_topics):
        rng = np.random.default_rng(10 + num_topics)
        corpus = _with_empty_row(rng, 30, 70, empty_row=4)
        assert corpus.counts.getrow(4).nnz == 0
        rows, cols, y = corpus.entries()
        state = pf.init_state(30, 70, num_topics, 0.3, 0.4, rng)
        for sweep in range(4):
            if sweep % 2:
                # cavi_step reuses the scores pf_elbo cached on this state.
                assert pf.pf_elbo(state, corpus) == pf_objective(state, rows, cols, y)
            expected = pf_sweep(state, rows, cols, y, corpus.counts.shape)
            state = pf.cavi_step(state, corpus)
            got = (state.q_theta.shape, state.q_theta.rate,
                   state.q_beta.shape, state.q_beta.rate)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)
            assert pf.pf_elbo(state, corpus) == pf_objective(state, rows, cols, y)

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

        rows, cols, y = corpus.entries()
        state = pf.init_state(*dense.shape, num_topics, 0.3, 0.4, rng)
        for _ in range(3):
            assert pf.pf_elbo(state, corpus) == pf_objective(state, rows, cols, y)
            expected = pf_sweep(state, rows, cols, y, dense.shape)
            state = pf.cavi_step(state, corpus)
            got = (state.q_theta.shape, state.q_theta.rate,
                   state.q_beta.shape, state.q_beta.rate)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)

    @pytest.mark.parametrize("theta_shapes", [[1.3, 1.3, 1.3], [1.3, 0.8, 1.3]])
    def test_tied_maximal_scores(self, theta_shapes):
        """Topics with equal factors tie at the maximum score on every
        nonzero, all of them or two out of three."""
        rng = np.random.default_rng(20)
        corpus = _random_corpus(rng, 5, 6)
        rows, cols, y = corpus.entries()
        state = pf.PFState(
            pf.GammaFamily(np.tile(theta_shapes, (5, 1)), np.full((5, 3), 0.7)),
            pf.GammaFamily(np.full((3, 6), 0.9), np.full((3, 6), 1.1)),
            0.3,
            0.3,
        )
        assert pf.pf_elbo(state, corpus) == pf_objective(state, rows, cols, y)
        assert np.array_equal(_phi(state, corpus), pf_phi(state, rows, cols))

    def test_pretrain_matches_oracle_sweeps(self):
        rng = np.random.default_rng(21)
        corpus = _with_empty_row(rng, 12, 10, empty_row=0)
        rows, cols, y = corpus.entries()
        theta, beta = pf.pretrain(corpus, 3, a=0.3, b=0.3, sweeps=6, seed=5, tol=0.0)
        state = pf.init_state(12, 10, 3, 0.3, 0.3, np.random.default_rng(5))
        for _ in range(6):
            ts, tr, bs, br = pf_sweep(state, rows, cols, y, corpus.counts.shape)
            state = pf.PFState(pf.GammaFamily(ts, tr), pf.GammaFamily(bs, br), 0.3, 0.3)
        assert np.array_equal(theta, state.q_theta.mean())
        assert np.array_equal(beta, state.q_beta.mean())


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
