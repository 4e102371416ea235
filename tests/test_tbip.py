import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import poisson

from _oracles import tbip_loglik
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


def _assert_close_rel(got, expected, rtol=1e-12):
    """Agreement relative to the largest magnitude of the expected array."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


class TestLoglikMatchesLoopOracle:
    """The author-grouped kernel against the one-mask-per-author loop."""

    def _setup(self, seed, empty_doc=None, num_docs=12):
        rng = np.random.default_rng(seed)
        num_terms, num_authors, k = 9, 4, 3
        dense = rng.poisson(1.5, size=(num_docs, num_terms)).astype(float)
        if empty_doc is not None:
            dense[empty_doc] = 0.0
        author_of = rng.permutation(np.arange(num_docs) % num_authors)
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

    def _check(self, corpus, dense, weights, samples, doc_idx):
        doc_idx = np.asarray(doc_idx)
        model = TBIPModel(corpus, weights)
        value, grads = model.loglik(samples, doc_idx, want_grads=True)
        exp_value, exp_grads = tbip_loglik(dense, corpus.author_of, weights, samples,
                                           doc_idx, want_grads=True)
        _assert_close_rel(value, exp_value)
        assert set(grads) == set(exp_grads)
        for name in exp_grads:
            _assert_close_rel(grads[name], exp_grads[name])
        value_only, none = model.loglik(samples, doc_idx, want_grads=False)
        assert none is None
        assert value_only == value

    def test_single_author_batch(self):
        corpus, dense, weights, samples = self._setup(0)
        docs = np.flatnonzero(corpus.author_of == 2)[::-1]
        self._check(corpus, dense, weights, samples, docs)

    def test_all_distinct_authors(self):
        corpus, dense, weights, samples = self._setup(1)
        docs = [int(np.flatnonzero(corpus.author_of == a)[0]) for a in (3, 0, 2, 1)]
        self._check(corpus, dense, weights, samples, docs)

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

    def test_value_only_matches_oracle(self):
        corpus, dense, weights, samples = self._setup(5)
        docs = np.arange(corpus.num_docs)
        value, grads = TBIPModel(corpus, weights).loglik(samples, docs, want_grads=False)
        assert grads is None
        _assert_close_rel(value, tbip_loglik(dense, corpus.author_of, weights, samples,
                                             docs)[0])


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
        for name in ("eta", "x"):
            state.families[name].mu[:] = 0.0
            state.families[name].log_sigma[:] = math.log(pin)
        weights = compute_weights(corpus)
        model = TBIPModel(corpus, weights)
        noise = state.sample_noise(rng)
        batch = np.arange(corpus.num_docs)
        full = engine.elbo_estimate(state, batch, model, corpus.num_docs, noise)

        samples = state.reparameterize(noise)
        pinned_terms = 0.0
        for name in ("eta", "x"):
            fam = state.families[name]
            pinned_terms += state.priors[name].log_prob(samples[name])
            pinned_terms -= fam.log_density(samples[name])

        theta, beta = samples["theta"], samples["beta"]
        rates = weights[corpus.author_of][:, None] * (theta @ beta)
        dense = corpus.dense_rows(batch)
        from scipy.special import gammaln

        pf_lik = float(np.sum(dense * np.log(rates) - rates - gammaln(dense + 1.0)))
        pf_part = (
            state.priors["theta"].log_prob(theta)
            + state.priors["beta"].log_prob(beta)
            - state.families["theta"].log_density(theta)
            - state.families["beta"].log_density(beta)
            + pf_lik
        )
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
