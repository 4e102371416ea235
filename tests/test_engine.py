import math

import numpy as np
import pytest

from _oracles import (
    factor_draws,
    gamma_log_prob,
    per_array_fit,
    quadrature_elbo,
    sample_space_gradient,
    tbip_loglik,
)
from textideal import engine
from textideal.engine import (
    AdamState,
    VariationalState,
    adam_step,
    elbo_estimate,
    finite_difference,
    gradient,
)
from textideal.tbip import TrainConfig

LOG_2PI = math.log(2 * math.pi)


def _state(mu, log_sigma, positive=False, gamma=(1.0, 1.0)):
    """One factor "s", lognormal under Gamma `gamma` when `positive`."""
    if positive:
        return VariationalState({"s": (mu, log_sigma)}, positive=("s",), gamma=gamma)
    return VariationalState({"s": (mu, log_sigma)})


class TestReparameterize:
    def test_gaussian_identity_case(self):
        state = _state(np.zeros(3), np.zeros(3))
        assert np.array_equal(state.draw(np.zeros(3))[0], np.zeros(3))

    def test_lognormal_at_zero_noise(self):
        state = _state(np.zeros(2), np.zeros(2), positive=True)
        u, s, _ = state.draw(np.zeros(2))
        assert np.array_equal(u, np.zeros(2))
        assert np.array_equal(s, np.ones(2))

    def test_gaussian_affine(self):
        state = _state(np.array([2.0]), np.log(np.array([0.5])))
        assert np.allclose(state.draw(np.array([2.0]))[0], [3.0])

    def test_shape_mismatch_raises(self):
        state = _state(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="noise shape"):
            state.draw(np.zeros(4))

    def test_deterministic_given_noise(self):
        rng = np.random.default_rng(0)
        state = _state(rng.standard_normal(5), rng.standard_normal(5), positive=True)
        z = rng.standard_normal(5)
        assert np.array_equal(state.draw(z)[1], state.draw(z)[1])

    def test_samples_are_exp_u_on_positive_factors_only(self):
        state = VariationalState(
            {"p": (np.zeros((2, 3)), np.zeros((2, 3))), "r": (np.zeros(4), np.zeros(4))},
            positive=("p",), gamma=(1.0, 1.0))
        z = np.random.default_rng(1).standard_normal(10)
        u, s, sigma = state.draw(z)
        assert s.shape == (6,) and np.array_equal(sigma, np.ones(10))
        samples = state.samples(u, s)
        assert np.array_equal(samples["p"], np.exp(z[:6]).reshape(2, 3))
        assert np.array_equal(samples["r"], z[6:])


class TestConstruction:
    """The input checks of `VariationalState`."""

    def test_positive_factor_must_come_first(self):
        factors = {"x": (np.zeros(2), np.zeros(2)), "s": (np.zeros(3), np.zeros(3))}
        with pytest.raises(ValueError, match="must be the first"):
            VariationalState(factors, positive=("s",), gamma=(1.0, 1.0))
        with pytest.raises(ValueError, match="must be the first"):
            VariationalState(factors, positive=("missing",), gamma=(1.0, 1.0))
        with pytest.raises(ValueError, match="must be the first"):
            VariationalState(factors, positive=("x", "x"), gamma=(1.0, 1.0))
        # Either order of the leading names is accepted.
        factors = {"a": (np.zeros(1), np.zeros(1)), "b": (np.zeros(1), np.zeros(1)),
                   "r": (np.zeros(1), np.zeros(1))}
        VariationalState(factors, positive=("b", "a"), gamma=(1.0, 1.0))

    @pytest.mark.parametrize("gamma", [None, (0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)])
    def test_positive_factor_needs_a_gamma_prior(self, gamma):
        with pytest.raises(ValueError, match="Gamma prior"):
            _state(np.zeros(2), np.zeros(2), positive=True, gamma=gamma)

    @pytest.mark.parametrize("noise", [np.zeros(7), np.zeros(5), np.zeros((2, 3))])
    def test_noise_of_the_wrong_size_rejected(self, noise):
        state = VariationalState({"a": (np.zeros((2, 3)), np.zeros((2, 3)))})
        with pytest.raises(ValueError, match="noise shape"):
            elbo_estimate(state, np.array([0]), _NullModel(), 1, noise)

    def test_mu_and_log_sigma_shapes_must_match(self):
        with pytest.raises(ValueError, match="identical shapes"):
            VariationalState({"x": (np.zeros(3), np.zeros((3, 1)))})

    def test_construction_copies_the_callers_arrays(self):
        mu, log_sigma = np.array([0.3, -0.2]), np.array([-1.0, -2.0])
        state = VariationalState({"x": (mu, log_sigma)})
        assert not np.shares_memory(state.flat, mu)
        assert not np.shares_memory(state.flat, log_sigma)
        state.flat += 1.0
        mu[0] = 9.0
        assert np.array_equal(mu, [9.0, -0.2]) and np.array_equal(log_sigma, [-1.0, -2.0])
        assert np.array_equal(state.flat, [1.3, 0.8, 0.0, -1.0])


class _NullModel:
    """No data: likelihood identically zero."""

    num_items = 1

    def loglik(self, samples, batch):
        return 0.0, {}


def _prior_minus_log_q(state, noise):
    """log p(u) - log q(u) at one draw: the objective without data."""
    return elbo_estimate(state, np.array([0]), _NullModel(), 1, noise)


class TestEntropyAndPrior:
    def test_standard_normal_at_zero(self):
        # log q at u = mu = 0 with sigma = 2 is -log(2 pi) / 2 - log 2.
        state = _state(np.zeros(1), np.full(1, math.log(2.0)))
        value = _prior_minus_log_q(state, np.zeros(1))
        assert np.isclose(value, -0.5 * LOG_2PI - (-0.5 * LOG_2PI - math.log(2.0)))

    def test_gamma_1_1_at_one(self):
        # Densities are over u = log s; the Jacobian log s vanishes at s = 1.
        state = _state(np.zeros(1), np.zeros(1), positive=True)
        assert np.isclose(_prior_minus_log_q(state, np.zeros(1)), -1.0 + 0.5 * LOG_2PI)

    def test_lognormal_logq_at_one(self):
        state = _state(np.zeros(1), np.full(1, math.log(3.0)), positive=True)
        value = _prior_minus_log_q(state, np.zeros(1))
        assert np.isclose(value, -1.0 - (-0.5 * LOG_2PI - math.log(3.0)))

    def test_underflowed_sample_has_finite_density(self):
        state = _state(np.full(1, -800.0), np.zeros(1), positive=True, gamma=(0.3, 0.3))
        _, s, _ = state.draw(np.zeros(1))
        assert s[0] == 0.0  # exp(u) underflows to 0
        assert math.isfinite(_prior_minus_log_q(state, np.zeros(1)))
        _, grad = gradient(state, np.array([0]), _NullModel(), 1, np.zeros(1))
        assert np.all(np.isfinite(grad))

    def test_density_matches_reparameterized_form(self):
        rng = np.random.default_rng(3)
        for positive in (False, True):
            state = _state(rng.standard_normal(4), 0.3 * rng.standard_normal(4),
                           positive=positive, gamma=(0.4, 0.7))
            z = rng.standard_normal(4)
            params = state.parameters()
            u = params["s.mu"] + np.exp(params["s.log_sigma"]) * z
            if positive:
                log_p = gamma_log_prob(np.exp(u), 0.4, 0.7) + np.sum(u)
            else:
                log_p = np.sum(-0.5 * LOG_2PI - 0.5 * u * u)
            # (u - mu) / sigma collapses to z
            z_form = np.sum(-0.5 * LOG_2PI - params["s.log_sigma"] - 0.5 * z * z)
            assert np.isclose(_prior_minus_log_q(state, z), log_p - z_form)

    def test_gamma_density_is_sample_density_times_jacobian(self):
        s = np.random.default_rng(8).gamma(1.0, 1.0, 6) + 0.05
        state = _state(np.log(s), np.zeros(6), positive=True, gamma=(0.4, 0.7))
        log_q = 6 * (-0.5 * LOG_2PI)  # z = 0 and sigma = 1
        expected = gamma_log_prob(s, 0.4, 0.7) + np.sum(np.log(s))
        assert np.isclose(_prior_minus_log_q(state, np.zeros(6)) + log_q, expected, rtol=1e-12)


def _poisson_state_and_model(seed=0, num_docs=3, num_terms=5, num_topics=2, num_authors=2):
    """Small tilted-topic instance for gradient checks."""
    from textideal.corpus import SparseCorpus, compute_weights
    from textideal.tbip import PriorConfig, TBIPModel, make_state
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(num_docs, num_terms)).astype(float)
    counts[:, 0] += 1  # keep every document non-empty
    author_of = np.arange(num_docs) % num_authors
    corpus = SparseCorpus(sp.csr_matrix(counts), author_of,
                          [f"a{i}" for i in range(num_authors)])
    theta0 = rng.gamma(1.0, 1.0, size=(num_docs, num_topics)) + 0.2
    beta0 = rng.gamma(1.0, 1.0, size=(num_topics, num_terms)) + 0.2
    state = make_state(corpus, num_topics, theta0, beta0, PriorConfig(), rng)
    model = TBIPModel(corpus, compute_weights(corpus))
    return state, model, corpus, rng


def _prior_and_log_q(state, noise):
    """(log prior, log q) summed over the state's factors at one draw."""
    draws = factor_draws(state, noise).values()
    return sum(d.log_prior for d in draws), sum(d.log_q for d in draws)


class TestElboEstimate:
    def test_full_batch_scaling_is_one(self):
        state, model, corpus, rng = _poisson_state_and_model()
        noise = state.sample_noise(rng)
        batch = np.arange(corpus.num_docs)
        log_prior, log_q = _prior_and_log_q(state, noise)
        samples = {name: d.sample for name, d in factor_draws(state, noise).items()}
        lik, _ = model.loglik(samples, batch)
        value = elbo_estimate(state, batch, model, corpus.num_docs, noise)
        assert np.isclose(value, log_prior + lik - log_q)

    def test_doubling_total_doubles_likelihood_part(self):
        state, model, corpus, rng = _poisson_state_and_model(seed=5)
        noise = state.sample_noise(rng)
        batch = np.array([0])
        log_prior, log_q = _prior_and_log_q(state, noise)
        base = log_prior - log_q
        e1 = elbo_estimate(state, batch, model, 10, noise)
        e2 = elbo_estimate(state, batch, model, 20, noise)
        assert np.isclose(e2 - base, 2.0 * (e1 - base))

    def test_zero_when_q_equals_prior_and_no_data(self):
        state = VariationalState({"x": (np.zeros(4), np.zeros(4))})
        rng = np.random.default_rng(2)
        for _ in range(5):
            noise = state.sample_noise(rng)
            value = elbo_estimate(state, np.array([0]), _NullModel(), 1, noise)
            assert value == 0.0

    def test_empty_batch_rejected(self):
        state, model, corpus, rng = _poisson_state_and_model()
        with pytest.raises(ValueError):
            elbo_estimate(state, np.array([], dtype=int), model, 3,
                          state.sample_noise(rng))

    @pytest.mark.parametrize("kind", ["tbip dense", "tbip sparse", "vote", "wordfish"])
    def test_is_the_value_of_the_gradient_pass_bitwise(self, kind):
        """`elbo_estimate` runs the model's one likelihood pass, so it
        returns exactly `gradient`'s value for the same draw."""
        from unittest import mock

        from textideal import tbip

        rng = np.random.default_rng(21)
        batches = [None]
        if kind.startswith("tbip"):
            state, model, _, rng = _poisson_state_and_model(seed=21, num_docs=8, num_authors=3)
            with mock.patch.object(tbip, "_DENSE_SHARE", 0.0 if kind == "tbip dense" else np.inf):
                model = tbip.TBIPModel(model.corpus, model.weights)
            assert (model._dense is None) == (kind == "tbip sparse")
            batches.append(np.array([5, 0, 3, 6]))
        elif kind == "vote":
            from textideal.synth import SynthSpec, sample_votes
            from textideal.vote import VoteModel, make_state

            votes, _ = sample_votes(SynthSpec(num_docs=30, num_terms=1, num_authors=8, seed=1))
            state = make_state(votes.num_lawmakers, votes.num_bills, rng)
            model = VoteModel(votes)
            batches.append(np.array([17, 2, 9]))
        else:
            from textideal.baselines import WordfishModel, _StreamState

            blocks = [rng.poisson(2.0, (5, 7)).astype(float), rng.poisson(1.0, (3, 4)).astype(float)]
            model = WordfishModel(blocks)
            state = _StreamState(model, [np.random.default_rng([21, j]) for j in range(2)])
        for batch in batches:
            batch = np.arange(model.num_items) if batch is None else batch
            for _ in range(3):
                noise = state.sample_noise(rng)
                value = elbo_estimate(state, batch, model, model.num_items, noise)
                assert value == gradient(state, batch, model, model.num_items, noise)[0]

    def test_monte_carlo_standard_error_shrinks(self):
        state, model, corpus, rng = _poisson_state_and_model(seed=9)
        batch = np.arange(corpus.num_docs)

        def draws(n):
            return np.array([
                elbo_estimate(state, batch, model, corpus.num_docs,
                              state.sample_noise(rng))
                for _ in range(n)
            ])

        small = draws(100)
        large = draws(10_000)
        se_small = small.std(ddof=1) / math.sqrt(small.size)
        se_large = large.std(ddof=1) / math.sqrt(large.size)
        assert se_large < se_small


class TestGradient:
    def test_matches_finite_differences(self):
        state, model, corpus, rng = _poisson_state_and_model(seed=11)
        noise = state.sample_noise(rng)
        batch = np.arange(corpus.num_docs)
        grads = state.views(gradient(state, batch, model, corpus.num_docs, noise)[1])

        def fn(params):
            state.set_parameters(params)
            return elbo_estimate(state, batch, model, corpus.num_docs, noise)

        fd = finite_difference(fn, state.parameters(), step=1e-5)
        for key, approx in fd.items():
            rel = np.abs(grads[key] - approx) / np.maximum(np.abs(approx), 1e-8)
            assert rel.max() <= 1e-4, key

    def test_x_gradient_vanishes_when_tilt_sample_is_zero(self):
        state, model, corpus, rng = _poisson_state_and_model(seed=4)
        state.parameters()["eta.mu"][:] = 0.0
        noise = state.sample_noise(rng)
        state.split(noise)["eta"][:] = 0.0  # forces the eta sample to exactly zero
        samples = state.samples(*state.draw(noise)[:2])
        assert np.array_equal(samples["eta"], np.zeros_like(samples["eta"]))
        _, grads = model.loglik(samples, np.arange(corpus.num_docs))
        assert np.array_equal(grads["x"], np.zeros_like(grads["x"]))

    def test_total_smaller_than_batch_rejected(self):
        state, model, corpus, rng = _poisson_state_and_model()
        noise = state.sample_noise(rng)
        with pytest.raises(ValueError, match="at least the batch size"):
            gradient(state, np.arange(3), model, 2, noise)

    def test_likelihood_gradient_scales_linearly_in_total(self):
        state, model, corpus, rng = _poisson_state_and_model(seed=6)
        noise = state.sample_noise(rng)
        batch = np.array([1])
        _, g1 = gradient(state, batch, model, 10, noise)
        _, g2 = gradient(state, batch, model, 20, noise)
        _, g0 = gradient(state, batch, model, 0 + 1, noise)  # scale 1
        lik_part = g1 - g0  # 9x the unit-scale likelihood grad
        assert np.allclose(g2 - g0, lik_part * 19 / 9)


class TestGradientMatchesSampleSpaceOracle:
    """`gradient` in u-space against the sample-space form it replaced."""

    @staticmethod
    def _assert_bitwise(state, result, expected):
        (value, grad), (want_value, want) = result, expected
        assert value == want_value
        grads = state.views(grad)
        assert set(grads) == set(want)
        for key in want:
            assert np.array_equal(grads[key], want[key]), key

    def test_vote_state_bitwise(self):
        from textideal.synth import SynthSpec, sample_votes
        from textideal.vote import VoteModel, make_state

        votes, _ = sample_votes(SynthSpec(num_docs=30, num_terms=1, num_authors=8, seed=1))
        rng = np.random.default_rng(2)
        state = make_state(votes.num_lawmakers, votes.num_bills, rng)
        model = VoteModel(votes)
        for batch in (np.arange(votes.num_bills), rng.choice(votes.num_bills, 7, replace=False)):
            noise = state.sample_noise(rng)
            result = gradient(state, batch, model, votes.num_bills, noise)
            expected = sample_space_gradient(
                state, batch, model.loglik, votes.num_bills, noise)
            self._assert_bitwise(state, result, expected)

    def test_stacked_wordfish_state_bitwise(self):
        from textideal.baselines import WordfishModel, _StreamState

        rng = np.random.default_rng(3)
        blocks = [rng.poisson(2.0, (5, 7)).astype(float), rng.poisson(1.0, (3, 4)).astype(float)]
        model = WordfishModel(blocks)
        state = _StreamState(model, [np.random.default_rng([3, j]) for j in range(2)])
        batch = np.arange(model.num_items)
        for _ in range(3):
            noise = state.sample_noise(None)
            result = gradient(state, batch, model, model.num_items, noise)
            expected = sample_space_gradient(
                state, batch, model.loglik, model.num_items, noise)
            self._assert_bitwise(state, result, expected)

    @pytest.mark.parametrize("seed, batch", [(11, None), (12, [2, 0]), (13, [1])])
    def test_tbip_state_within_1e_12(self, seed, batch):
        state, model, corpus, rng = _poisson_state_and_model(seed=seed, num_docs=5)
        dense = corpus.counts.toarray()
        batch = np.arange(corpus.num_docs) if batch is None else np.array(batch)
        for _ in range(3):
            noise = state.sample_noise(rng)
            value, grad = gradient(state, batch, model, corpus.num_docs, noise)
            want_value, expected = sample_space_gradient(
                state, batch,
                lambda s, b: tbip_loglik(dense, corpus.author_of, model.weights, s, b),
                corpus.num_docs, noise)
            assert abs(value - want_value) <= 1e-12 * abs(want_value)
            grads = state.views(grad)
            assert set(grads) == set(expected)
            for key, exp in expected.items():
                got, exp = np.asarray(grads[key]), np.asarray(exp)
                assert np.max(np.abs(got - exp)) <= 1e-12 * np.max(np.abs(exp)), key


class TestUnderflow:
    """Positive factors whose samples underflow to 0 keep the objective finite."""

    @staticmethod
    def _underflowed_state(seed):
        state, model, corpus, rng = _poisson_state_and_model(seed=seed)
        params = state.parameters()
        params["theta.mu"][0, 0] = -800.0
        params["beta.mu"][0, 0] = -800.0
        return state, model, corpus, rng

    def test_finite_objective_and_gradients(self):
        state, model, corpus, rng = self._underflowed_state(14)
        noise = state.sample_noise(rng)
        samples = state.samples(*state.draw(noise)[:2])
        assert samples["theta"][0, 0] == 0.0 and samples["beta"][0, 0] == 0.0
        batch = np.arange(corpus.num_docs)
        assert math.isfinite(elbo_estimate(state, batch, model, corpus.num_docs, noise))
        _, grad = gradient(state, batch, model, corpus.num_docs, noise)
        for key, g in state.views(grad).items():
            assert np.all(np.isfinite(g)), key

    def test_fit_runs_through_underflow(self):
        state, model, corpus, rng = self._underflowed_state(15)
        cfg = TrainConfig(max_steps=20, batch_size=2, elbo_report_interval=1)
        trace = engine.fit(state, model, cfg, rng)
        assert len(trace) == 20
        assert all(math.isfinite(value) for _, value in trace)
        for arr in state.parameters().values():
            assert np.all(np.isfinite(arr))


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        adam = AdamState(lr=0.001)
        out = adam_step(adam, np.zeros(4), np.ones(4))
        assert np.allclose(out, 0.001, rtol=1e-6)

    def test_zero_gradient_no_motion(self):
        adam = AdamState(lr=0.1)
        out = adam_step(adam, np.full(3, 2.0), np.zeros(3))
        assert np.array_equal(out, np.full(3, 2.0))

    def test_zero_learning_rate_is_identity(self):
        adam = AdamState(lr=0.0)
        out = adam_step(adam, np.array([1.0, -2.0]), np.array([5.0, 5.0]))
        assert np.array_equal(out, [1.0, -2.0])

    def test_in_place_steps_equal_out_of_place_reference(self):
        rng = np.random.default_rng(7)
        p0 = rng.standard_normal((20, 50))
        grads = [rng.standard_normal((20, 50)) for _ in range(5)]
        adam = AdamState(lr=0.05)
        live = p0.copy()
        p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
        for t, g in enumerate(grads, start=1):
            assert adam_step(adam, live, g) is live  # updated in place, not replaced
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            p = p + 0.05 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert np.array_equal(live, p)
        assert adam.t == len(grads)
        assert type(adam.m) is np.ndarray and type(adam.v) is np.ndarray
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)


class TestFlatParameters:
    @staticmethod
    def _assert_views_of_flat(state):
        for key, view in state.parameters().items():
            assert np.shares_memory(view, state.flat), key

    def test_factors_are_views_of_flat_buffer(self):
        state, _, _, _ = _poisson_state_and_model(seed=3)
        self._assert_views_of_flat(state)
        # Every factor's mu, then every factor's log_sigma, in factor order.
        params = state.parameters()
        assert list(params) == [f"{name}.{part}" for part in ("mu", "log_sigma")
                                for name in ("theta", "beta", "eta", "x")]
        assert state.flat.size == 2 * state.size
        assert np.array_equal(state.mu, np.concatenate(
            [params[f"{name}.mu"].ravel() for name in ("theta", "beta", "eta", "x")]))
        assert state.flat.size == sum(p.size for p in state.parameters().values())
        params = {k: p + 1.0 for k, p in state.parameters().items()}
        state.set_parameters(params)
        self._assert_views_of_flat(state)
        for key, p in state.parameters().items():
            assert np.array_equal(p, params[key]), key
        assert np.array_equal(
            state.flat, np.concatenate([p.ravel() for p in params.values()]))

    def test_set_parameters_rejects_a_wrong_shape(self):
        state = VariationalState({"x": (np.zeros(3), np.zeros(3))})
        with pytest.raises(ValueError, match="x.mu"):
            state.set_parameters({"x.mu": np.zeros(4), "x.log_sigma": np.zeros(3)})

    def test_gradient_calls_do_not_alias(self):
        state, model, corpus, rng = _poisson_state_and_model(seed=4)
        batch = np.arange(corpus.num_docs)
        _, first = gradient(state, batch, model, corpus.num_docs, state.sample_noise(rng))
        kept = first.copy()
        _, second = gradient(state, batch, model, corpus.num_docs, state.sample_noise(rng))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, state.flat)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("dense", [True, False])
    def test_fit_is_bitwise_the_per_array_loop(self, dense, monkeypatch):
        """Desk-sized TBIP (D=1000, V=300, K=5), two draws a step,
        minibatches: one flat Adam update equals one per parameter array."""
        from textideal import synth, tbip
        from textideal.corpus import compute_weights

        if not dense:
            monkeypatch.setattr(tbip, "_DENSE_SHARE", 2.0)
        corpus, _ = synth.sample_tbip(synth.SynthSpec(
            num_docs=1000, num_terms=300, num_authors=20, num_topics=5, seed=0))
        init = np.random.default_rng(5)
        theta0 = init.gamma(1.0, 1.0, size=(corpus.num_docs, 5)) + 0.2
        beta0 = init.gamma(1.0, 1.0, size=(5, corpus.num_terms)) + 0.2
        cfg = TrainConfig(k=5, batch_size=512, max_steps=12, mc_samples=2, lr=0.01,
                          elbo_report_interval=5)
        model = tbip.TBIPModel(corpus, compute_weights(corpus))
        assert (model._dense is not None) == dense
        fits = []
        for run in (engine.fit, per_array_fit):
            rng = np.random.default_rng(9)
            state = tbip.make_state(corpus, 5, theta0, beta0, tbip.PriorConfig(), rng)
            fits.append((run(state, model, cfg, rng), state.parameters()))
        (trace, params), (want_trace, want_params) = fits
        assert trace == want_trace
        for key, p in params.items():
            assert np.array_equal(p, want_params[key]), key


class TestElboUnbiasedness:
    def test_matches_gauss_hermite_quadrature(self):
        """Monte Carlo mean over many draws agrees with a 4-D quadrature."""
        from textideal.corpus import SparseCorpus
        from textideal.tbip import PriorConfig, TBIPModel, make_state
        import scipy.sparse as sp

        y = 2.0
        corpus = SparseCorpus(sp.csr_matrix(np.array([[y]])), [0], ["a"])
        rng = np.random.default_rng(0)
        state = make_state(corpus, 1, np.array([[0.8]]), np.array([[1.2]]),
                           PriorConfig(a=0.3, b=0.3), rng)
        state.log_sigma[:] = math.log(0.4)
        params = state.parameters()
        params["eta.mu"][:] = 0.3
        params["x.mu"][:] = -0.2
        model = TBIPModel(corpus, np.ones(1))

        draws = 20_000
        batch = np.array([0])
        values = np.array([
            elbo_estimate(state, batch, model, 1, state.sample_noise(rng))
            for _ in range(draws)
        ])
        mc_mean = values.mean()
        mc_se = values.std(ddof=1) / math.sqrt(draws)

        oracle = quadrature_elbo(state, y, w=1.0, prior_a=0.3, prior_b=0.3, nodes=40)
        assert abs(mc_mean - oracle) <= 3.0 * mc_se


class _RecordingModel:
    """One real factor per item, a standard normal likelihood; keeps every batch."""

    def __init__(self, num_items):
        self.num_items = num_items
        self.batches = []

    def loglik(self, samples, batch):
        self.batches.append(np.array(batch))
        x = samples["x"][batch]
        grads = {"x": np.zeros(self.num_items)}
        grads["x"][batch] = -x
        return float(-0.5 * np.sum(x * x)), grads


def _recording_fit(num_items, **settings):
    model = _RecordingModel(num_items)
    state = VariationalState(engine.gaussian_factors({"x": num_items}, np.random.default_rng(0)))
    trace = engine.fit(state, model, TrainConfig(**settings), np.random.default_rng(1))
    return model, trace


class TestFitLoop:
    def test_trace_reports_first_every_interval_and_last_step(self):
        _, trace = _recording_fit(4, max_steps=10, batch_size=2, elbo_report_interval=4)
        assert [step for step, _ in trace] == [1, 4, 8, 10]

    @pytest.mark.parametrize("batch_size", [5, 6])
    def test_batch_of_all_items_is_full_batch_in_index_order(self, batch_size):
        model, _ = _recording_fit(5, max_steps=3, batch_size=batch_size, mc_samples=2)
        assert len(model.batches) == 6
        for batch in model.batches:
            assert np.array_equal(batch, np.arange(5))

    def test_smaller_batch_subsamples_without_replacement(self):
        model, _ = _recording_fit(5, max_steps=20, batch_size=4)
        assert all(np.unique(batch).size == 4 for batch in model.batches)
        assert any(not np.array_equal(np.sort(b), np.arange(4)) for b in model.batches)

    def test_fit_leaves_the_callers_initial_arrays_unchanged(self):
        mu = np.array([0.3, -0.2, 0.1])
        log_sigma = np.full(3, math.log(0.1))
        state = VariationalState({"x": (mu, log_sigma)})
        engine.fit(state, _RecordingModel(3), TrainConfig(max_steps=5, batch_size=3),
                   np.random.default_rng(0))
        assert not np.array_equal(state.parameters()["x.mu"], mu)  # the fit moved
        assert np.array_equal(mu, [0.3, -0.2, 0.1])
        assert np.array_equal(log_sigma, np.full(3, math.log(0.1)))

    def test_fit_leaves_arrays_given_to_set_parameters_unchanged(self):
        state = VariationalState({"x": (np.zeros(3), np.zeros(3))})
        params = {"x.mu": np.array([0.3, -0.2, 0.1]), "x.log_sigma": np.full(3, -2.0)}
        state.set_parameters(params)
        engine.fit(state, _RecordingModel(3), TrainConfig(max_steps=5, batch_size=3),
                   np.random.default_rng(0))
        assert not np.array_equal(state.parameters()["x.mu"], params["x.mu"])
        assert np.array_equal(params["x.mu"], [0.3, -0.2, 0.1])
        assert np.array_equal(params["x.log_sigma"], np.full(3, -2.0))

    def test_one_adam_step_per_step_on_the_flat_buffer(self, monkeypatch):
        """Benchmarks count steps and time them from the calls to the
        module-level `adam_step`, whose first argument is `state.flat`."""
        adam_step = engine.adam_step
        calls = []

        def counting(adam, p, g):
            calls.append(p)
            return adam_step(adam, p, g)

        monkeypatch.setattr(engine, "adam_step", counting)
        state, model, _, rng = _poisson_state_and_model(seed=2)
        engine.fit(state, model, TrainConfig(max_steps=7, batch_size=2, mc_samples=2), rng)
        assert len(calls) == 7
        assert all(p is state.flat for p in calls)

    def test_adam_state_needs_a_learning_rate(self):
        with pytest.raises(TypeError):
            AdamState()

    def test_nonfinite_objective_raises_with_step(self):
        state = VariationalState({"x": (np.array([800.0]), np.zeros(1))})

        class ExplodingModel:
            num_items = 1

            def loglik(self, samples, batch):
                value = float(np.exp(samples["x"][0]))  # overflows at x ~ 800
                return value, {"x": np.array([value])}

        with pytest.raises(engine.NonFiniteElbo) as err:
            engine.fit(state, ExplodingModel(), TrainConfig(max_steps=5, batch_size=1),
                       np.random.default_rng(0))
        assert err.value.step >= 1

    def test_model_value_error_propagates(self):
        from textideal.baselines import WordfishModel

        model = WordfishModel([np.ones((3, 2))])
        rng = np.random.default_rng(0)
        state = VariationalState(
            engine.gaussian_factors({"alpha": 3, "psi": 2, "b": 2, "x": 3}, rng))
        # A subsampled batch is a caller error for the full-batch model, not
        # a non-finite objective.
        with pytest.raises(ValueError, match="full-batch"):
            engine.fit(state, model, TrainConfig(max_steps=2, batch_size=2), rng)
