import math

import numpy as np
import pytest

from _oracles import (
    gamma_log_prob,
    per_array_fit,
    quadrature_elbo,
    sample_space_gradient,
    tbip_loglik,
)
from textideal import engine
from textideal.engine import (
    AdamState,
    Family,
    GammaPrior,
    NormalPrior,
    VariationalState,
    adam_step,
    elbo_estimate,
    finite_difference,
    gradient,
)
from textideal.tbip import TrainConfig

LOG_2PI = math.log(2 * math.pi)


class TestReparameterize:
    def test_gaussian_identity_case(self):
        fam = Family(np.zeros(3), np.zeros(3))
        assert np.array_equal(fam.draw(np.zeros(3))[0], np.zeros(3))

    def test_lognormal_at_zero_noise(self):
        fam = Family(np.zeros(2), np.zeros(2), positive=True)
        state = VariationalState({"s": fam}, {"s": GammaPrior(1.0, 1.0)})
        u, s, _ = state.draw({"s": np.zeros(2)})["s"]
        assert np.array_equal(u, np.zeros(2))
        assert np.array_equal(s, np.ones(2))

    def test_gaussian_affine(self):
        fam = Family(np.array([2.0]), np.log(np.array([0.5])))
        assert np.allclose(fam.draw(np.array([2.0]))[0], [3.0])

    def test_shape_mismatch_raises(self):
        fam = Family(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            fam.draw(np.zeros(4))

    def test_deterministic_given_noise(self):
        rng = np.random.default_rng(0)
        fam = Family(rng.standard_normal(5), rng.standard_normal(5), positive=True)
        state = VariationalState({"s": fam}, {"s": GammaPrior(1.0, 1.0)})
        z = {"s": rng.standard_normal(5)}
        assert np.array_equal(state.draw(z)["s"][1], state.draw(z)["s"][1])


class _NullModel:
    """No data: likelihood identically zero."""

    num_items = 1

    def loglik(self, samples, batch):
        return 0.0, {}


class TestEntropyAndPrior:
    def test_standard_normal_at_zero(self):
        state = VariationalState(
            {"x": Family(np.zeros(1), np.zeros(1))},
            {"x": NormalPrior()},
        )
        u, s, _ = state.draw({"x": np.zeros(1)})["x"]
        assert np.isclose(state.priors["x"].log_prob(u, s), -0.5 * LOG_2PI)

    def test_gamma_1_1_at_one(self):
        # Densities are over u = log s; the Jacobian log s vanishes at s = 1.
        prior = GammaPrior(1.0, 1.0)
        assert np.isclose(prior.log_prob(np.zeros(1), np.ones(1)), -1.0)

    def test_lognormal_logq_at_one(self):
        fam = Family(np.zeros(1), np.zeros(1), positive=True)
        assert np.isclose(fam.log_density(np.zeros(1), fam.sigma), -0.5 * LOG_2PI)

    def test_underflowed_sample_has_finite_density(self):
        u = np.array([-800.0])  # exp(u) underflows to 0
        prior = GammaPrior(0.3, 0.3)
        assert np.exp(u)[0] == 0.0
        assert math.isfinite(prior.log_prob(u, np.exp(u)))
        assert np.all(np.isfinite(prior.dlog_prob(np.exp(u))))
        fam = Family(np.zeros(1), np.zeros(1), positive=True)
        assert math.isfinite(fam.log_density(u, fam.sigma))

    def test_density_matches_reparameterized_form(self):
        rng = np.random.default_rng(3)
        for fam in (
            Family(rng.standard_normal(4), 0.3 * rng.standard_normal(4)),
            Family(rng.standard_normal(4), 0.3 * rng.standard_normal(4), positive=True),
        ):
            z = rng.standard_normal(4)
            # (u - mu) / sigma collapses to z
            z_form = np.sum(-0.5 * LOG_2PI - fam.log_sigma - 0.5 * z * z)
            u, _, sigma = fam.draw(z)
            assert np.isclose(fam.log_density(u, sigma), z_form)

    def test_gamma_density_is_sample_density_times_jacobian(self):
        s = np.random.default_rng(8).gamma(1.0, 1.0, 6) + 0.05
        prior = GammaPrior(0.4, 0.7)
        expected = gamma_log_prob(s, 0.4, 0.7) + np.sum(np.log(s))
        assert np.isclose(prior.log_prob(np.log(s), s), expected, rtol=1e-12)


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
    draws = state.draw(noise)
    log_prior = sum(state.priors[n].log_prob(u, s) for n, (u, s, _) in draws.items())
    log_q = sum(state.families[n].log_density(u, sigma) for n, (u, _, sigma) in draws.items())
    return log_prior, log_q


class TestElboEstimate:
    def test_full_batch_scaling_is_one(self):
        state, model, corpus, rng = _poisson_state_and_model()
        noise = state.sample_noise(rng)
        batch = np.arange(corpus.num_docs)
        log_prior, log_q = _prior_and_log_q(state, noise)
        samples = {name: s for name, (_, s, _) in state.draw(noise).items()}
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
        state = VariationalState(
            {"x": Family(np.zeros(4), np.zeros(4))},
            {"x": NormalPrior()},
        )
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
        state.families["eta"].mu[:] = 0.0
        noise = state.sample_noise(rng)
        noise["eta"][:] = 0.0  # forces the eta sample to exactly zero
        samples = {name: s for name, (_, s, _) in state.draw(noise).items()}
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
        state.families["theta"].mu[0, 0] = -800.0
        state.families["beta"].mu[0, 0] = -800.0
        return state, model, corpus, rng

    def test_finite_objective_and_gradients(self):
        state, model, corpus, rng = self._underflowed_state(14)
        noise = state.sample_noise(rng)
        draws = state.draw(noise)
        assert draws["theta"][1][0, 0] == 0.0 and draws["beta"][1][0, 0] == 0.0
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
        for name, fam in state.families.items():
            assert np.shares_memory(fam.mu, state.flat), name
            assert np.shares_memory(fam.log_sigma, state.flat), name

    def test_families_are_views_of_flat_buffer(self):
        state, _, _, _ = _poisson_state_and_model(seed=3)
        self._assert_views_of_flat(state)
        assert state.flat.size == sum(p.size for p in state.parameters().values())
        params = {k: p + 1.0 for k, p in state.parameters().items()}
        state.set_parameters(params)
        self._assert_views_of_flat(state)
        for key, p in state.parameters().items():
            assert np.array_equal(p, params[key]), key
        assert np.array_equal(
            state.flat, np.concatenate([p.ravel() for p in params.values()]))

    def test_set_parameters_rejects_a_wrong_shape(self):
        state = VariationalState({"x": Family(np.zeros(3), np.zeros(3))},
                                 {"x": NormalPrior()})
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
        for fam in state.families.values():
            fam.log_sigma[:] = math.log(0.4)
        state.families["eta"].mu[:] = 0.3
        state.families["x"].mu[:] = -0.2
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
    state = VariationalState(
        engine.gaussian_families({"x": num_items}, np.random.default_rng(0)),
        {"x": NormalPrior()},
    )
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
        state = VariationalState({"x": Family(mu, log_sigma)}, {"x": NormalPrior()})
        engine.fit(state, _RecordingModel(3), TrainConfig(max_steps=5, batch_size=3),
                   np.random.default_rng(0))
        assert not np.array_equal(state.families["x"].mu, mu)  # the fit moved
        assert np.array_equal(mu, [0.3, -0.2, 0.1])
        assert np.array_equal(log_sigma, np.full(3, math.log(0.1)))

    def test_fit_leaves_arrays_given_to_set_parameters_unchanged(self):
        state = VariationalState(
            {"x": Family(np.zeros(3), np.zeros(3))}, {"x": NormalPrior()})
        params = {"x.mu": np.array([0.3, -0.2, 0.1]), "x.log_sigma": np.full(3, -2.0)}
        state.set_parameters(params)
        engine.fit(state, _RecordingModel(3), TrainConfig(max_steps=5, batch_size=3),
                   np.random.default_rng(0))
        assert not np.array_equal(state.families["x"].mu, params["x.mu"])
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
        state = VariationalState(
            {"x": Family(np.array([800.0]), np.zeros(1))},
            {"x": NormalPrior()},
        )

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
            engine.gaussian_families({"alpha": 3, "psi": 2, "b": 2, "x": 3}, rng),
            {name: NormalPrior() for name in ("alpha", "psi", "b", "x")},
        )
        # A subsampled batch is a caller error for the full-batch model, not
        # a non-finite objective.
        with pytest.raises(ValueError, match="full-batch"):
            engine.fit(state, model, TrainConfig(max_steps=2, batch_size=2), rng)
