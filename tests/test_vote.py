import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import vote_entry_indices, vote_loglik
from textideal import engine
from textideal.corpus import take_rows
from textideal.synth import SynthSpec, sample_votes
from textideal.tbip import TrainConfig
from textideal.vote import (
    VoteMatrix,
    VoteModel,
    load_votes_csv,
    make_state,
    save_votes_csv,
    sigmoid,
    train_vote,
    vote_prob,
)


class TestVoteProb:
    def test_neutral_is_half(self):
        assert vote_prob(0.0, 1.0, 0.0) == 0.5
        assert vote_prob(0.0, 0.0, 3.0) == 0.5

    def test_closed_form(self):
        assert np.isclose(vote_prob(0.0, 1.0, 3.0), 1.0 / (1.0 + np.exp(-3.0)))
        assert np.isclose(vote_prob(0.0, 1.0, 3.0), 0.9526, atol=5e-5)

    def test_opposite_signs_lower_probability(self):
        for alpha in (-1.0, 0.0, 2.0):
            assert vote_prob(alpha, 1.5, -0.7) < sigmoid(alpha)
            assert vote_prob(alpha, -1.5, 0.7) < sigmoid(alpha)

    def test_stable_at_extremes(self):
        hi = vote_prob(700.0, 0.0, 0.0)
        lo = vote_prob(-700.0, 0.0, 0.0)
        assert hi == 1.0
        assert 0.0 < lo < 1e-300  # no underflow to zero, no overflow
        assert np.isfinite(vote_prob(0.0, 700.0, 1.0))

    def test_sigmoid_is_bitwise_the_masked_two_branch_form(self):
        """The shared q = exp(-|t|) form against the former boolean-masked
        passes: equal bits everywhere (signed zeros, overflow and underflow
        edges included), and NaN stays NaN."""
        t = 30.0 * np.random.default_rng(0).standard_normal(1_000_000)
        edges = [0.0, np.inf, 709.8, 745.2]
        t = np.concatenate([t, edges, np.negative(edges), [np.nan]])
        want = np.empty_like(t)
        pos = t >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        want[~pos] = e / (1.0 + e)
        got = sigmoid(t)
        assert np.isnan(got[-1]) and np.isnan(want[-1])
        assert np.array_equal(got[:-1].view(np.int64), want[:-1].view(np.int64))
        assert sigmoid(-0.0) == 0.5 and isinstance(sigmoid(-0.0), float)

    def test_joint_sign_flip_invariance_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            alpha, eta, x = rng.standard_normal(3) * 2.0
            assert vote_prob(alpha, eta, x) == vote_prob(alpha, -eta, -x)


class TestVoteMatrix:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VoteMatrix([0, 0], [1, 1], [1, 0], ["a"], ["b0", "b1"])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            VoteMatrix([0], [0], [2], ["a"], ["b"])

    def test_csv_round_trip_excludes_other_votes(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text(
            "lawmaker_name,bill_id,vote\n"
            "alice,hr1,1\nalice,hr2,0\nbob,hr1,abstain\nbob,hr2,1\n",
            encoding="utf-8",
        )
        votes = load_votes_csv(path)
        assert votes.votes.size == 3  # the abstention is dropped at load
        assert votes.lawmaker_names == ["alice", "bob"]
        out = tmp_path / "again.csv"
        save_votes_csv(votes, out)
        votes2 = load_votes_csv(out)
        assert np.array_equal(votes.votes, votes2.votes)
        assert votes2.bill_ids == votes.bill_ids


class TestTrainVote:
    def test_recovers_ideal_points(self):
        spec = SynthSpec(num_docs=200, num_terms=1, num_authors=40,
                         polarity_scale=1.0, seed=3)
        votes, truth = sample_votes(spec)
        cfg = TrainConfig(batch_size=10_000, max_steps=1500, seed=1, lr=0.02,
                          elbo_report_interval=500)
        fit = train_vote(votes, cfg)
        assert abs(np.corrcoef(fit.x_hat, truth.x)[0, 1]) >= 0.9

    def test_all_yea_matrix_gives_uninformative_positions(self):
        """With no discriminative signal the fit raises every yea
        probability (intercepts plus a shared tilt) while the positions
        carry essentially no spread."""
        i, j = np.meshgrid(np.arange(12), np.arange(30), indexing="ij")
        votes = VoteMatrix(i.ravel(), j.ravel(), np.ones(360, dtype=int),
                           [f"l{n}" for n in range(12)],
                           [f"b{n}" for n in range(30)])
        cfg = TrainConfig(batch_size=10_000, max_steps=2000, seed=0, lr=0.02,
                          elbo_report_interval=1000)
        fit = train_vote(votes, cfg)
        assert fit.alpha_hat.mean() > 0.3
        assert fit.x_hat.std() < 0.15
        probs = vote_prob(fit.alpha_hat[votes.bill_idx],
                          fit.eta_hat[votes.bill_idx],
                          fit.x_hat[votes.lawmaker_idx])
        assert probs.mean() > 0.85

    def test_deterministic_given_seed(self):
        spec = SynthSpec(num_docs=40, num_terms=1, num_authors=8, seed=4)
        votes, _ = sample_votes(spec)
        cfg = TrainConfig(batch_size=10_000, max_steps=50, seed=5, lr=0.05,
                          elbo_report_interval=10)
        f1 = train_vote(votes, cfg)
        f2 = train_vote(votes, cfg)
        assert f1.elbo_trace == f2.elbo_trace
        assert np.array_equal(f1.x_hat, f2.x_hat)

    def test_requires_every_lawmaker_to_vote(self):
        votes = VoteMatrix([0, 0], [0, 1], [1, 0], ["a", "ghost"], ["b0", "b1"])
        cfg = TrainConfig(max_steps=5)
        with pytest.raises(ValueError):
            train_vote(votes, cfg)

    def test_translation_of_positions_lowers_objective(self):
        spec = SynthSpec(num_docs=80, num_terms=1, num_authors=16, seed=6)
        votes, _ = sample_votes(spec)
        cfg = TrainConfig(batch_size=10_000, max_steps=800, seed=2, lr=0.02,
                          elbo_report_interval=400)
        train_state = make_state(votes.num_lawmakers, votes.num_bills,
                                 np.random.default_rng(cfg.seed))
        model = VoteModel(votes)
        rng = np.random.default_rng(cfg.seed)
        engine.fit(train_state, model, cfg, rng)
        noise = train_state.sample_noise(np.random.default_rng(77))
        batch = np.arange(votes.num_bills)
        fitted = engine.elbo_estimate(train_state, batch, model,
                                      votes.num_bills, noise)
        train_state.parameters()["x.mu"][:] += 5.0
        shifted = engine.elbo_estimate(train_state, batch, model,
                                       votes.num_bills, noise)
        assert shifted < fitted

    def test_bill_minibatching_runs(self):
        spec = SynthSpec(num_docs=60, num_terms=1, num_authors=10, seed=7)
        votes, _ = sample_votes(spec)
        cfg = TrainConfig(batch_size=16, max_steps=200, seed=1, lr=0.02,
                          elbo_report_interval=100)
        fit = train_vote(votes, cfg)
        assert np.all(np.isfinite(fit.x_hat))


@st.composite
def _votes_per_bill_and_batch(draw):
    """Entries per bill (ones included) and a shuffled subset of bills, up to
    all of them."""
    per_bill = draw(st.lists(st.integers(1, 4), min_size=2, max_size=12))
    batch = draw(st.permutations(range(len(per_bill))))
    size = draw(st.integers(1, len(per_bill)))
    return per_bill, np.array(batch[:size], dtype=np.int64)


class TestEntryGather:
    @settings(max_examples=100, deadline=None)
    @given(_votes_per_bill_and_batch())
    def test_matches_one_arange_per_bill(self, case):
        per_bill, batch = case
        # Row pointer of entries sorted by bill.
        bills = np.repeat(np.arange(len(per_bill)), per_bill)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(bills, minlength=len(per_bill)))])
        expected = vote_entry_indices(indptr, batch)
        _, got = take_rows(indptr, batch)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


# Up to 6 lawmakers x 8 bills; each cell unrecorded (None), nay or yea.
@st.composite
def _vote_model_case(draw):
    num_lawmakers = draw(st.integers(1, 6))
    num_bills = draw(st.integers(1, 8))
    cells = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=num_lawmakers * num_bills,
                          max_size=num_lawmakers * num_bills))
    batch = draw(st.permutations(range(num_bills)))[:draw(st.integers(1, num_bills))]
    # |alpha| + |eta x| reaches about 700, where exp(-|t|) is still normal.
    alpha = draw(st.lists(st.floats(-100, 100), min_size=num_bills, max_size=num_bills))
    eta = draw(st.lists(st.floats(-20, 20), min_size=num_bills, max_size=num_bills))
    x = draw(st.lists(st.floats(-30, 30), min_size=num_lawmakers, max_size=num_lawmakers))
    return cells, num_lawmakers, batch, alpha, eta, x


def _vote_model(cells, num_lawmakers):
    recorded = [(k % num_lawmakers, k // num_lawmakers, v)
                for k, v in enumerate(cells) if v is not None]
    num_bills = len(cells) // num_lawmakers
    return VoteMatrix([r[0] for r in recorded], [r[1] for r in recorded],
                      [r[2] for r in recorded], [f"l{i}" for i in range(num_lawmakers)],
                      [f"b{j}" for j in range(num_bills)])


class TestVoteLoglikOracle:
    @settings(max_examples=200, deadline=None)
    @given(_vote_model_case())
    # Lawmaker 1 and bills 0 and 1 have a single recorded vote each; one-bill
    # batches; |t| from 500 to 700 on both sides of 0.
    @example(([1, None, 0, None, 1, 0], 2, [1], [100.0, -60.0, 2.0], [20.0, 20.0, 1.0],
              [-30.0, 30.0]))
    @example(([0, 1, 1, 0], 4, [0], [-100.0], [-20.0], [30.0, -30.0, 0.0, 1e-3]))
    def test_value_and_gradients_match_per_vote_loop(self, case):
        cells, num_lawmakers, batch, alpha, eta, x = case
        votes = _vote_model(cells, num_lawmakers)
        samples = {"alpha": np.array(alpha), "eta": np.array(eta), "x": np.array(x)}
        batch = np.array(batch, dtype=np.int64)
        value, grads = VoteModel(votes).loglik(samples, batch)
        want_value, want_grads = vote_loglik(votes, samples, batch)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        # Each gradient entry against the sum of its terms' magnitudes,
        # |v - sigmoid(t)| <= 1 times |x_i| or |eta_j|.
        in_batch = np.isin(votes.bill_idx, batch)
        i, j = votes.lawmaker_idx[in_batch], votes.bill_idx[in_batch]
        bound = {
            "alpha": np.bincount(j, minlength=votes.num_bills),
            "eta": np.bincount(j, weights=np.abs(samples["x"][i]), minlength=votes.num_bills),
            "x": np.bincount(i, weights=np.abs(samples["eta"][j]),
                             minlength=votes.num_lawmakers),
        }
        for name, got in grads.items():
            assert got.shape == samples[name].shape, name
            assert np.all(np.abs(got - want_grads[name]) <= 1e-12 * bound[name]), name


# Names with the characters CSV quoting has to handle, and the header's own
# first field as a lawmaker name.
_names = st.one_of(st.text(max_size=6), st.sampled_from(
    ["lawmaker_name", "bill_id", "vote", "a,b", '"q"', 'x"", y', "line\nbreak", " pad "]))


@st.composite
def _vote_triples(draw):
    lawmakers = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    bills = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(lawmakers), st.sampled_from(bills)),
                          min_size=1, max_size=12, unique=True))
    return {(lawmaker, bill, draw(st.integers(0, 1))) for lawmaker, bill in pairs}


class TestVotesCsvProperties:
    @settings(max_examples=100, deadline=None)
    @given(_vote_triples())
    def test_save_load_round_trip(self, triples):
        names = sorted({t[0] for t in triples})
        bills = sorted({t[1] for t in triples})
        votes = VoteMatrix([names.index(t[0]) for t in triples],
                           [bills.index(t[1]) for t in triples],
                           [t[2] for t in triples], names, bills)
        with tempfile.TemporaryDirectory() as tmp:
            save_votes_csv(votes, Path(tmp) / "votes.csv")
            loaded = load_votes_csv(Path(tmp) / "votes.csv")
        got = {(loaded.lawmaker_names[i], loaded.bill_ids[j], int(v))
               for i, j, v in zip(loaded.lawmaker_idx, loaded.bill_idx, loaded.votes)}
        assert got == triples
