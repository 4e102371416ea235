import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson, rankdata

import textideal
from textideal.analysis import (
    AlignedIdealPoints,
    ZeroVariance,
    _average_ranks,
    align,
    compare,
    expected_count_ratio,
    influence,
    load_ideal_points_csv,
    match_by_name,
    save_ideal_points_csv,
    topic_report,
)
from textideal.corpus import SparseCorpus, Vocabulary, compute_weights, log_transform
from textideal.tbip import FitResult, log_likelihood_doc, tbip_rate


class TestAlign:
    def test_standardizes(self):
        out = align(np.array([1.0, 2.0, 3.0]))
        expected = np.array([-1.0, 0.0, 1.0]) * math.sqrt(1.5)
        assert np.allclose(out.values, expected)
        assert abs(out.values.mean()) < 1e-12
        assert abs(out.values.std() - 1.0) < 1e-9

    def test_flips_against_negated_reference(self):
        points = np.array([0.5, -1.0, 2.0, 0.0])
        out = align(points, reference=-points)
        assert out.sign_flipped
        r, _ = compare(out.values, -points)
        assert np.isclose(r, 1.0)

    def test_idempotent(self):
        points = np.array([3.0, -1.0, 0.5, 2.0])
        once = align(points)
        twice = align(once.values)
        assert np.allclose(once.values, twice.values)
        assert not twice.sign_flipped

    def test_positively_correlated_reference_unchanged(self):
        points = align(np.array([1.0, 4.0, 2.0])).values
        out = align(points, reference=np.array([0.9, 4.2, 2.1]))
        assert np.allclose(out.values, points)
        assert not out.sign_flipped

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            align(np.array([2.0, 2.0, 2.0]))


class TestCompare:
    def test_identical_vectors_exactly_one(self):
        a = np.array([0.3, -1.2, 4.0, 2.5])
        assert compare(a, a.copy()) == (1.0, 1.0)

    def test_exact_reversal(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert compare(a, a[::-1].copy()) == (-1.0, -1.0)

    def test_hand_computed_spearman(self):
        # ranks (1,2,3,4) vs (1,3,2,4): 1 - 6*2/(4*15) = 0.8
        pearson, spearman = compare(np.array([1.0, 2, 3, 4]), np.array([1.0, 3, 2, 4]))
        assert spearman == 0.8

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        assert compare(a, b) == compare(b, a)

    def test_spearman_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(15)
        b = rng.standard_normal(15)
        _, s1 = compare(a, b)
        _, s2 = compare(np.exp(a), b)
        _, s3 = compare(a, 3.0 * b - 7.0)
        assert np.isclose(s1, s2) and np.isclose(s1, s3)

    def test_ties_use_average_ranks(self):
        _, s = compare(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        # ranks a = (1.5, 1.5, 3): hand Pearson of ranks
        ra = np.array([1.5, 1.5, 3.0])
        rb = np.array([1.0, 2.0, 3.0])
        ua, ub = ra - ra.mean(), rb - rb.mean()
        assert np.isclose(s, np.sum(ua * ub) / np.sqrt(np.sum(ua**2) * np.sum(ub**2)))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            compare(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_average_ranks_match_scipy(self, values):
        """Drawn from seven values, so most inputs hold ties."""
        values = np.array(values, dtype=np.float64)
        assert np.array_equal(_average_ranks(values), rankdata(values))

    def test_average_ranks_propagate_nan(self):
        values = np.array([2.0, np.nan, 1.0])
        assert np.all(np.isnan(_average_ranks(values)))
        assert np.all(np.isnan(rankdata(values)))


def test_import_leaves_scipy_stats_unloaded():
    """Every CLI command is a fresh process; scipy.stats alone took most
    of the package's import time."""
    src = str(Path(textideal.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, textideal, textideal.cli; sys.exit('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert done.returncode == 0


def _fit(beta, eta, theta=None, x=None, eta_sigma=None, names=None):
    beta = np.asarray(beta, dtype=float)
    eta = np.asarray(eta, dtype=float)
    k, v = beta.shape
    return FitResult(
        theta_hat=np.ones((3, k)) if theta is None else np.asarray(theta, float),
        beta_hat=beta,
        eta_hat=eta,
        x_hat=np.array([-1.0, 0.5, 1.5]) if x is None else np.asarray(x, float),
        elbo_trace=[],
        config={},
        author_names=names,
        eta_sigma=eta_sigma,
    )


class TestTopicReport:
    def test_zero_tilt_gives_identical_orderings(self):
        rng = np.random.default_rng(2)
        beta = rng.gamma(1.0, 1.0, (2, 6)) + 0.05
        fit = _fit(beta, np.zeros((2, 6)))
        vocab = Vocabulary([f"t{c}" for c in "abcdef"])
        report = topic_report(fit, vocab, 6)
        for topic in report.topics:
            assert topic["negative"] == topic["neutral"] == topic["positive"]

    def test_negligible_tilt_keeps_neutral_orderings(self):
        rng = np.random.default_rng(8)
        beta = rng.gamma(1.0, 1.0, (3, 10)) + 0.05
        eta = 1e-13 * rng.standard_normal((3, 10))
        vocab = Vocabulary([f"t{chr(97 + v)}" for v in range(10)])
        report = topic_report(_fit(beta, eta), vocab, 10)
        for topic in report.topics:
            assert topic["negative"] == topic["neutral"] == topic["positive"]

    def test_positive_tilt_promotes_term_at_positive_pole(self):
        beta = np.array([[1.0, 1.0, 1.0]])
        eta = np.array([[0.0, 0.7, 0.0]])
        vocab = Vocabulary(["aa", "bb", "cc"])
        report = topic_report(_fit(beta, eta), vocab, 3)
        topic = report.topics[0]
        assert topic["neutral"] == ["aa", "bb", "cc"]  # tie kept in index order
        assert topic["positive"][0] == "bb"
        assert topic["negative"][-1] == "bb"

    def test_exact_expectation_flag(self):
        beta = np.array([[1.0, 1.0]])
        eta = np.array([[0.5, -0.5]])
        sigma = np.array([[0.1, 1.5]])  # large scale boosts the second term
        vocab = Vocabulary(["left", "right"])
        plug = topic_report(_fit(beta, eta), vocab, 2)
        exact = topic_report(_fit(beta, eta, eta_sigma=sigma), vocab, 2,
                             exact_expectation=True)
        assert plug.topics[0]["positive"] == ["left", "right"]
        # exp(0.5 + 0.005) < exp(-0.5 + 1.125): variance flips the order
        assert exact.topics[0]["positive"] == ["right", "left"]

    def test_exact_flag_requires_scales(self):
        with pytest.raises(ValueError):
            topic_report(_fit(np.ones((1, 2)), np.zeros((1, 2))),
                         Vocabulary(["aa", "bb"]), 1, exact_expectation=True)

    @pytest.mark.parametrize("terms", [["aa"], ["aa", "bb", "cc"]])
    def test_vocabulary_size_must_match_the_fit(self, terms):
        with pytest.raises(ValueError, match="fit has 2 terms"):
            topic_report(_fit(np.ones((1, 2)), np.zeros((1, 2))), Vocabulary(terms), 1)


def _small_corpus():
    counts = np.array([[2.0, 0, 1], [0, 1, 0], [3, 1, 1]])
    return SparseCorpus(sp.csr_matrix(counts), [0, 1, 0], ["left", "right"])


class TestInfluence:
    @pytest.mark.parametrize("num_docs", [2, 4])
    def test_document_count_must_match_the_fit(self, num_docs):
        rng = np.random.default_rng(3)
        fit = _fit(rng.gamma(1, 1, (2, 3)) + 0.1, np.zeros((2, 3)),
                   theta=rng.gamma(1, 1, (num_docs, 2)) + 0.1, x=np.array([-1.3, 0.8]))
        with pytest.raises(ValueError, match=f"fit has {num_docs} documents"):
            influence(fit, _small_corpus(), 0)

    def test_zero_tilt_means_zero_ratios(self):
        corpus = _small_corpus()
        rng = np.random.default_rng(3)
        fit = _fit(rng.gamma(1, 1, (2, 3)) + 0.1, np.zeros((2, 3)),
                   theta=rng.gamma(1, 1, (3, 2)) + 0.1, x=np.array([-1.3, 0.8]))
        for doc in range(3):
            score = influence(fit, corpus, doc)
            assert score.ratio_vs_zero == 0.0
            assert score.ratio_vs_max == 0.0
            assert score.ratio_vs_min == 0.0

    def test_zero_position_author(self):
        corpus = _small_corpus()
        rng = np.random.default_rng(4)
        fit = _fit(rng.gamma(1, 1, (2, 3)) + 0.1, rng.standard_normal((2, 3)),
                   theta=rng.gamma(1, 1, (3, 2)) + 0.1, x=np.array([0.0, 0.9]))
        score = influence(fit, corpus, 0)  # author "left" sits exactly at 0
        assert score.ratio_vs_zero == 0.0

    def test_matches_independent_pmf(self):
        corpus = _small_corpus()
        rng = np.random.default_rng(5)
        fit = _fit(rng.gamma(1, 1, (2, 3)) + 0.1, rng.standard_normal((2, 3)),
                   theta=rng.gamma(1, 1, (3, 2)) + 0.1, x=np.array([-0.7, 1.1]))
        weights = compute_weights(corpus)
        doc = 2
        score = influence(fit, corpus, doc)
        author = corpus.author_of[doc]
        y = corpus.counts[doc].toarray()[0]

        def oracle(x_val):
            lam = weights[author] * (
                fit.theta_hat[doc] @ (fit.beta_hat * np.exp(x_val * fit.eta_hat))
            )
            return poisson.logpmf(y, lam).sum()

        base = oracle(fit.x_hat[author])
        assert abs(score.ratio_vs_zero - (base - oracle(0.0))) <= 1e-12
        assert abs(score.ratio_vs_max - (base - oracle(fit.x_hat.max()))) <= 1e-12
        assert abs(score.ratio_vs_min - (base - oracle(fit.x_hat.min()))) <= 1e-12

    def test_log_count_fit_is_scored_on_log_counts(self):
        corpus = SparseCorpus(sp.csr_matrix(np.array([[9.0, 0, 4], [0, 2, 0], [30, 1, 6]])),
                              [0, 1, 0], ["left", "right"])
        rng = np.random.default_rng(7)
        fit = _fit(rng.gamma(1, 1, (2, 3)) + 0.1, rng.standard_normal((2, 3)),
                   theta=rng.gamma(1, 1, (3, 2)) + 0.1, x=np.array([-0.7, 1.1]))
        log_fit = dataclasses.replace(fit, config={"use_log_transform": True})
        for doc in range(3):
            assert influence(log_fit, corpus, doc) == influence(fit, log_transform(corpus), doc)
        assert influence(log_fit, corpus, 2) != influence(fit, corpus, 2)

    def test_ratios_survive_document_reindexing(self):
        corpus = _small_corpus()
        rng = np.random.default_rng(6)
        theta = rng.gamma(1, 1, (3, 2)) + 0.1
        fit = _fit(rng.gamma(1, 1, (2, 3)) + 0.1, rng.standard_normal((2, 3)),
                   theta=theta, x=np.array([-0.7, 1.1]))
        perm = [2, 0, 1]
        corpus2 = SparseCorpus(corpus.counts[perm], corpus.author_of[perm],
                               corpus.author_names,
                               doc_ids=[corpus.doc_ids[p] for p in perm])
        fit2 = _fit(fit.beta_hat, fit.eta_hat, theta=theta[perm], x=fit.x_hat)
        for new_idx, old_idx in enumerate(perm):
            a = influence(fit, corpus, old_idx)
            b = influence(fit2, corpus2, new_idx)
            assert a.doc_id == b.doc_id
            assert np.isclose(a.ratio_vs_zero, b.ratio_vs_zero)
            assert np.isclose(a.ratio_vs_max, b.ratio_vs_max)


class TestExpectedCountRatio:
    def test_no_tilt_no_change(self):
        fit = _fit(np.ones((1, 2)), np.zeros((1, 2)))
        assert expected_count_ratio(fit, 0, 1, -1.0, 1.0) == 1.0

    def test_doubling_tilt(self):
        fit = _fit(np.ones((1, 1)), np.array([[math.log(2.0)]]))
        assert np.isclose(expected_count_ratio(fit, 0, 0, -1.0, 1.0), 4.0)

    def test_matches_rate_ratio(self):
        rng = np.random.default_rng(7)
        beta = rng.gamma(1, 1, (2, 4)) + 0.1
        eta = rng.standard_normal((2, 4))
        fit = _fit(beta, eta)
        k, v, lo, hi = 1, 2, -0.8, 1.7
        theta = np.zeros(2)
        theta[k] = 1.0
        hi_rate = tbip_rate(theta, beta, eta, hi, 1.0)[v]
        lo_rate = tbip_rate(theta, beta, eta, lo, 1.0)[v]
        assert abs(expected_count_ratio(fit, k, v, lo, hi) - hi_rate / lo_rate) <= 1e-12


class TestPointsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "points.csv"
        save_ideal_points_csv(path, ["a", "b"], np.array([-1.25, 0.5]))
        names, scores = load_ideal_points_csv(path)
        assert names == ["a", "b"]
        assert np.array_equal(scores, [-1.25, 0.5])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.text(max_size=6), st.sampled_from(
            ["name", "score", "Smith, John", '"q"', 'x"", y', "line\nbreak", " pad "])),
        st.floats(allow_nan=False)), min_size=1, max_size=6, unique_by=lambda row: row[0]))
    def test_save_load_round_trip_property(self, rows):
        names = [n for n, _ in rows]
        scores = np.array([v for _, v in rows], dtype=np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            save_ideal_points_csv(Path(tmp) / "points.csv", names, scores)
            loaded_names, loaded = load_ideal_points_csv(Path(tmp) / "points.csv")
        assert loaded_names == names
        assert loaded.tobytes() == scores.tobytes()

    @pytest.mark.parametrize("line", ["lonely", "b,high"])
    def test_malformed_row_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "points.csv"
        save_ideal_points_csv(path, ["a"], np.array([1.0]))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError) as err:
            load_ideal_points_csv(path)
        assert str(err.value).startswith(f"{path}:3: ")

    def test_repeated_name_names_file_and_line(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("name,score\na,1.0\nb,2.0\na,-100\n", encoding="utf-8")
        with pytest.raises(ValueError, match="repeats name 'a'") as err:
            load_ideal_points_csv(path)
        assert str(err.value).startswith(f"{path}:4: ")

    def test_match_by_name_inner_join(self):
        a, b = match_by_name(["x", "y", "z"], np.array([1.0, 2.0, 3.0]),
                             ["z", "x"], np.array([30.0, 10.0]))
        assert np.array_equal(a, [1.0, 3.0])
        assert np.array_equal(b, [10.0, 30.0])

    def test_match_by_name_disjoint(self):
        with pytest.raises(ValueError):
            match_by_name(["a"], np.array([1.0]), ["b"], np.array([2.0]))
