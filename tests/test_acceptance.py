"""Acceptance suite.

One test per numbered criterion; each prints a PASS/FAIL line with its key
measurement and enforces the stated tolerance and runtime budget.
Run with `pytest tests/test_acceptance.py -s` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from _oracles import quadrature_elbo
from textideal import engine, pf
from textideal.analysis import compare
from textideal.corpus import SparseCorpus, compute_weights, log_transform
from textideal.synth import SynthSpec, sample_tbip, sample_votes
from textideal.tbip import PriorConfig, TBIPModel, TrainConfig, make_state, train_tbip
from textideal.vote import train_vote, vote_prob


def _report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _tilted_instance(seed, num_docs=3, num_terms=5, num_topics=2, num_authors=2):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(num_docs, num_terms)).astype(float)
    counts[:, 0] += 1
    corpus = SparseCorpus(sp.csr_matrix(counts),
                          np.arange(num_docs) % num_authors,
                          [f"a{i}" for i in range(num_authors)])
    theta0 = rng.gamma(1.0, 1.0, size=(num_docs, num_topics)) + 0.2
    beta0 = rng.gamma(1.0, 1.0, size=(num_topics, num_terms)) + 0.2
    state = make_state(corpus, num_topics, theta0, beta0, PriorConfig(), rng)
    model = TBIPModel(corpus, compute_weights(corpus))
    return state, model, corpus, rng


def test_criterion_1_gradient_oracle():
    started = time.time()
    state, model, corpus, rng = _tilted_instance(seed=11)
    noise = state.sample_noise(rng)
    batch = np.arange(corpus.num_docs)
    grads = state.views(engine.gradient(state, batch, model, corpus.num_docs, noise)[1])

    def fn(params):
        state.set_parameters(params)
        return engine.elbo_estimate(state, batch, model, corpus.num_docs, noise)

    fd = engine.finite_difference(fn, state.parameters(), step=1e-5)
    worst = max(
        float(np.max(np.abs(grads[k] - fd[k]) / np.maximum(np.abs(fd[k]), 1e-8)))
        for k in fd
    )
    elapsed = time.time() - started
    ok = worst <= 1e-4 and elapsed < 1.0
    _report(1, "gradient vs central finite differences", ok,
            f"max rel err {worst:.2e} (<=1e-4), {elapsed:.2f}s (<1s)")


def test_criterion_2_elbo_unbiasedness():
    started = time.time()
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

    draws = 100_000
    batch = np.array([0])
    values = np.empty(draws)
    for i in range(draws):
        values[i] = engine.elbo_estimate(state, batch, model, 1,
                                         state.sample_noise(rng))
    mc_mean = values.mean()
    mc_se = values.std(ddof=1) / math.sqrt(draws)
    oracle = quadrature_elbo(state, y, w=1.0, prior_a=0.3, prior_b=0.3, nodes=40)
    gap = abs(mc_mean - oracle)
    elapsed = time.time() - started
    ok = gap <= 3.0 * mc_se and elapsed < 30.0
    _report(2, "Monte Carlo objective vs Gauss-Hermite quadrature", ok,
            f"|mc-quad|={gap:.4f} vs 3se={3 * mc_se:.4f}, {elapsed:.1f}s (<30s)")


def test_criterion_3_tbip_synthetic_recovery():
    started = time.time()

    def recovery(seed, polarity):
        spec = SynthSpec(num_docs=1000, num_terms=300, num_authors=20,
                         num_topics=5, polarity_scale=polarity, seed=seed)
        corpus, truth = sample_tbip(spec)
        cfg = TrainConfig(k=5, batch_size=512, max_steps=2500, seed=seed,
                          lr=0.01, elbo_report_interval=1000, pretrain_sweeps=50)
        fit = train_tbip(corpus, cfg)
        return abs(float(np.corrcoef(fit.x_hat, truth.x)[0, 1]))

    corrs = [recovery(seed, polarity=1.0) for seed in (1, 2, 3)]
    control = recovery(1, polarity=0.0)
    elapsed = time.time() - started
    passed = sum(c >= 0.85 for c in corrs)
    ok = passed >= 2 and control < 0.3 and elapsed <= 600.0
    _report(3, "text model synthetic recovery", ok,
            f"|corr|={['%.3f' % c for c in corrs]} ({passed}/3 >= 0.85), "
            f"control {control:.3f} (<0.3), {elapsed:.0f}s (<=600s)")


def test_criterion_4_vote_synthetic_recovery():
    started = time.time()
    spec = SynthSpec(num_docs=300, num_terms=1, num_authors=50,
                     polarity_scale=1.0, seed=1)
    votes, truth = sample_votes(spec)
    cfg = TrainConfig(batch_size=10_000, max_steps=2000, seed=1, lr=0.02,
                      elbo_report_interval=1000)
    fit = train_vote(votes, cfg)
    corr = abs(float(np.corrcoef(fit.x_hat, truth.x)[0, 1]))
    elapsed = time.time() - started
    ok = corr >= 0.95 and elapsed <= 120.0
    _report(4, "vote model synthetic recovery", ok,
            f"|corr|={corr:.4f} (>=0.95), {elapsed:.0f}s (<=120s)")


def test_criterion_5_factorization_monotonicity():
    rng = np.random.default_rng(0)
    dense = rng.poisson(1.0, size=(20, 50)).astype(float)
    dense[:, 0] += 1
    corpus = SparseCorpus(sp.csr_matrix(dense), rng.integers(0, 4, 20),
                          [f"a{i}" for i in range(4)])
    state = pf.init_state(20, 50, 3, 0.3, 0.3, rng)
    prev = pf.pf_elbo(state, corpus)
    worst = np.inf
    for _ in range(50):
        state = pf.cavi_step(state, corpus)
        value = pf.pf_elbo(state, corpus)
        worst = min(worst, (value - prev) / abs(prev))
        prev = value
    ok = worst >= -1e-9
    _report(5, "coordinate-ascent objective monotone over 50 sweeps", ok,
            f"worst relative step {worst:.2e} (>=-1e-9)")


def test_criterion_6_model_reduction_identity():
    from textideal.tbip import tbip_rate

    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        v = int(rng.integers(1, 8))
        theta = rng.gamma(1.0, 1.0, k) + 0.05
        beta = rng.gamma(1.0, 1.0, (k, v)) + 0.05
        x = float(rng.standard_normal())
        w = float(rng.uniform(0.25, 4.0))
        tilted = tbip_rate(theta, beta, np.zeros((k, v)), x, w)
        plain = w * (theta @ (beta * np.ones((k, v))))
        if not np.array_equal(tilted, plain):
            failures += 1
    ok = failures == 0
    _report(6, "zero tilt reduces to plain factorization bitwise", ok,
            f"{failures}/1000 mismatches")


def test_criterion_7_sign_symmetry():
    from textideal.tbip import tbip_rate

    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        v = int(rng.integers(1, 7))
        theta = rng.gamma(1.0, 1.0, k) + 0.05
        beta = rng.gamma(1.0, 1.0, (k, v)) + 0.05
        eta = rng.standard_normal((k, v))
        x = float(rng.standard_normal())
        w = float(rng.uniform(0.25, 4.0))
        if not np.array_equal(tbip_rate(theta, beta, eta, x, w),
                              tbip_rate(theta, beta, -eta, -x, w)):
            failures += 1
        alpha, eta_j, x_i = rng.standard_normal(3) * 2.0
        if vote_prob(alpha, eta_j, x_i) != vote_prob(alpha, -eta_j, -x_i):
            failures += 1
    ok = failures == 0
    _report(7, "joint sign flip leaves rates and vote probabilities bitwise", ok,
            f"{failures}/2000 mismatches")


def test_criterion_8_weights_and_log_transform():
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 40))
        s = int(rng.integers(1, min(d, 8) + 1))
        dense = rng.poisson(2.5, size=(d, 6)) + 1
        author_of = np.concatenate([np.arange(s), rng.integers(0, s, d - s)])
        corpus = SparseCorpus(sp.csr_matrix(dense.astype(float)), author_of,
                              [f"a{i}" for i in range(s)])
        w = compute_weights(corpus)
        worst = max(worst, abs(float(w.mean()) - 1.0))
    for seed in (0, 1, 2):
        corpus, _ = sample_tbip(SynthSpec(num_docs=60, num_terms=30,
                                          num_authors=6, num_topics=2, seed=seed))
        w = compute_weights(corpus)
        worst = max(worst, abs(float(w.mean()) - 1.0))

    ones = SparseCorpus(sp.csr_matrix(np.ones((3, 4))), [0, 1, 0], ["a", "b"])
    transformed = log_transform(ones)
    exact_ones = np.array_equal(transformed.counts.toarray(), np.ones((3, 4)))
    ok = worst <= 1e-12 and exact_ones
    _report(8, "verbosity weights mean one; unit counts fixed by log transform",
            ok, f"worst |mean(w)-1|={worst:.2e} (<=1e-12), 1->1 exact={exact_ones}")


def test_criterion_9_metric_correctness():
    pearson_rev, spearman_rev = compare(np.array([1.0, 2.0, 3.0, 4.0]),
                                        np.array([4.0, 3.0, 2.0, 1.0]))
    identical = compare(np.array([0.3, -1.2, 4.0, 2.5]),
                        np.array([0.3, -1.2, 4.0, 2.5]))
    _, spearman = compare(np.array([1.0, 2.0, 3.0, 4.0]),
                          np.array([1.0, 3.0, 2.0, 4.0]))
    ok = (identical == (1.0, 1.0) and (pearson_rev, spearman_rev) == (-1.0, -1.0)
          and spearman == 0.8)
    _report(9, "correlation metrics reproduce hand-computed values", ok,
            f"identical={identical}, reversal=({pearson_rev}, {spearman_rev}), "
            f"tied-pair spearman={spearman}")


def test_criterion_10_end_to_end_pipeline(tmp_path):
    """Full pipeline on a supplied corpus: preprocess, train, align,
    topic report and external comparison. Artifact presence only; real
    corpora are out of desk-scale reach so no numeric tolerance applies."""
    from textideal.cli import main

    spec = SynthSpec(num_docs=150, num_terms=60, num_authors=8, num_topics=2,
                     polarity_scale=1.0, seed=5)
    corpus, truth = sample_tbip(spec)
    terms = [f"w{chr(97 + v // 26)}{chr(97 + v % 26)}" for v in range(corpus.num_terms)]
    docs_path = tmp_path / "docs.jsonl"
    with open(docs_path, "w", encoding="utf-8") as fh:
        rows, cols, vals = corpus.entries()
        text_by_doc = {}
        for d, v, c in zip(rows, cols, vals):
            text_by_doc.setdefault(int(d), []).extend([terms[int(v)]] * int(c))
        for d in range(corpus.num_docs):
            fh.write(json.dumps({
                "id": corpus.doc_ids[d],
                "author": corpus.author_names[corpus.author_of[d]],
                "text": " ".join(text_by_doc.get(d, [])),
            }) + "\n")
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8") as fh:
        fh.write("name,score\n")
        for name, score in zip(corpus.author_names, truth.x):
            fh.write(f"{name},{score}\n")

    data = tmp_path / "corpus"
    fit = tmp_path / "fit"
    reports = tmp_path / "reports"
    cmp_dir = tmp_path / "cmp"
    steps = [
        ["preprocess", "--input", str(docs_path), "--output-dir", str(data),
         "--min-df", "0.001", "--max-df", "1.0", "--min-authors", "2",
         "--ngrams", "1"],
        ["train", "tbip", "--data", str(data), "--output-dir", str(fit),
         "--k", "2", "--batch", "128", "--steps", "400", "--seed", "1",
         "--log-counts", "auto", "--report-interval", "100",
         "--pretrain-sweeps", "30"],
        ["analyze", "topics", "--fit", str(fit), "--data", str(data),
         "--output-dir", str(reports), "--top", "8"],
        ["analyze", "align", "--fit", str(fit), "--output-dir", str(reports)],
        ["analyze", "compare", "--fit", str(fit), "--reference", str(reference),
         "--output-dir", str(cmp_dir)],
        ["analyze", "influence", "--fit", str(fit), "--data", str(data),
         "--output-dir", str(reports), "--doc", "0"],
    ]
    codes = [main(argv) for argv in steps]
    artifacts = [
        data / "counts.txt", data / "weights.csv",
        fit / "x.bin", fit / "elbo.csv",
        reports / "topics.md", reports / "topics.json",
        reports / "ideal_points.csv", reports / "influence.json",
        cmp_dir / "comparison.csv", cmp_dir / "comparison.json",
    ]
    missing = [str(p) for p in artifacts if not p.exists()]
    ok = codes == [0] * len(steps) and not missing
    _report(10, "end-to-end pipeline emits comparison table and plot CSVs", ok,
            f"exit codes {codes}, missing={missing or 'none'}")
