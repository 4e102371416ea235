"""Independent numerical oracles shared by the test modules.

Everything here is computed without touching the code paths under test:
quadrature instead of Monte Carlo, direct density formulas instead of the
library's family classes, the sample-space form of the engine's gradient,
and the straightforward loop forms of the fast kernels (one bincount per
topic, scipy's logsumexp, one mask per author, one arange per bill, one
loop step per recorded vote, one gradient array and one Adam update per
parameter array, one engine run per wordfish debate, one dict update per
n-gram in preprocessing, one write per counts line).
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import scipy.sparse as sp
from scipy.special import digamma, expit, gammaln, logsumexp

from textideal.corpus import _TOKEN_RE, AllDocumentsFiltered, SparseCorpus, Vocabulary

LOG_2PI = math.log(2.0 * math.pi)


def quadrature_elbo(state, y, w, prior_a, prior_b, nodes=40):
    """Tensor-product Gauss-Hermite value of the single-document,
    single-term, single-topic objective.

    Integrates the log prior, Poisson log likelihood and negative log
    density of the variational factors over all four scalar latents.
    """
    t, wts = np.polynomial.hermite.hermgauss(nodes)
    z = math.sqrt(2.0) * t
    probs = wts / math.sqrt(math.pi)

    def fam_params(name):
        fam = state.families[name]
        return float(fam.mu.ravel()[0]), float(fam.sigma.ravel()[0])

    mu_t, sd_t = fam_params("theta")
    mu_b, sd_b = fam_params("beta")
    mu_e, sd_e = fam_params("eta")
    mu_x, sd_x = fam_params("x")

    zt = (mu_t + sd_t * z)[:, None, None, None]
    zb = (mu_b + sd_b * z)[None, :, None, None]
    ze = (mu_e + sd_e * z)[None, None, :, None]
    zx = (mu_x + sd_x * z)[None, None, None, :]
    theta = np.exp(zt)
    beta = np.exp(zb)

    lgamma_a = math.lgamma(prior_a)

    def gamma_logpdf(s):
        return (prior_a * math.log(prior_b) - lgamma_a
                + (prior_a - 1.0) * np.log(s) - prior_b * s)

    def normal_logpdf(s):
        return -0.5 * LOG_2PI - 0.5 * s * s

    log_prior = (gamma_logpdf(theta) + gamma_logpdf(beta)
                 + normal_logpdf(ze) + normal_logpdf(zx))

    def lognormal_logq(s, mu, sd):
        ls = np.log(s)
        return -0.5 * LOG_2PI - math.log(sd) - ls - 0.5 * ((ls - mu) / sd) ** 2

    def normal_logq(s, mu, sd):
        return -0.5 * LOG_2PI - math.log(sd) - 0.5 * ((s - mu) / sd) ** 2

    log_q = (lognormal_logq(theta, mu_t, sd_t) + lognormal_logq(beta, mu_b, sd_b)
             + normal_logq(ze, mu_e, sd_e) + normal_logq(zx, mu_x, sd_x))

    rate = w * theta * beta * np.exp(zx * ze)
    loglik = y * np.log(rate) - rate - math.lgamma(y + 1.0)

    integrand = log_prior + loglik - log_q
    weight = (probs[:, None, None, None] * probs[None, :, None, None]
              * probs[None, None, :, None] * probs[None, None, None, :])
    return float(np.sum(weight * integrand))


# The engine's objective and gradient as they were taken in sample space:
# log p(s) and log q(s) with the -log s Jacobian on the lognormal density,
# model gradients d loglik / d s, and the chain rule through s = exp(u).


def gamma_log_prob(s, a, b):
    """Gamma(a, b) log density at positive samples s."""
    if np.any(s <= 0):
        raise ValueError("nonpositive sample under a Gamma prior")
    return float(np.sum(a * math.log(b) - gammaln(a) + (a - 1.0) * np.log(s) - b * s))


def family_log_density(fam, s):
    """log q at the sample s: normal in s, or lognormal when `fam.positive`."""
    base = -0.5 * LOG_2PI - fam.log_sigma
    if not fam.positive:
        t = (s - fam.mu) / fam.sigma
        return float(np.sum(base - 0.5 * t * t))
    if np.any(s <= 0):
        raise ValueError("lognormal density evaluated at a nonpositive point")
    ls = np.log(s)
    t = (ls - fam.mu) / fam.sigma
    return float(np.sum(base - ls - 0.5 * t * t))


def _prior_terms(prior, s):
    """(log p(s), d log p / d s) for a Gamma (shape, rate) or standard normal prior."""
    if hasattr(prior, "rate"):
        a, b = prior.shape, prior.rate
        return gamma_log_prob(s, a, b), (a - 1.0) / s - b
    return float(np.sum(-0.5 * LOG_2PI - 0.5 * s * s)), -s


def sample_space_gradient(state, batch, loglik, num_items, noise):
    """The engine gradient taken in sample space.

    `loglik(samples, batch)` returns (value, d loglik / d sample). Returns
    (estimate, {key: gradient}), keyed like `state.views` of
    `engine.gradient`'s buffer.
    """
    batch = np.atleast_1d(np.asarray(batch))
    samples = {}
    for name, fam in state.families.items():
        u = fam.mu + fam.sigma * noise[name]
        samples[name] = np.exp(u) if fam.positive else u
    priors = {name: _prior_terms(state.priors[name], samples[name]) for name in state.families}
    log_prior = sum(priors[name][0] for name in state.families)
    log_q = sum(family_log_density(state.families[name], samples[name])
                for name in state.families)
    value, lik_grads = loglik(samples, batch)
    scale = num_items / batch.size

    grads = {}
    for name, fam in state.families.items():
        s, z = samples[name], noise[name]
        ds = priors[name][1]
        g = lik_grads.get(name)
        if g is not None:
            ds = ds + scale * g
        if fam.positive:
            dmu_s, dls_s = s, s * z * fam.sigma
            q_mu, q_ls = -np.ones_like(fam.mu), -1.0 - z * fam.sigma
        else:
            dmu_s, dls_s = np.ones_like(fam.mu), z * fam.sigma
            q_mu, q_ls = np.zeros_like(fam.mu), -np.ones_like(fam.log_sigma)
        grads[f"{name}.mu"] = ds * dmu_s - q_mu
        grads[f"{name}.log_sigma"] = ds * dls_s - q_ls
    return log_prior + scale * value - log_q, grads


def _per_array_gradient(state, batch, model, num_items, noise):
    """The objective estimate and one new gradient array per parameter array."""
    draws = state.draw(noise)
    log_prior = log_q = 0
    for name, (u, s, sigma) in draws.items():
        log_prior += state.priors[name].log_prob(u, s)
        log_q += state.families[name].log_density(u, sigma)
    loglik, lik_grads = model.loglik({name: s for name, (_, s, _) in draws.items()}, batch)
    scale = num_items / batch.size
    grads = {}
    for name, (_, s, sigma) in draws.items():
        du = state.priors[name].dlog_prob(s)
        if name in lik_grads:
            du = du + scale * lik_grads[name]
        grads[f"{name}.mu"] = du
        grads[f"{name}.log_sigma"] = du * (noise[name] * sigma) + 1.0
    return log_prior + scale * loglik - log_q, grads


def per_array_fit(state, model, cfg, rng):
    """`engine.fit` with a gradient dict per draw, draws summed key by key,
    and one Adam update with its own moments per parameter array."""
    params = state.parameters()
    m = {key: np.zeros_like(p) for key, p in params.items()}
    v = {key: np.zeros_like(p) for key, p in params.items()}
    num_items = model.num_items
    fixed = np.arange(num_items)
    trace = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, cfg.max_steps + 1):
            if cfg.batch_size >= num_items:
                batch = fixed
            else:
                batch = rng.choice(num_items, cfg.batch_size, replace=False)
            value, total = _per_array_gradient(state, batch, model, num_items,
                                               state.sample_noise(rng))
            for _ in range(1, cfg.mc_samples):
                draw, grads = _per_array_gradient(state, batch, model, num_items,
                                                  state.sample_noise(rng))
                value = value + draw
                total = {k: total[k] + g for k, g in grads.items()}
            if cfg.mc_samples > 1:
                value = value / cfg.mc_samples
                total = {k: g / cfg.mc_samples for k, g in total.items()}
            value = float(value)
            c1, c2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for key, p in params.items():
                g = total[key]
                m[key] = 0.9 * m[key] + (1.0 - 0.9) * g
                v[key] = 0.999 * v[key] + (1.0 - 0.999) * g * g
                p += cfg.lr * (m[key] / c1) / (np.sqrt(v[key] / c2) + 1e-8)
            if step == 1 or step % cfg.elbo_report_interval == 0 or step == cfg.max_steps:
                trace.append((step, value))
    return trace


def _expected_logs(state):
    return (digamma(state.q_theta.shape) - np.log(state.q_theta.rate),
            digamma(state.q_beta.shape) - np.log(state.q_beta.rate))


def pf_scores(state, rows, cols):
    """Unnormalized log responsibilities of each stored nonzero (nnz x K)."""
    elog_theta, elog_beta = _expected_logs(state)
    return elog_theta[rows] + elog_beta.T[cols]


def pf_phi(state, rows, cols):
    """Responsibilities over topics for each stored nonzero, rows sum to 1."""
    scores = pf_scores(state, rows, cols)
    scores -= scores.max(axis=1, keepdims=True)
    phi = np.exp(scores)
    phi /= phi.sum(axis=1, keepdims=True)
    return phi


def pf_sweep(state, rows, cols, y, shape):
    """One coordinate sweep with one bincount per topic.

    Returns the new (theta_shape, theta_rate, beta_shape, beta_rate).
    """
    num_docs, num_terms = shape
    num_topics = state.q_theta.shape.shape[1]
    a, b = state.prior_shape, state.prior_rate
    weighted = y[:, None] * pf_phi(state, rows, cols)
    theta_shape = np.empty((num_docs, num_topics))
    beta_shape = np.empty((num_topics, num_terms))
    for k in range(num_topics):
        theta_shape[:, k] = a + np.bincount(rows, weights=weighted[:, k], minlength=num_docs)
        beta_shape[k] = a + np.bincount(cols, weights=weighted[:, k], minlength=num_terms)
    beta_mean = state.q_beta.shape / state.q_beta.rate
    theta_rate = np.broadcast_to(b + beta_mean.sum(axis=1), (num_docs, num_topics)).copy()
    theta_mean = theta_shape / theta_rate
    beta_rate = np.broadcast_to(
        (b + theta_mean.sum(axis=0))[:, None], (num_topics, num_terms)).copy()
    return theta_shape, theta_rate, beta_shape, beta_rate


def pf_objective(state, rows, cols, y):
    """Augmented Poisson-factorization objective, normalizers by logsumexp."""
    a, b = state.prior_shape, state.prior_rate
    value = 0.0
    for fam, elog in zip((state.q_theta, state.q_beta), _expected_logs(state)):
        mean = fam.shape / fam.rate
        prior = np.sum(a * np.log(b) - gammaln(a) + (a - 1.0) * elog - b * mean)
        entropy = np.sum(fam.shape - np.log(fam.rate) + gammaln(fam.shape)
                         + (1.0 - fam.shape) * digamma(fam.shape))
        value += float(prior + entropy)
    value -= float((state.q_theta.shape / state.q_theta.rate).sum(axis=0)
                   @ (state.q_beta.shape / state.q_beta.rate).sum(axis=1))
    if len(y):
        scores = pf_scores(state, rows, cols)
        value += float(np.sum(y * logsumexp(scores, axis=1)) - np.sum(gammaln(y + 1.0)))
    return value


def tbip_loglik(counts, author_of, weights, samples, doc_idx):
    """Minibatch TBIP log likelihood and gradients, one mask per author.

    `counts` is the dense D x V count matrix.
    """
    theta, beta, eta, x = (samples[k] for k in ("theta", "beta", "eta", "x"))
    value = 0.0
    grads = {k: np.zeros_like(samples[k]) for k in ("theta", "beta", "eta", "x")}
    batch_authors = author_of[doc_idx]
    for a in np.unique(batch_authors):
        docs = doc_idx[batch_authors == a]
        w = weights[a]
        tilt = np.exp(x[a] * eta)
        basis = beta * tilt
        th = theta[docs]
        lam = w * (th @ basis)
        y = counts[docs]
        value += float(np.sum(y * np.log(lam)) - lam.sum() - np.sum(gammaln(y + 1.0)))
        resid = y / lam - 1.0
        grads["theta"][docs] = w * (resid @ basis.T)
        cross = th.T @ resid
        grads["beta"] += w * cross * tilt
        grads["eta"] += (w * x[a]) * cross * basis
        grads["x"][a] = w * np.sum(cross * basis * eta)
    return value, grads


def vote_entry_indices(indptr, bill_idx):
    """Entry positions of the batch's bills, one arange per bill."""
    return np.concatenate([np.arange(indptr[b], indptr[b + 1]) for b in bill_idx])


def vote_loglik(votes, samples, bill_idx):
    """Vote log likelihood and gradients, one recorded vote at a time.

    Each of the batch's bills (repeats counted again) adds its recorded
    votes' -log(1 + exp(-(2v - 1) t)) through np.logaddexp, with
    d/dt = v - expit(t).
    """
    x, alpha, eta = samples["x"], samples["alpha"], samples["eta"]
    grads = {name: np.zeros_like(samples[name]) for name in ("x", "alpha", "eta")}
    value = 0.0
    for j in bill_idx:
        for i, b, v in zip(votes.lawmaker_idx, votes.bill_idx, votes.votes):
            if b != j:
                continue
            t = alpha[j] + eta[j] * x[i]
            value -= float(np.logaddexp(0.0, -(2.0 * v - 1.0) * t))
            g = v - float(expit(t))
            grads["alpha"][j] += g
            grads["eta"][j] += g * x[i]
            grads["x"][i] += g * eta[j]
    return value, grads


def wordfish_loglik(counts, samples, rows):
    """Wordfish log likelihood and gradients on one dense author-by-term
    count matrix, the single-model form of the stacked kernel."""
    alpha, psi, b, x = (samples[k] for k in ("alpha", "psi", "b", "x"))
    y = counts[rows]
    t = alpha[rows, None] + psi[None, :] + np.outer(x[rows], b)
    lam = np.exp(t)
    value = float(np.sum(y * t - lam) - gammaln(counts + 1.0).sum(axis=1)[rows].sum())
    g = y - lam
    dalpha = np.zeros_like(alpha)
    dx = np.zeros_like(x)
    dalpha[rows] = g.sum(axis=1)
    dx[rows] = g @ b
    return value, {"alpha": dalpha, "psi": g.sum(axis=0), "b": g.T @ x[rows], "x": dx}


def wordfish_fit(counts, cfg, rng):
    """One wordfish fit in its own engine run; returns (means, trace)."""
    from textideal import engine

    class Model:
        num_items = counts.shape[0]

        def loglik(self, samples, rows):
            return wordfish_loglik(counts, samples, rows)

    num_authors, num_terms = counts.shape
    families = engine.gaussian_families(
        {"alpha": num_authors, "psi": num_terms, "b": num_terms, "x": num_authors}, rng
    )
    state = engine.VariationalState(
        families, {name: engine.NormalPrior() for name in families}
    )
    trace = engine.fit(state, Model(), dataclasses.replace(cfg, batch_size=num_authors), rng)
    return state.posterior_means(), trace


def wordshoal_stage_one(dcorpus, cfg):
    """Stage-one position matrix from one wordfish run per debate, debate j
    on the [seed, j] stream; NaN where an author is absent."""
    from textideal.baselines import aggregate_by_author

    corpus = dcorpus.corpus
    positions = np.full((corpus.num_authors, dcorpus.num_debates), np.nan)
    for j in range(dcorpus.num_debates):
        counts, present = aggregate_by_author(corpus, np.flatnonzero(dcorpus.debate_of == j))
        active = counts[:, counts.sum(axis=0) > 0]
        means, _ = wordfish_fit(active, cfg, np.random.default_rng([cfg.seed, j]))
        positions[present, j] = means["x"]
    return positions


# Preprocessing as one Python-level dict update per n-gram and per
# (document, term) pair.


def tokenize(text, max_ngram=1, stopwords=frozenset()):
    """Count lowercased alphabetic n-grams in `text`.

    Stopwords are dropped before n-grams are formed, so phrases may bridge
    removed stopwords. N-gram tokens join their words with single spaces.
    """
    words = [w for w in _TOKEN_RE.findall(text.lower()) if w not in stopwords]
    counts = Counter()
    for n in range(1, max_ngram + 1):
        for i in range(len(words) - n + 1):
            counts[" ".join(words[i : i + n])] += 1
    return counts


def build_corpus(docs, cfg):
    """Build a (SparseCorpus, Vocabulary) pair from raw documents.

    Filtering happens in a fixed order: authors with fewer than
    `min_docs_per_author` documents are dropped first (with their
    documents); document frequencies are then measured over the survivors;
    the vocabulary keeps n-grams with document frequency inside the
    inclusive [min, max] band that are used by at least
    `min_authors_per_term` distinct authors; finally, documents left with
    no in-vocabulary tokens are dropped.

    Raises AllDocumentsFiltered when nothing survives.
    """
    if not docs:
        raise ValueError("docs must be non-empty")
    seen_ids = set()
    for d in docs:
        if d.doc_id in seen_ids:
            raise ValueError(f"duplicate doc_id {d.doc_id!r}")
        seen_ids.add(d.doc_id)
        if not d.author_id:
            raise ValueError(f"document {d.doc_id!r} has an empty author_id")

    docs_by_author = Counter(d.author_id for d in docs)
    kept = [d for d in docs if docs_by_author[d.author_id] >= cfg.min_docs_per_author]
    if not kept:
        raise AllDocumentsFiltered(
            f"no author has >= {cfg.min_docs_per_author} documents"
        )

    token_counts = [tokenize(d.text, cfg.max_ngram, cfg.stopwords) for d in kept]

    doc_freq = Counter()
    for tc in token_counts:
        doc_freq.update(tc.keys())
    author_freq = Counter()
    doc_idx_by_author = {}
    for i, d in enumerate(kept):
        doc_idx_by_author.setdefault(d.author_id, []).append(i)
    for idxs in doc_idx_by_author.values():
        used = set()
        for i in idxs:
            used.update(token_counts[i].keys())
        author_freq.update(used)

    n_docs = len(kept)
    lo, hi = cfg.min_doc_frequency, cfg.max_doc_frequency
    vocab_terms = sorted(
        t
        for t, c in doc_freq.items()
        if lo <= c / n_docs <= hi and author_freq[t] >= cfg.min_authors_per_term
    )
    if not vocab_terms:
        raise AllDocumentsFiltered("vocabulary filters removed every term")
    vocab = Vocabulary(vocab_terms)

    rows, cols, vals = [], [], []
    kept_docs = []
    for i, tc in enumerate(token_counts):
        pairs = [(vocab.index[t], c) for t, c in tc.items() if t in vocab.index]
        if not pairs:
            continue
        r = len(kept_docs)
        kept_docs.append(kept[i])
        for v, c in sorted(pairs):
            rows.append(r)
            cols.append(v)
            vals.append(float(c))
    if not kept_docs:
        raise AllDocumentsFiltered("every document lost all tokens to the filters")

    author_names = sorted({d.author_id for d in kept_docs})
    author_index = {a: s for s, a in enumerate(author_names)}
    author_of = np.array([author_index[d.author_id] for d in kept_docs], dtype=np.int64)
    counts = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(kept_docs), len(vocab)), dtype=np.float64
    )
    corpus = SparseCorpus(
        counts, author_of, author_names, doc_ids=[d.doc_id for d in kept_docs]
    )
    return corpus, vocab


def write_counts_lines(corpus, path):
    """The counts file written one formatted numpy line at a time."""
    rows, cols, vals = corpus.entries()
    with open(path, "w", encoding="utf-8") as fh:
        for d, v, c in zip(rows, cols, vals):
            fh.write(f"{d} {v} {int(c)}\n")
