"""Independent numerical oracles shared by the test modules.

Everything here is computed without touching the code paths under test:
quadrature instead of Monte Carlo, per-factor density formulas instead of
the engine's whole-buffer passes, the sample-space form of the engine's
gradient, and the straightforward loop forms of the fast kernels (one
bincount per topic, scipy's logsumexp, one mask per author, one arange per
bill, one loop step per recorded vote, one noise draw, one gradient array
and one Adam update per parameter array, one engine run per wordfish
debate, one dict update per n-gram in preprocessing, one write per counts
line). The variational oracles read a state only through
`state.parameters()`, its positive factor names and its Gamma (a, b).
"""

import dataclasses
import math
from collections import Counter, namedtuple

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

    params = state.parameters()

    def fam_params(name):
        return (float(params[f"{name}.mu"].ravel()[0]),
                float(np.exp(params[f"{name}.log_sigma"]).ravel()[0]))

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


def _factors(state, noise):
    """(name, mu, log_sigma, z, positive) per factor, in factor order, with
    z the factor's share of a noise draw laid out like the mu half."""
    params = state.parameters()
    noise = np.asarray(noise)
    out, start = [], 0
    for key, mu in params.items():
        if key.endswith(".mu"):
            name = key[: -len(".mu")]
            z = noise[start : start + mu.size].reshape(mu.shape)
            start += mu.size
            out.append((name, mu, params[f"{name}.log_sigma"], z, name in state.positive))
    assert start == noise.size
    return out


FactorDraw = namedtuple("FactorDraw", ["sample", "z", "sigma", "log_prior", "log_q", "dprior"])


def factor_draws(state, noise):
    """{name: FactorDraw} of one noise draw, one factor at a time, in the
    engine's u-space expressions: a Gamma(a, b) prior over u = log s
    (Jacobian included) on positive factors, N(0, 1) on the others, and
    log q Gaussian in u. `dprior` is d log p / d u."""
    draws = {}
    for name, mu, log_sigma, z, positive in _factors(state, noise):
        sigma = np.exp(log_sigma)
        u = mu + sigma * z
        if positive:
            a, b = state.gamma
            s = np.exp(u)
            log_prior = float((a * math.log(b) - gammaln(a) + a * u - b * s).sum())
            dprior = a - b * s
        else:
            s = u
            log_prior = float((-0.5 * LOG_2PI - 0.5 * s * s).sum())
            dprior = -s
        t = (u - mu) / sigma
        log_q = float((-0.5 * LOG_2PI - log_sigma - 0.5 * t * t).sum())
        draws[name] = FactorDraw(s, z, sigma, log_prior, log_q, dprior)
    return draws


# The engine's objective and gradient as they were taken in sample space:
# log p(s) and log q(s) with the -log s Jacobian on the lognormal density,
# model gradients d loglik / d s, and the chain rule through s = exp(u).


def gamma_log_prob(s, a, b):
    """Gamma(a, b) log density at positive samples s."""
    if np.any(s <= 0):
        raise ValueError("nonpositive sample under a Gamma prior")
    return float(np.sum(a * math.log(b) - gammaln(a) + (a - 1.0) * np.log(s) - b * s))


def sample_space_gradient(state, batch, loglik, num_items, noise):
    """The engine gradient taken in sample space.

    `loglik(samples, batch)` returns (value, d loglik / d sample). Returns
    (estimate, {key: gradient}), keyed like `state.views` of
    `engine.gradient`'s buffer.
    """
    batch = np.atleast_1d(np.asarray(batch))
    factors = _factors(state, noise)
    samples, sigmas, dpriors = {}, {}, {}
    log_prior = log_q = 0
    for name, mu, log_sigma, z, positive in factors:
        sigma = np.exp(log_sigma)
        s = mu + sigma * z
        base = -0.5 * LOG_2PI - log_sigma
        if positive:
            a, b = state.gamma
            s = np.exp(s)
            log_prior += gamma_log_prob(s, a, b)
            dpriors[name] = (a - 1.0) / s - b
            ls = np.log(s)
            t = (ls - mu) / sigma
            log_q += float(np.sum(base - ls - 0.5 * t * t))
        else:
            log_prior += float(np.sum(-0.5 * LOG_2PI - 0.5 * s * s))
            dpriors[name] = -s
            t = (s - mu) / sigma
            log_q += float(np.sum(base - 0.5 * t * t))
        samples[name], sigmas[name] = s, sigma
    value, lik_grads = loglik(samples, batch)
    scale = num_items / batch.size

    grads = {}
    for name, mu, log_sigma, z, positive in factors:
        s, sigma = samples[name], sigmas[name]
        ds = dpriors[name]
        g = lik_grads.get(name)
        if g is not None:
            ds = ds + scale * g
        if positive:
            dmu_s, dls_s = s, s * z * sigma
            q_mu, q_ls = -np.ones_like(mu), -1.0 - z * sigma
        else:
            dmu_s, dls_s = np.ones_like(mu), z * sigma
            q_mu, q_ls = np.zeros_like(mu), -np.ones_like(log_sigma)
        grads[f"{name}.mu"] = ds * dmu_s - q_mu
        grads[f"{name}.log_sigma"] = ds * dls_s - q_ls
    return log_prior + scale * value - log_q, grads


def _per_array_gradient(state, batch, model, num_items, noise):
    """The objective estimate and one new gradient array per parameter array."""
    draws = factor_draws(state, noise)
    log_prior = log_q = 0
    for d in draws.values():
        log_prior += d.log_prior
        log_q += d.log_q
    loglik, lik_grads = model.loglik({name: d.sample for name, d in draws.items()}, batch)
    scale = num_items / batch.size
    grads = {}
    for name, d in draws.items():
        du = d.dprior
        if name in lik_grads:
            du = du + scale * lik_grads[name]
        grads[f"{name}.mu"] = du
        grads[f"{name}.log_sigma"] = du * (d.z * d.sigma) + 1.0
    return log_prior + scale * loglik - log_q, grads


def _per_factor_noise(params, rng):
    """One standard-normal draw per factor, in factor order, concatenated."""
    return np.concatenate([rng.standard_normal(p.shape).ravel()
                           for key, p in params.items() if key.endswith(".mu")])


def per_array_fit(state, model, cfg, rng):
    """`engine.fit` with one noise draw per factor, a gradient dict per
    draw, draws summed key by key, and one Adam update with its own moments
    per parameter array."""
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
                                               _per_factor_noise(params, rng))
            for _ in range(1, cfg.mc_samples):
                draw, grads = _per_array_gradient(state, batch, model, num_items,
                                                  _per_factor_noise(params, rng))
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


def tbip_loglik(counts, author_of, weights, samples, doc_idx, magnitudes=False):
    """Minibatch TBIP log likelihood and gradients, one mask per author.

    `counts` is the dense D x V count matrix. With `magnitudes`, also
    returns, per gradient, the sum of the absolute values of the terms it
    adds up: y / lam and 1 enter each gradient with opposite signs, so a
    gradient can cancel to far below them.
    """
    theta, beta, eta, x = (samples[k] for k in ("theta", "beta", "eta", "x"))
    value = 0.0
    grads = {k: np.zeros_like(samples[k]) for k in ("theta", "beta", "eta", "x")}
    mags = {k: np.zeros_like(samples[k]) for k in ("theta", "beta", "eta", "x")}
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
        # The same sums over |terms|: y / lam + 1 in place of y / lam - 1.
        mags["theta"][docs] = w * ((y / lam + 1.0) @ basis.T)
        cross_mag = th.T @ (y / lam + 1.0)
        mags["beta"] += w * cross_mag * tilt
        mags["eta"] += abs(w * x[a]) * cross_mag * basis
        mags["x"][a] = w * np.sum(cross_mag * basis * np.abs(eta))
    if magnitudes:
        return value, grads, mags
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
    state = engine.VariationalState(engine.gaussian_factors(
        {"alpha": num_authors, "psi": num_terms, "b": num_terms, "x": num_authors}, rng
    ))
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
