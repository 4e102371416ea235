"""Independent numerical oracles shared by the test modules.

Everything here is computed without touching the code paths under test:
quadrature instead of Monte Carlo, direct density formulas instead of the
library's family classes, and the straightforward loop forms of the fast
kernels (one bincount per topic, scipy's logsumexp, one mask per author).
"""

import math

import numpy as np
from scipy.special import digamma, gammaln, logsumexp

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


def tbip_loglik(counts, author_of, weights, samples, doc_idx, want_grads=False):
    """Minibatch TBIP log likelihood and gradients, one mask per author.

    `counts` is the dense D x V count matrix.
    """
    theta, beta, eta, x = (samples[k] for k in ("theta", "beta", "eta", "x"))
    value = 0.0
    grads = None
    if want_grads:
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
        if want_grads:
            resid = y / lam - 1.0
            grads["theta"][docs] = w * (resid @ basis.T)
            cross = th.T @ resid
            grads["beta"] += w * cross * tilt
            grads["eta"] += (w * x[a]) * cross * basis
            grads["x"][a] = w * np.sum(cross * basis * eta)
    return value, grads
