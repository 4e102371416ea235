"""Gamma-Poisson matrix factorization fit by coordinate ascent.

Counts factorize as y_dv ~ Pois(sum_k theta_dk beta_kv) with Gamma(a, b)
priors on both factors. The conjugate multinomial augmentation gives
closed-form sweeps:

    phi_dvk  propto  exp(E[log theta_dk] + E[log beta_kv])
    q(theta_dk) = Gamma(a + sum_v y_dv phi_dvk,  b + sum_v E[beta_kv])
    q(beta_kv)  = Gamma(a + sum_d y_dv phi_dvk,  b + sum_d E[theta_dk])

phi only needs evaluating on the stored nonzeros. Each sweep can only
increase the augmented-model objective, which `pf_elbo` evaluates with phi
at its closed-form optimum. Used to initialize the text ideal point model.

The nonzero scores E[log theta_dk] + E[log beta_kv] are the costly part of
both passes. They are computed once per `PFState`, together with phi and
the per-nonzero log normalizer, so `pf_elbo(state)` and the following
`cavi_step(state)` share one evaluation. The sweep sums y * phi into its
Gamma shapes with two sparse products instead of one bincount per topic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import digamma, gammaln


@dataclass
class GammaFamily:
    """Independent Gamma factors with elementwise shape and rate."""

    shape: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        self.shape = np.asarray(self.shape, dtype=np.float64)
        self.rate = np.asarray(self.rate, dtype=np.float64)
        if self.shape.shape != self.rate.shape:
            raise ValueError("shape and rate arrays must match")
        if np.any(self.shape <= 0) or np.any(self.rate <= 0):
            raise ValueError("Gamma parameters must be positive")

    def mean(self):
        return self.shape / self.rate

    def expected_log(self):
        return digamma(self.shape) - np.log(self.rate)


@dataclass
class PFState:
    """Variational Gamma factors for intensities (D x K) and topics (K x V).

    A state is never modified in place: its expected logs and nonzero
    scores are cached on first use.
    """

    q_theta: GammaFamily
    q_beta: GammaFamily
    prior_shape: float
    prior_rate: float
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def expected_logs(self):
        """(E[log theta] as D x K, E[log beta] as K x V)."""
        if "elogs" not in self._cache:
            self._cache["elogs"] = (self.q_theta.expected_log(), self.q_beta.expected_log())
        return self._cache["elogs"]

    def nonzero_scores(self, corpus):
        """(phi, log_norm) over the stored nonzeros of `corpus`.

        phi is nnz x K with rows summing to 1; log_norm is the log-sum-exp
        of each row's scores.
        """
        cached = self._cache.get("scores")
        if cached is None or cached[0] is not corpus:
            cached = (corpus, *_scores(*self.expected_logs(), corpus))
            self._cache["scores"] = cached
        return cached[1:]


def init_state(num_docs, num_terms, num_topics, a, b, rng):
    """Random positive initialization: prior plus Uniform(0, 1) jitter."""
    q_theta = GammaFamily(
        a + rng.uniform(size=(num_docs, num_topics)),
        b + rng.uniform(size=(num_docs, num_topics)),
    )
    q_beta = GammaFamily(
        a + rng.uniform(size=(num_topics, num_terms)),
        b + rng.uniform(size=(num_topics, num_terms)),
    )
    return PFState(q_theta, q_beta, float(a), float(b))


def _scores(elog_theta, elog_beta, corpus):
    rows, cols, _ = corpus.entries()
    # Gathering rows of a contiguous V x K copy beats gathering columns of K x V.
    shifted = np.take(elog_theta, rows, axis=0)
    shifted += np.take(np.ascontiguousarray(elog_beta.T), cols, axis=0)
    top = shifted.max(axis=1, keepdims=True)
    shifted -= top
    # log_norm follows scipy's logsumexp step for step, so `pf_elbo` keeps
    # its values bit for bit: the maximal entries are split out and the
    # rest summed through log1p.
    tied = shifted == 0.0
    phi = np.exp(shifted, out=shifted)
    rest = np.where(tied, 0.0, phi).sum(axis=1, keepdims=True)
    ties = tied.sum(axis=1, keepdims=True, dtype=np.float64)
    rest = np.where(rest == 0, rest, rest / ties)
    log_norm = (np.log1p(rest) + np.log(ties) + top).ravel()
    phi /= phi.sum(axis=1, keepdims=True)
    return phi, log_norm


def cavi_step(state, corpus):
    """One full coordinate sweep; returns a new PFState."""
    _, cols, y = corpus.entries()
    num_docs, num_terms = corpus.counts.shape
    a, b = state.prior_shape, state.prior_rate

    phi, _ = state.nonzero_scores(corpus)
    # Doc x nnz and term x nnz operators carrying y: each output cell sums
    # y * phi over its nonzeros in storage order, as a bincount would.
    nnz = np.arange(y.size)
    by_doc = sp.csr_matrix((y, nnz, corpus.counts.indptr), shape=(num_docs, y.size))
    by_term = sp.csr_matrix((y, (cols, nnz)), shape=(num_terms, y.size))

    theta_shape = a + by_doc @ phi
    theta_rate = np.broadcast_to(
        b + state.q_beta.mean().sum(axis=1), theta_shape.shape
    ).copy()
    q_theta = GammaFamily(theta_shape, theta_rate)

    # C order like every other factor array: sums along an axis round
    # differently over a transposed view.
    beta_shape = a + np.ascontiguousarray((by_term @ phi).T)
    beta_rate = np.broadcast_to(
        (b + q_theta.mean().sum(axis=0))[:, None], beta_shape.shape
    ).copy()
    q_beta = GammaFamily(beta_shape, beta_rate)
    return PFState(q_theta, q_beta, a, b)


def _gamma_prior_entropy(fam, elog, a, b):
    """E_q[log p] + H(q) summed over one block of Gamma factors, given
    elog = fam.expected_log()."""
    prior = np.sum(a * np.log(b) - gammaln(a) + (a - 1.0) * elog - b * fam.mean())
    entropy = np.sum(
        fam.shape
        - np.log(fam.rate)
        + gammaln(fam.shape)
        + (1.0 - fam.shape) * digamma(fam.shape)
    )
    return float(prior + entropy)


def pf_elbo(state, corpus):
    """Augmented-model objective with responsibilities at their optimum."""
    _, _, y = corpus.entries()
    a, b = state.prior_shape, state.prior_rate
    elog_theta, elog_beta = state.expected_logs()
    value = _gamma_prior_entropy(state.q_theta, elog_theta, a, b)
    value += _gamma_prior_entropy(state.q_beta, elog_beta, a, b)
    # Expected rate over all cells factorizes across topics.
    value -= float(
        state.q_theta.mean().sum(axis=0) @ state.q_beta.mean().sum(axis=1)
    )
    if len(y):
        _, log_norm = state.nonzero_scores(corpus)
        value += float(np.sum(y * log_norm) - np.sum(gammaln(y + 1.0)))
    return value


def pretrain(corpus, num_topics, a=0.3, b=0.3, sweeps=100, seed=0, tol=1e-6):
    """Initial estimates of intensities (D x K) and topics (K x V).

    Sweeps stop early once the relative objective change drops below `tol`.
    Returns posterior means, strictly positive.
    """
    if num_topics < 1:
        raise ValueError("num_topics must be >= 1")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    rng = np.random.default_rng(seed)
    state = init_state(corpus.num_docs, corpus.num_terms, num_topics, a, b, rng)
    prev = None
    for _ in range(sweeps):
        state = cavi_step(state, corpus)
        value = pf_elbo(state, corpus)
        if prev is not None and abs(value - prev) <= tol * abs(prev):
            break
        prev = value
    return state.q_theta.mean(), state.q_beta.mean()
