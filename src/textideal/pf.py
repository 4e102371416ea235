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

phi is never held whole: one pass over document-aligned chunks of about
`_CHUNK_CELLS` nonzero-topic cells reduces it to the three results its
consumers read, the per-document and per-term sums of y * phi and the
per-nonzero log normalizer. Each `PFState` caches that pass, so
`pf_elbo(state)` and the following `cavi_step(state)` share one
evaluation, and memory grows with nnz and with the factors, not with
nnz x K.
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

    A state is never modified in place: its expected logs and the reduced
    responsibilities of one corpus are cached on first use.
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

    def phi_sums(self, corpus):
        """(doc_sums, term_sums, log_norm) over the stored nonzeros of `corpus`.

        doc_sums (D x K) and term_sums (V x K) sum y * phi over each
        document's and each term's nonzeros in storage order; log_norm is
        the log-sum-exp of each nonzero's scores.
        """
        cached = self._cache.get("phi_sums")
        if cached is None or cached[0] is not corpus:
            cached = (corpus, *_phi_pass(*self.expected_logs(), corpus.counts))
            self._cache["phi_sums"] = cached
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


# Nonzero-topic cells per chunk of the phi pass: large enough that numpy's
# per-call overhead stays small, small enough to stay in cache.
_CHUNK_CELLS = 1 << 17


def _doc_chunks(indptr, num_topics):
    """Document ranges [d0, d1) of about _CHUNK_CELLS / num_topics nonzeros.

    A document with more nonzeros than that is a chunk of its own.
    """
    step = max(1, _CHUNK_CELLS // num_topics)
    num_docs = indptr.size - 1
    d0 = 0
    while d0 < num_docs:
        d1 = max(int(np.searchsorted(indptr, indptr[d0] + step, side="right")) - 1, d0 + 1)
        yield d0, d1
        d0 = d1


def _chunk_phi(elog_theta, elog_beta_t, rows, cols):
    """(phi, log_norm) for nonzeros at (rows, cols), given E[log beta] as V x K.

    phi is len(rows) x K with rows summing to 1; log_norm is the
    log-sum-exp of each nonzero's scores E[log theta_dk] + E[log beta_kv].
    """
    # Gathering rows of a contiguous V x K copy beats gathering columns of K x V.
    shifted = np.take(elog_theta, rows, axis=0)
    shifted += np.take(elog_beta_t, cols, axis=0)
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


def _phi_pass(elog_theta, elog_beta, counts):
    """(doc_sums, term_sums, log_norm) for the CSR `counts`; see
    `PFState.phi_sums`. Each output cell adds its terms in storage order,
    as one bincount over all nonzeros would."""
    num_docs, num_terms = counts.shape
    num_topics = elog_theta.shape[1]
    indptr, cols, y = counts.indptr, counts.indices, counts.data
    elog_beta_t = np.ascontiguousarray(elog_beta.T)
    topics = np.arange(num_topics)
    doc_sums = np.empty((num_docs, num_topics))
    term_sums = np.zeros(num_terms * num_topics)
    log_norm = np.empty(y.size)
    for d0, d1 in _doc_chunks(indptr, num_topics):
        s, e = indptr[d0], indptr[d1]
        starts = indptr[d0 : d1 + 1] - s
        rows = np.repeat(np.arange(d0, d1), np.diff(starts))
        phi, log_norm[s:e] = _chunk_phi(elog_theta, elog_beta_t, rows, cols[s:e])
        # A document x nonzero operator carrying y: each row sums y * phi
        # over its own nonzeros, so document-aligned chunks change nothing.
        by_doc = sp.csr_matrix((y[s:e], np.arange(e - s), starts), shape=(d1 - d0, e - s))
        doc_sums[d0:d1] = by_doc @ phi
        # Terms recur across chunks: add.at adds in index order, so each
        # term's sum keeps the storage order of all its nonzeros.
        phi *= y[s:e, None]
        np.add.at(term_sums, (cols[s:e, None] * num_topics + topics).ravel(), phi.ravel())
    return doc_sums, term_sums.reshape(num_terms, num_topics), log_norm


def cavi_step(state, corpus):
    """One full coordinate sweep; returns a new PFState."""
    a, b = state.prior_shape, state.prior_rate
    doc_sums, term_sums, _ = state.phi_sums(corpus)

    theta_shape = a + doc_sums
    theta_rate = np.broadcast_to(
        b + state.q_beta.mean().sum(axis=1), theta_shape.shape
    ).copy()
    q_theta = GammaFamily(theta_shape, theta_rate)

    # C order like every other factor array: sums along an axis round
    # differently over a transposed view.
    beta_shape = a + np.ascontiguousarray(term_sums.T)
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
    y = corpus.counts.data
    a, b = state.prior_shape, state.prior_rate
    elog_theta, elog_beta = state.expected_logs()
    value = _gamma_prior_entropy(state.q_theta, elog_theta, a, b)
    value += _gamma_prior_entropy(state.q_beta, elog_beta, a, b)
    # Expected rate over all cells factorizes across topics.
    value -= float(
        state.q_theta.mean().sum(axis=0) @ state.q_beta.mean().sum(axis=1)
    )
    if len(y):
        _, _, log_norm = state.phi_sums(corpus)
        value += float(np.sum(y * log_norm) - np.sum(gammaln(y + 1.0)))
    return value


def pretrain(corpus, num_topics, a, b, sweeps=100, seed=0, tol=1e-6):
    """Initial estimates of intensities (D x K) and topics (K x V) under a
    Gamma(a, b) prior; callers pass `tbip.PriorConfig`'s.

    Sweeps stop early once the relative objective change drops below `tol`;
    no objective is evaluated after the last sweep, since none can change
    the result. Returns posterior means, strictly positive.
    """
    if num_topics < 1:
        raise ValueError("num_topics must be >= 1")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    rng = np.random.default_rng(seed)
    state = init_state(corpus.num_docs, corpus.num_terms, num_topics, a, b, rng)
    prev = None
    for sweep in range(1, sweeps + 1):
        state = cavi_step(state, corpus)
        if sweep == sweeps:
            break
        value = pf_elbo(state, corpus)
        if prev is not None and abs(value - prev) <= tol * abs(prev):
            break
        prev = value
    return state.q_theta.mean(), state.q_beta.mean()
