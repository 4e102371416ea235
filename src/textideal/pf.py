"""Gamma-Poisson matrix factorization fit by coordinate ascent.

Counts factorize as y_dv ~ Pois(sum_k theta_dk beta_kv) with Gamma(a, b)
priors on both factors. The conjugate multinomial augmentation gives
closed-form sweeps:

    phi_dvk  propto  exp(E[log theta_dk] + E[log beta_kv])
    q(theta_dk) = Gamma(a + sum_v y_dv phi_dvk,  b + sum_v E[beta_kv])
    q(beta_kv)  = Gamma(a + sum_d y_dv phi_dvk,  b + sum_d E[theta_dk])

Each sweep can only increase the augmented-model objective, which
`pf_elbo` evaluates with phi at its closed-form optimum. Used to initialize
the text ideal point model.

phi is never formed: it factorizes as exp_t[d] * exp_b[v] / norm_dv, with
exp_t = exp(E[log theta] - row max) and exp_b = exp(E[log beta] - term max),
so its per-document and per-term sums of y * phi are exp_t times
R @ exp_b and exp_b times R.T @ exp_t, two sparse products with R = y / norm
on the stored nonzeros (Hoffman, Blei & Bach 2010; Gopalan, Hofman & Blei
2015). Only the normalizer norm_dv = exp_t[d] . exp_b[v] touches nnz x K
cells, gathered over document-aligned chunks of about `_CHUNK_CELLS`, so
memory grows with nnz and with the factors, not with nnz x K. Where every
topic's shifted score is so low that norm falls below `_NORM_FLOOR`, that
nonzero is recomputed by the shifted log-sum-exp and its y * phi added
directly. Each `PFState` caches the pass, so `pf_elbo(state)` and the
following `cavi_step(state)` share one evaluation.
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

    def expected_log_parts(self):
        """(digamma(shape), log(rate)) of q_theta and of q_beta.

        E[log] is their difference, cached here for `expected_logs`; the
        parts themselves are not kept, since only `pf_elbo` reads them.
        """
        parts = [(digamma(fam.shape), np.log(fam.rate)) for fam in (self.q_theta, self.q_beta)]
        self._cache.setdefault("elogs", tuple(dg - log_rate for dg, log_rate in parts))
        return parts

    def expected_logs(self):
        """(E[log theta] as D x K, E[log beta] as K x V)."""
        if "elogs" not in self._cache:
            self.expected_log_parts()
        return self._cache["elogs"]

    def phi_sums(self, corpus):
        """(doc_sums, term_sums, log_norm) over the stored nonzeros of `corpus`.

        doc_sums (D x K) and term_sums (V x K) sum y * phi over each
        document's and each term's nonzeros, taken from two sparse products
        without forming phi; log_norm is the log-sum-exp of each nonzero's
        scores, from the factored normalizer or, where that falls below
        `_NORM_FLOOR`, from the scores themselves.
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


# Nonzero-topic cells per chunk of the normalizer's gather: large enough that
# numpy's per-call overhead stays small, small enough to stay in cache.
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


# The factored normalizer of a nonzero is exp(log_norm - rowmax - termmax).
# Below this floor the topics' products of shifted factors may all have
# underflowed, so those nonzeros take the shifted log-sum-exp instead. Above
# it, a product lost to underflow (under 2.3e-308) moves phi by under 1e-157,
# and y / norm stays finite for any count below 1e158.
_NORM_FLOOR = 1e-150


def _phi_pass(elog_theta, elog_beta, counts):
    """(doc_sums, term_sums, log_norm) for the CSR `counts`; see
    `PFState.phi_sums`."""
    indptr, cols, y = counts.indptr, counts.indices, counts.data
    rowmax = elog_theta.max(axis=1)
    termmax = elog_beta.max(axis=0)
    exp_t = np.exp(elog_theta - rowmax[:, None])
    # V x K in C order: gathering rows beats gathering columns of K x V.
    exp_b = np.ascontiguousarray(np.exp(elog_beta - termmax).T)
    norm = np.empty(y.size)
    log_norm = np.empty(y.size)
    for d0, d1 in _doc_chunks(indptr, elog_theta.shape[1]):
        s, e = indptr[d0], indptr[d1]
        rows = np.repeat(np.arange(d0, d1), np.diff(indptr[d0 : d1 + 1]))
        norm[s:e] = np.einsum(
            "ij,ij->i", np.take(exp_t, rows, axis=0), np.take(exp_b, cols[s:e], axis=0)
        )
        log_norm[s:e] = rowmax[rows] + termmax[cols[s:e]]
    low = np.flatnonzero(norm < _NORM_FLOOR)
    norm[low] = np.inf  # drops them from the products below
    log_norm += np.log(norm)
    # y / norm as a document x term matrix: phi summed over a document's
    # nonzeros is exp_t times a product with exp_b, and likewise per term.
    scaled = sp.csr_matrix((y / norm, cols, indptr), shape=counts.shape)
    doc_sums = exp_t * (scaled @ exp_b)
    term_sums = exp_b * (scaled.T @ exp_t)
    if low.size:
        rows = np.searchsorted(indptr, low, side="right") - 1
        scores = elog_theta[rows] + elog_beta[:, cols[low]].T
        top = scores.max(axis=1, keepdims=True)
        phi = np.exp(scores - top)
        total = phi.sum(axis=1, keepdims=True)
        log_norm[low] = (np.log(total) + top).ravel()
        phi *= y[low, None] / total
        ones, where = np.ones(low.size), np.arange(low.size)
        for sums, index in ((doc_sums, rows), (term_sums, cols[low])):
            sums += sp.csr_matrix((ones, (index, where)), shape=(len(sums), low.size)) @ phi
    return doc_sums, term_sums, log_norm


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


def _gamma_prior_entropy(fam, elog, dg, log_rate, a, b):
    """E_q[log p] + H(q) summed over one block of Gamma factors, given
    `PFState.expected_log_parts` (dg, log_rate) and elog = dg - log_rate."""
    prior = np.sum(a * np.log(b) - gammaln(a) + (a - 1.0) * elog - b * fam.mean())
    entropy = np.sum(fam.shape - log_rate + gammaln(fam.shape) + (1.0 - fam.shape) * dg)
    return float(prior + entropy)


def pf_elbo(state, corpus):
    """Augmented-model objective with responsibilities at their optimum."""
    y = corpus.counts.data
    a, b = state.prior_shape, state.prior_rate
    parts = state.expected_log_parts()
    value = 0.0
    for fam, elog, (dg, log_rate) in zip(
        (state.q_theta, state.q_beta), state.expected_logs(), parts
    ):
        value += _gamma_prior_entropy(fam, elog, dg, log_rate, a, b)
    # Expected rate over all cells factorizes across topics.
    value -= float(
        state.q_theta.mean().sum(axis=0) @ state.q_beta.mean().sum(axis=1)
    )
    if len(y):
        _, _, log_norm = state.phi_sums(corpus)
        value += float(np.sum(y * log_norm) - corpus.log_factorial_sum)
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
