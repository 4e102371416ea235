"""Text-scaling baselines: wordfish and wordshoal.

Wordfish scales authors on a single axis from pooled counts,

    y_sv ~ Pois(exp(alpha_s + psi_v + b_v * x_s)),

with standard normal priors throughout. Wordshoal runs an independent
wordfish per debate label and combines the per-debate author positions
with a one-dimensional factor analysis,

    pos_sj ~ N(a_j + b_j * x_s, sigma^2),

whose shared noise scale gets a lognormal factor. Stage one trains every
debate's wordfish in one run of the reparameterized engine; stage two is
`fit_factor`'s coordinate ascent.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple

import numpy as np
from scipy.special import gammaln

from . import engine
from .engine import VariationalState, gaussian_factors


class DebateTooSmall(ValueError):
    """One or more debates cannot support a wordfish fit."""

    def __init__(self, labels):
        self.labels = list(labels)
        super().__init__(f"debates too small to scale: {', '.join(map(str, self.labels))}")


class DebateLabeledCorpus:
    """A corpus whose documents carry a debate label."""

    def __init__(self, corpus, debate_of, debate_ids):
        self.corpus = corpus
        self.debate_of = np.asarray(debate_of, dtype=np.int64)
        self.debate_ids = list(debate_ids)
        if self.debate_of.shape[0] != corpus.num_docs:
            raise ValueError("one debate label per document required")
        if self.debate_of.size and (
            self.debate_of.min() < 0 or self.debate_of.max() >= len(self.debate_ids)
        ):
            raise ValueError("debate index out of range")

    @property
    def num_debates(self):
        return len(self.debate_ids)

    @classmethod
    def build(cls, corpus, labels):
        """Attach labels, retaining only debates with >= 2 distinct authors.

        Documents in dropped debates are removed; author indices are kept
        from the base corpus (authors may lose all their documents, which
        wordshoal reports as missing positions).
        """
        labels = list(labels)
        if len(labels) != corpus.num_docs:
            raise ValueError("one label per document required")
        ids = sorted(set(labels))
        id_index = {lab: j for j, lab in enumerate(ids)}
        debate_of = np.array([id_index[lab] for lab in labels], dtype=np.int64)
        keep_debates = []
        for j in range(len(ids)):
            docs = np.flatnonzero(debate_of == j)
            if np.unique(corpus.author_of[docs]).size >= 2:
                keep_debates.append(j)
        if not keep_debates:
            raise DebateTooSmall(ids)
        keep_docs = np.flatnonzero(np.isin(debate_of, keep_debates))
        remap = -np.ones(len(ids), dtype=np.int64)
        remap[keep_debates] = np.arange(len(keep_debates))
        from .corpus import SparseCorpus

        sub = SparseCorpus(
            corpus.counts[keep_docs],
            corpus.author_of[keep_docs],
            corpus.author_names,
            doc_ids=[corpus.doc_ids[d] for d in keep_docs],
        )
        return cls(sub, remap[debate_of[keep_docs]], [ids[j] for j in keep_debates])


def aggregate_by_author(corpus, doc_idx=None):
    """Pool counts into a dense author-by-term matrix.

    Restricted to `doc_idx` when given; returns (matrix, author_indices)
    where row r holds the pooled counts of author author_indices[r].
    """
    if doc_idx is None:
        doc_idx = np.arange(corpus.num_docs)
    present, rank = np.unique(corpus.author_of[doc_idx], return_inverse=True)
    indptr, terms, counts = corpus.row_entries(doc_idx)
    # Integer counts sum exactly in any order. bincount of no entries is ints.
    cells = rank.repeat(np.diff(indptr)) * corpus.num_terms + terms
    dense = np.bincount(cells, weights=counts, minlength=present.size * corpus.num_terms)
    return dense.astype(np.float64, copy=False).reshape(present.size, corpus.num_terms), present


def _runs(sizes):
    """Consecutive slices of the given lengths, starting at 0."""
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


class WordfishModel:
    """Poisson scaling likelihood on pooled author-by-term count blocks.

    Each block is an independent wordfish: its authors take the next
    contiguous slice of the stacked `alpha` and `x`, its terms the next
    slice of `psi` and `b`. `loglik` loops over the blocks and runs each
    block's element-wise work and reductions on its own C-contiguous
    (authors, terms) count array, so a block's value and gradients are
    bitwise those of a model built on that block alone. The model is
    full-batch: `author_idx` must list every stacked author in order.
    """

    def __init__(self, blocks):
        self.blocks = [np.ascontiguousarray(c, dtype=np.float64) for c in blocks]
        self.shapes = [c.shape for c in self.blocks]
        self.num_items = sum(n for n, _ in self.shapes)
        self.author_slices = _runs([n for n, _ in self.shapes])
        self.term_slices = _runs([v for _, v in self.shapes])
        self._lgamma_const = [gammaln(c + 1.0).sum(axis=1).sum() for c in self.blocks]

    def loglik(self, samples, author_idx):
        if not np.array_equal(author_idx, np.arange(self.num_items)):
            raise ValueError("wordfish is full-batch: author_idx must cover every author in order")
        alpha = samples["alpha"]
        psi = samples["psi"]
        b = samples["b"]
        x = samples["x"]
        value = 0.0
        grads = {name: np.empty_like(samples[name]) for name in ("alpha", "psi", "b", "x")}
        for y, const, rows, terms in zip(
            self.blocks, self._lgamma_const, self.author_slices, self.term_slices
        ):
            t = alpha[rows, None] + psi[terms] + x[rows, None] * b[terms]
            lam = np.exp(t)
            value += float(np.sum(y * t - lam) - const)
            g = y - lam
            grads["alpha"][rows] = g.sum(axis=1)
            grads["x"][rows] = g @ b[terms]
            grads["psi"][terms] = g.sum(axis=0)
            grads["b"][terms] = g.T @ x[rows]
        return value, grads


WordfishFit = namedtuple("WordfishFit", ["x_hat", "psi_hat", "b_hat", "elbo_trace"])
WordshoalFit = namedtuple("WordshoalFit", ["x_hat", "debate_positions", "elbo_trace"])


class _StreamState(VariationalState):
    """Stacked wordfish factors in which block k draws only from rngs[k].

    Block k takes its initial locations and its share of every noise sample
    from its own stream in the order alpha, psi, b, x, the same draws a
    VariationalState of that block alone would take from it.
    """

    def __init__(self, model, rngs):
        self.rngs = list(rngs)
        self.slices = [
            {"alpha": rows, "psi": terms, "b": terms, "x": rows}
            for rows, terms in zip(model.author_slices, model.term_slices)
        ]
        parts = [
            gaussian_factors({"alpha": n, "psi": v, "b": v, "x": n}, rng)
            for (n, v), rng in zip(model.shapes, self.rngs)
        ]
        # Each factor's (mu, log_sigma): the blocks' arrays concatenated.
        super().__init__({
            name: tuple(map(np.concatenate, zip(*(p[name] for p in parts))))
            for name in ("alpha", "psi", "b", "x")
        })

    def sample_noise(self, rng):
        """One noise sample; `rng` is unused, block k draws from rngs[k]."""
        noise = np.empty(self.size)
        parts = self.split(noise)
        for stream, slices in zip(self.rngs, self.slices):
            for name, part in parts.items():
                stream.standard_normal(out=part[slices[name]])
        return noise


def _fit_wordfish(blocks, cfg, rngs):
    """Train one wordfish per count block in a single full-batch engine run.

    Block k draws from rngs[k] alone and Adam is element-wise, so each
    block's fit is bitwise the fit of that block by itself. Returns one
    WordfishFit per block; they share the trace of the summed objective.
    """
    model = WordfishModel(blocks)
    state = _StreamState(model, rngs)
    # Full batch (stacked wordshoal can outnumber the default batch size),
    # and every noise draw comes from state.rngs.
    full = dataclasses.replace(cfg, batch_size=model.num_items)
    trace = engine.fit(state, model, full, None)
    means = state.posterior_means()
    return [
        WordfishFit(means["x"][rows], means["psi"][terms], means["b"][terms], trace)
        for rows, terms in zip(model.author_slices, model.term_slices)
    ]


def train_wordfish(corpus, cfg):
    """Scale authors from their pooled counts; full-batch training."""
    counts, _ = aggregate_by_author(corpus)
    return _fit_wordfish([counts], cfg, [np.random.default_rng(cfg.seed)])[0]


class FactorState:
    """Mean-field factors of the one-factor position model.

    Gaussian factors on intercepts a (J), loadings b (J) and positions
    x (S); a lognormal factor exp(N(sigma_mu, sigma_logsd^2)) on the shared
    noise scale, with an Exp(1) prior on sigma.
    """

    def __init__(self, a_mean, a_var, b_mean, b_var, x_mean, x_var, sigma_mu, sigma_logsd):
        self.a_mean = a_mean
        self.a_var = a_var
        self.b_mean = b_mean
        self.b_var = b_var
        self.x_mean = x_mean
        self.x_var = x_var
        self.sigma_mu = sigma_mu
        self.sigma_logsd = sigma_logsd

    def expected_inv_var(self):
        # E[sigma^-2] under sigma = exp(N(mu, sd^2)) with sd = exp(logsd).
        return math.exp(-2.0 * self.sigma_mu + 2.0 * math.exp(2.0 * self.sigma_logsd))


def _stage2_init(positions):
    """Warm start for the factor stage from the per-debate positions.

    Debates are standardized and sign-aligned against a running consensus;
    author locations start at their consensus average and debate loadings
    at the (signed) debate scale. Starting the bilinear term inside the
    signal basin matters: near the origin it sits on a saddle where the
    loadings collapse before the positions can move.
    """
    num_authors, num_debates = positions.shape
    a0 = np.zeros(num_debates)
    scale = np.ones(num_debates)
    std = np.full((num_authors, num_debates), np.nan)
    for j in range(num_debates):
        obs = ~np.isnan(positions[:, j])
        a0[j] = positions[obs, j].mean()
        sd = positions[obs, j].std()
        scale[j] = sd if sd > 0 else 1.0
        std[obs, j] = (positions[obs, j] - a0[j]) / scale[j]

    sign = np.ones(num_debates)
    consensus = std[:, 0].copy()
    for j in range(1, num_debates):
        shared = ~np.isnan(consensus) & ~np.isnan(std[:, j])
        if shared.sum() >= 2:
            u = consensus[shared] - consensus[shared].mean()
            v = std[shared, j] - std[shared, j].mean()
            if np.sum(u * v) < 0:
                sign[j] = -1.0
        aligned = sign[j] * std[:, j]
        take = np.isnan(consensus) & ~np.isnan(aligned)
        consensus[take] = aligned[take]
        both = ~np.isnan(consensus) & ~np.isnan(aligned)
        consensus[both] = 0.5 * (consensus[both] + aligned[both])
    x0 = np.where(np.isnan(consensus), 0.0, consensus)
    return a0, sign * scale, x0


def train_wordshoal(dcorpus, cfg):
    """Per-debate wordfish fits combined by a one-factor analysis.

    Returns author positions, the stage-one position matrix (NaN where an
    author is absent from a debate) and the stage-two trace. Raises
    DebateTooSmall when any debate has fewer than two authors or fewer
    than two terms with nonzero counts.
    """
    corpus = dcorpus.corpus
    num_debates = dcorpus.num_debates
    jobs = []
    too_small = []
    for j in range(num_debates):
        docs = np.flatnonzero(dcorpus.debate_of == j)
        counts, present = aggregate_by_author(corpus, docs)
        active_terms = np.flatnonzero(counts.sum(axis=0) > 0)
        if present.size < 2 or active_terms.size < 2:
            too_small.append(dcorpus.debate_ids[j])
            continue
        jobs.append((j, counts[:, active_terms], present))
    if too_small:
        raise DebateTooSmall(too_small)

    # One engine run for every debate; debate j draws only from [seed, j].
    fits = _fit_wordfish(
        [counts for _, counts, _ in jobs], cfg,
        [np.random.default_rng([cfg.seed, j]) for j, _, _ in jobs],
    )
    positions = np.full((corpus.num_authors, num_debates), np.nan)
    for (j, _, present), fit in zip(jobs, fits):
        positions[present, j] = fit.x_hat

    state, trace = fit_factor(positions, sweeps=max(cfg.max_steps // 10, 50))
    return WordshoalFit(state.x_mean.copy(), positions, trace)


def _sigma_objective(params, n_obs, resid_sq):
    """Negative sigma-block objective and gradient for the lognormal factor.

    Collects every objective term that depends on q(sigma): the expected
    likelihood pieces, the Exp(1) prior expectation and the entropy.
    """
    mu, log_sd = params
    sd2 = math.exp(2.0 * log_sd)
    e_inv = math.exp(-2.0 * mu + 2.0 * sd2)
    e_sigma = math.exp(mu + 0.5 * sd2)
    value = -n_obs * mu - 0.5 * resid_sq * e_inv - e_sigma + mu + log_sd
    dmu = -n_obs + resid_sq * e_inv - e_sigma + 1.0
    dlog_sd = -2.0 * resid_sq * e_inv * sd2 - e_sigma * sd2 + 1.0
    return -value, np.array([-dmu, -dlog_sd])


def fit_factor(positions, sweeps=200):
    """Coordinate-ascent fit of the one-factor model on a position matrix.

    Intercepts, loadings and positions have conjugate Gaussian updates
    given the expected noise precision; the lognormal noise factor is
    optimized analytically inside each sweep. Sweeps stop once the
    objective moves by at most 1e-12 of its value. Every x update is exactly
    linear in the observed positions, so a single indicator yields
    positions perfectly correlated with it. Returns (state, trace).
    """
    from scipy.optimize import minimize

    num_authors, num_debates = positions.shape
    observed = ~np.isnan(positions)
    n_obs = int(observed.sum())
    pos = np.where(observed, positions, 0.0)
    obs = observed.astype(np.float64)
    per_debate = obs.sum(axis=0)
    if np.any(per_debate < 1):
        raise ValueError("every debate needs at least one observed position")

    a0, b0, x0 = _stage2_init(positions)
    state = FactorState(
        a_mean=a0,
        a_var=np.full(num_debates, 0.01),
        b_mean=b0,
        b_var=np.full(num_debates, 0.01),
        x_mean=x0,
        x_var=np.full(num_authors, 0.01),
        sigma_mu=math.log(0.5),
        sigma_logsd=math.log(0.1),
    )

    def resid_sq_total():
        m = pos - state.a_mean[None, :] - state.b_mean[None, :] * state.x_mean[:, None]
        e_b2 = state.b_mean**2 + state.b_var
        e_x2 = state.x_mean**2 + state.x_var
        second = (
            state.a_var[None, :]
            + np.outer(e_x2, e_b2)
            - np.outer(state.x_mean**2, state.b_mean**2)
        )
        return float(np.sum(obs * (m * m + second)))

    def elbo():
        e_inv = state.expected_inv_var()
        value = -0.5 * n_obs * engine.LOG_2PI - n_obs * state.sigma_mu
        value -= 0.5 * resid_sq_total() * e_inv
        for mean, var in (
            (state.a_mean, state.a_var),
            (state.b_mean, state.b_var),
            (state.x_mean, state.x_var),
        ):
            # KL(N(mean, var) || N(0, 1)) summed over the block.
            value -= 0.5 * float(np.sum(var + mean**2 - 1.0 - np.log(var)))
        sd2 = math.exp(2.0 * state.sigma_logsd)
        e_sigma = math.exp(state.sigma_mu + 0.5 * sd2)
        value += -e_sigma  # Exp(1) prior, up to its normalizer
        value += 0.5 * engine.LOG_2PI + 0.5 + state.sigma_logsd + state.sigma_mu
        return value

    trace = [(0, elbo())]
    prev = trace[0][1]
    for sweep in range(1, sweeps + 1):
        e_inv = state.expected_inv_var()
        e_x2 = state.x_mean**2 + state.x_var

        prec_a = 1.0 + e_inv * per_debate
        state.a_var = 1.0 / prec_a
        resid_a = obs * (pos - state.b_mean[None, :] * state.x_mean[:, None])
        state.a_mean = e_inv * resid_a.sum(axis=0) / prec_a

        prec_b = 1.0 + e_inv * (obs * e_x2[:, None]).sum(axis=0)
        state.b_var = 1.0 / prec_b
        resid_b = obs * (pos - state.a_mean[None, :]) * state.x_mean[:, None]
        state.b_mean = e_inv * resid_b.sum(axis=0) / prec_b

        e_b2 = state.b_mean**2 + state.b_var
        prec_x = 1.0 + e_inv * (obs * e_b2[None, :]).sum(axis=1)
        state.x_var = 1.0 / prec_x
        resid_x = obs * (pos - state.a_mean[None, :]) * state.b_mean[None, :]
        state.x_mean = e_inv * resid_x.sum(axis=1) / prec_x

        res = minimize(
            _sigma_objective,
            np.array([state.sigma_mu, state.sigma_logsd]),
            args=(n_obs, resid_sq_total()),
            jac=True,
            method="L-BFGS-B",
        )
        state.sigma_mu, state.sigma_logsd = res.x

        value = elbo()
        trace.append((sweep, value))
        if abs(value - prev) <= 1e-12 * abs(prev):
            break
        prev = value
    return state, trace
