"""The text-based ideal point model.

Word counts follow a Poisson factorization whose per-topic rates are tilted
by the author's position on a latent left-right axis:

    y_dv ~ Pois( w_a * sum_k theta_dk * beta_kv * exp(x_a * eta_kv) ),

with a = author of document d and w the author verbosity weights. Gamma
priors on theta and beta, standard normal priors on eta and x. Training
initializes theta/beta from a Poisson factorization pretrain, then runs
stochastic reparameterized ascent (see `engine`) on one variational state:
theta and beta are its positive (lognormal) factors under `PriorConfig`'s
Gamma(a, b), eta and x its real (Gaussian) ones.

The minibatch likelihood and its gradients come from one pass in one of
two self-contained layouts, chosen once per corpus. On a sparse corpus the
Poisson mass comes from per-author sums over cache-sized tiles, each one
topic by a span of the vocabulary, and the y / rate terms from a loop over
the batch authors, each over only the terms its batch documents use. On a
corpus at least a quarter dense, the G batch authors' tilted bases are
formed once, in one batched pass that also gives the mass, and the y /
rate terms come from one pass per author over only its own documents'
dense rows, costing B * V * K per batch of B documents.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import engine, fitio, pf
from .corpus import compute_weights, log_transform
from .engine import VariationalState, gaussian_factors


@dataclass(frozen=True)
class PriorConfig:
    """Gamma(a, b) prior on the positive latents; the real latents are
    standard normal (unit scale, fixed)."""

    a: float = 0.3
    b: float = 0.3

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("prior shape and rate must be positive")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; defaults follow the long-document setup
    (50 topics, minibatches of 512, one Monte Carlo sample per step)."""

    k: int = 50
    batch_size: int = 512
    max_steps: int = 50_000
    seed: int = 0
    lr: float = 0.01
    mc_samples: int = 1
    use_log_transform: bool = False
    elbo_report_interval: int = 100
    pretrain_sweeps: int = 100

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.elbo_report_interval < 1:
            raise ValueError("elbo_report_interval must be >= 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and >= 0")

    def asdict(self):
        return dataclasses.asdict(self)


@dataclass
class FitResult:
    """Posterior-mean estimates plus the objective trace and config."""

    theta_hat: np.ndarray
    beta_hat: np.ndarray
    eta_hat: np.ndarray
    x_hat: np.ndarray
    elbo_trace: list
    config: dict
    author_names: list | None = None
    eta_sigma: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.theta_hat <= 0) or np.any(self.beta_hat <= 0):
            raise ValueError("theta_hat and beta_hat must be strictly positive")
        if not np.all(np.isfinite(self.x_hat)):
            raise ValueError("x_hat must be finite")


def tbip_rate(theta_d, beta, eta, x_author, w_author):
    """Poisson rate over the vocabulary for one document.

    Raises OverflowError if the ideological tilt exp(x * eta) leaves the
    finite float range; no clamping is applied.
    """
    theta_d = np.asarray(theta_d, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    if beta.shape != eta.shape or theta_d.shape[0] != beta.shape[0]:
        raise ValueError("shape mismatch between theta, beta and eta")
    if w_author <= 0:
        raise ValueError("verbosity weight must be positive")
    with np.errstate(over="ignore"):
        rate = w_author * (theta_d @ (beta * np.exp(x_author * eta)))
    if not np.all(np.isfinite(rate)):
        raise OverflowError("rate overflowed the finite float range")
    if np.any(rate <= 0):
        raise ValueError("rate must be strictly positive")
    return rate


def log_likelihood_doc(y_d, rate):
    """Poisson log likelihood of one document's dense count row.

    Sums over the whole vocabulary, so zero counts contribute -rate.
    """
    y_d = np.asarray(y_d, dtype=np.float64)
    rate = np.asarray(rate, dtype=np.float64)
    if np.any(rate <= 0):
        raise ValueError("rate must be strictly positive")
    return float(np.sum(y_d * np.log(rate) - rate - gammaln(y_d + 1.0)))


# Cells of one exp(x_a * eta) tile of the mass: one topic x batch authors x
# a span of the vocabulary. Large enough that the inner loops run long and
# numpy's per-call overhead stays small, small enough to stay in cache.
_TILE_CELLS = 1 << 17


def _mass_sums(beta, eta, x_batch, c):
    """Per-author sums over the vocabulary that give the sparse layout's
    Poisson mass; that layout is the only caller.

    With E_a = exp(x_a * eta) for the G batch authors and c (K x G), returns
    `sums` (K x G x 2), r_a = sum_v beta * E_a and q_a = sum_v beta * eta *
    E_a, and `mass` (2 x K x V), sum_a c_a * E_a and sum_a x_a * c_a * E_a.
    E is built one topic x (_TILE_CELLS // G terms) tile at a time.
    """
    k, v = beta.shape
    span = max(1, min(v, _TILE_CELLS // x_batch.size))
    x_col = x_batch[:, None]
    sums = np.zeros((k, x_batch.size, 2))
    lhs = np.stack([c, c * x_batch], axis=1)
    mass = np.empty((2, k, v))
    e_buf, rhs_buf = np.empty((x_batch.size, span)), np.empty((span, 2))
    for t in range(k):
        for v0 in range(0, v, span):
            b, h = beta[t, v0 : v0 + span], eta[t, v0 : v0 + span]
            e = np.multiply(x_col, h, out=e_buf[:, : h.size])
            np.exp(e, out=e)
            rhs = np.stack([b, b * h], axis=1, out=rhs_buf[: h.size])
            sums[t] += e @ rhs
            np.matmul(lhs[t], e, out=mass[:, t, v0 : v0 + span])
    return sums, mass


# A corpus whose nonzeros fill at least this share of its D x V cells is
# read as dense rows: finding each author's terms costs more than it saves.
# Its dense copy then takes at most 8/3 the bytes of the CSR counts.
_DENSE_SHARE = 0.25


def _count_blocks(indptr, terms, counts, bounds, num_terms):
    """Per batch author, (cols, y): the terms its documents use, and their
    counts as a dense (its docs) x (those terms) block.

    Author g's documents are rows bounds[g]:bounds[g+1] of the CSR arrays
    (indptr, terms, counts).
    """
    lengths = indptr[1:] - indptr[:-1]
    # `rank` maps each used term to its column in the author's block;
    # entries of other terms are stale.
    rank = np.empty(num_terms, dtype=np.intp)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        nz = slice(indptr[lo], indptr[hi])
        cols = np.bincount(terms[nz], minlength=num_terms).nonzero()[0]
        rank[cols] = np.arange(cols.size)
        flat = (cols.size * np.arange(hi - lo)).repeat(lengths[lo:hi])
        flat += rank[terms[nz]]
        y = np.zeros((hi - lo, cols.size))
        y.ravel()[flat] = counts[nz]
        yield cols, y


class TBIPModel:
    """Minibatch likelihood with analytic gradients: with respect to the
    samples of eta and x, and to the logs of the theta and beta samples.

    Document d of author a has rates lambda_d = w_a theta_d @ basis_a with
    basis_a = beta * exp(x_a * eta). The likelihood is the mass, sum_d sum_v
    lambda_dv = sum_a <c_a, r_a> with c_a = w_a sum_{d in batch(a)} theta_d
    and r_a = sum_v basis_a, against the y * log(lambda) terms, which vanish
    off the nonzeros. `loglik` groups the batch by author, then one of two
    layouts, chosen once from the corpus's density, computes the whole
    value and every gradient:
    - sparse (nonzeros below _DENSE_SHARE of D x V): the mass and the "-1"
      halves of the gradients from per-author sums over vocabulary tiles
      (`_mass_sums`), and one dense (docs x K) @ (K x terms) product per
      author over the terms its batch documents use;
    - dense: basis_a and r_a for all G batch authors in one batched pass
      (G x K x V), then one pass per author over its own documents' rows
      for lambda and the y / lambda terms, which costs B * V * K per batch
      of B documents however the batch splits across authors. The model
      keeps a read-only dense copy of the counts (D x V).
    """

    def __init__(self, corpus, weights):
        self.corpus = corpus
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape[0] != corpus.num_authors:
            raise ValueError("one weight per author required")
        self.num_items = corpus.num_docs
        # Per-document constant: sum_v log(y_dv!) over stored nonzeros.
        rows, _, vals = corpus.entries()
        self._lgamma_const = np.bincount(
            rows, weights=gammaln(vals + 1.0), minlength=corpus.num_docs
        )
        self._dense = None
        if vals.size >= _DENSE_SHARE * corpus.num_docs * corpus.num_terms:
            self._dense = corpus.counts.toarray()
            self._dense.flags.writeable = False

    def loglik(self, samples, doc_idx):
        theta = samples["theta"]

        # One stable sort groups the batch by author and keeps batch order
        # within each group; author g's documents are bounds[g]:bounds[g+1].
        doc_idx = np.asarray(doc_idx)
        author_of = self.corpus.author_of
        docs = doc_idx[author_of[doc_idx].argsort(kind="stable")]
        doc_author = author_of[docs]
        change = np.ones(docs.size + 1, dtype=bool)
        np.not_equal(doc_author[1:], doc_author[:-1], out=change[1:-1])
        bounds = change.nonzero()[0]
        authors = doc_author[bounds[:-1]]
        w = self.weights[authors]
        th = theta[docs]
        c = np.add.reduceat(th, bounds[:-1], axis=0)
        c *= w[:, None]
        x_batch = samples["x"][authors]

        # The mass, the y * log(lambda) terms, resid_theta per sorted batch
        # document, the position gradient per batch author, and the pair of
        # log-beta and eta gradients (K x V each).
        layout = self._sparse_layout if self._dense is None else self._dense_layout
        mass, part, resid_theta, grad_xa, terms = layout(samples, docs, bounds, w, th, c,
                                                         x_batch)
        value = -mass - float(self._lgamma_const[docs].sum()) + part
        grad_theta = np.zeros_like(theta)
        grad_theta[docs] = th * resid_theta
        grad_x = np.zeros_like(samples["x"])
        grad_x[authors] = grad_xa
        return value, {"theta": grad_theta, "beta": terms[0], "eta": terms[1], "x": grad_x}

    def _sparse_layout(self, samples, docs, bounds, w, th, c, x_batch):
        """The mass from `_mass_sums`; the y / lambda terms per author, over
        the terms its batch documents use."""
        beta = samples["beta"]
        k, num_terms = beta.shape
        sums, terms = _mass_sums(beta, samples["eta"], x_batch, c.T)
        blocks = _count_blocks(*self.corpus.row_entries(docs), bounds, num_terms)
        beta_t = np.ascontiguousarray(beta.T)
        eta_t = np.ascontiguousarray(samples["eta"].T)
        part = 0.0
        resid_theta = np.empty_like(th)
        grad_x = np.empty_like(x_batch)
        # Per term: the y / lambda halves of the log-beta and eta gradients,
        # side by side.
        sums_t = np.zeros((num_terms, 2 * k))
        for g, (cols, y) in enumerate(blocks):
            lo, hi = bounds[g], bounds[g + 1]
            eta_a = eta_t[cols]
            basis = eta_a * x_batch[g]
            np.exp(basis, out=basis)
            basis *= beta_t[cols]
            lam = th[lo:hi] @ basis.T
            lam *= w[g]
            part += float(np.vdot(y, np.log(lam)))
            resid = y / lam
            resid *= w[g]
            # theta's gradient is with respect to log theta. Its "-1" half,
            # like those of beta, eta and x, comes from the mass sums.
            resid_theta[lo:hi] = resid @ basis
            resid_theta[lo:hi] -= w[g] * sums[:, g, 0]
            # G_a = w (theta_a^T (y / lam - 1)) * basis is the gradient with
            # respect to log beta; eta's weighs it by x_a, and x_a's is
            # <G_a, eta>.
            both = np.empty((y.shape[1], 2 * k))
            g_a = np.matmul(resid.T, th[lo:hi], out=both[:, :k])
            g_a *= basis
            grad_x[g] = np.vdot(g_a, eta_a) - np.vdot(c[g], sums[:, g, 1])
            np.multiply(g_a, x_batch[g], out=both[:, k:])
            sums_t[cols] += both
        terms *= -beta
        terms += sums_t.reshape(num_terms, 2, k).transpose(1, 2, 0)
        return float((c.T * sums[:, :, 0]).sum()), part, resid_theta, grad_x, terms

    def _dense_layout(self, samples, docs, bounds, w, th, c, x_batch):
        """One pass per batch author over its own documents' dense rows;
        the mass from the same basis."""
        beta = samples["beta"]
        eta = samples["eta"]
        k, num_terms = beta.shape
        sizes = bounds[1:] - bounds[:-1]
        y = self._dense.take(docs, axis=0)
        # w_a theta_d: lam then needs no pass of its own to scale it.
        w_doc = w.repeat(sizes)[:, None]
        th_w = th * w_doc
        # basis_a = beta * exp(x_a * eta), (G x K x V), and r_a its sum over
        # the vocabulary, (G x K).
        basis = eta * x_batch[:, None, None]
        np.exp(basis, out=basis)
        basis *= beta
        r = basis.sum(axis=2)
        # lam and y / lam of one author's documents, reused across authors.
        lam_buf = np.empty((sizes.max(), num_terms))
        resid_buf = np.empty_like(lam_buf)
        part = 0.0
        resid_theta = np.empty_like(th)
        g_a = np.empty_like(basis)
        edges = bounds.tolist()  # Python ints: cheaper slicing than numpy's
        for g, (lo, hi) in enumerate(zip(edges, edges[1:])):
            th_a, y_a, basis_a = th_w[lo:hi], y[lo:hi], basis[g]
            lam = np.matmul(th_a, basis_a, out=lam_buf[: hi - lo])
            resid = np.divide(y_a, lam, out=resid_buf[: hi - lo])
            part += float(np.vdot(y_a, np.log(lam, out=lam)))
            np.matmul(resid, basis_a.T, out=resid_theta[lo:hi])
            np.matmul(th_a.T, resid, out=g_a[g])
        # theta's, per document: w_a (y / lam @ basis_a^T - r_a).
        resid_theta -= r.repeat(sizes, axis=0)
        resid_theta *= w_doc
        # G_a = (w theta_a^T (y / lam) - c_a) * basis_a (G x K x V) is the
        # gradient with respect to log beta; eta's weighs it by x_a, and
        # x_a's is <G_a, eta>.
        g_a -= c[:, :, None]
        g_a *= basis
        g_flat = g_a.reshape(sizes.size, k * num_terms)
        grad_eta = (x_batch @ g_flat).reshape(k, num_terms)
        return (float(np.vdot(c, r)), part, resid_theta, g_flat @ eta.ravel(),
                (g_a.sum(axis=0), grad_eta))


def make_state(corpus, k, theta_init, beta_init, priors, rng):
    """Variational state per the training recipe: locations of the positive
    latents start at the log pretrained estimates, those of the real ones
    at small random values, and every scale starts at 0.1."""
    num_docs, num_terms = corpus.num_docs, corpus.num_terms
    log_sig = np.log(0.1)
    factors = {
        "theta": (np.log(theta_init), np.full((num_docs, k), log_sig)),
        "beta": (np.log(beta_init), np.full((k, num_terms), log_sig)),
        # The factor order theta, beta, eta, x is the order `sample_noise` draws in.
        **gaussian_factors({"eta": (k, num_terms), "x": corpus.num_authors}, rng),
    }
    return VariationalState(factors, positive=("theta", "beta"), gamma=(priors.a, priors.b))


def train_tbip(corpus, cfg, priors=None, init=None):
    """Fit the model on a corpus and return posterior-mean estimates.

    `init` optionally provides pretrained (theta, beta) estimates; when
    absent a Poisson factorization pretrain supplies them. Raises
    engine.NonFiniteElbo if the objective estimate diverges.
    """
    if priors is None:
        priors = PriorConfig()
    if corpus.num_docs < 1 or corpus.num_terms < 1 or corpus.num_authors < 1:
        raise ValueError("corpus must have at least one document, term and author")

    work = log_transform(corpus) if cfg.use_log_transform else corpus
    if init is None:
        theta0, beta0 = pf.pretrain(
            work, cfg.k, priors.a, priors.b, sweeps=cfg.pretrain_sweeps, seed=cfg.seed
        )
    else:
        theta0, beta0 = (np.asarray(arr, dtype=np.float64) for arr in init)
        if theta0.shape != (work.num_docs, cfg.k) or beta0.shape != (cfg.k, work.num_terms):
            raise ValueError("init shapes do not match the corpus and k")
        if np.any(theta0 <= 0) or np.any(beta0 <= 0):
            raise ValueError("init estimates must be strictly positive")

    weights = compute_weights(work)
    rng = np.random.default_rng(cfg.seed)
    state = make_state(work, cfg.k, theta0, beta0, priors, rng)
    model = TBIPModel(work, weights)
    trace = engine.fit(state, model, cfg, rng)
    means = state.posterior_means()
    config = {"model": "tbip", "priors": dataclasses.asdict(priors), **cfg.asdict()}
    return FitResult(
        theta_hat=means["theta"],
        beta_hat=means["beta"],
        eta_hat=means["eta"],
        x_hat=means["x"],
        elbo_trace=trace,
        config=config,
        author_names=list(corpus.author_names),
        eta_sigma=np.exp(state.parameters()["eta.log_sigma"]),
    )


def save_fit(fit, outdir):
    """Serialize a FitResult into a fit directory."""
    arrays = {
        "theta": fit.theta_hat,
        "beta": fit.beta_hat,
        "eta": fit.eta_hat,
        "x": fit.x_hat,
    }
    if fit.eta_sigma is not None:
        arrays["eta_sigma"] = fit.eta_sigma
    fitio.save_fit_dir(outdir, arrays, fit.config, fit.elbo_trace,
                       author_names=fit.author_names)


def load_fit(indir):
    """Load a FitResult from a fit directory.

    Raises ValueError naming the directory when it lacks a TBIP array, as a
    fit of another model does.
    """
    arrays, manifest, trace = fitio.load_fit_dir(indir)
    missing = [name for name in ("theta", "beta", "eta", "x") if name not in arrays]
    if missing:
        raise ValueError(f"{indir} is not a tbip fit: missing arrays {', '.join(missing)}")
    return FitResult(
        theta_hat=arrays["theta"],
        beta_hat=arrays["beta"],
        eta_hat=arrays["eta"],
        x_hat=arrays["x"],
        elbo_trace=trace,
        config=manifest.get("config", {}),
        author_names=manifest.get("author_names"),
        eta_sigma=arrays.get("eta_sigma"),
    )
