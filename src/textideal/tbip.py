"""The text-based ideal point model.

Word counts follow a Poisson factorization whose per-topic rates are tilted
by the author's position on a latent left-right axis:

    y_dv ~ Pois( w_a * sum_k theta_dk * beta_kv * exp(x_a * eta_kv) ),

with a = author of document d and w the author verbosity weights. Gamma
priors on theta and beta, standard normal priors on eta and x. Training
initializes theta/beta from a Poisson factorization pretrain, then runs
stochastic reparameterized ascent (see `engine`) with lognormal factors on
the positive latents and Gaussian factors on the real ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import engine, fitio, pf
from .corpus import compute_weights, log_transform
from .engine import (
    AdamState,
    Family,
    GammaPrior,
    NormalPrior,
    VariationalState,
    gaussian_families,
)


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


class TBIPModel:
    """Minibatch likelihood with analytic gradients: with respect to the
    samples of eta and x, and to the logs of the theta and beta samples.

    Documents are grouped by author inside each batch so the rate reduces
    to one (docs x K) @ (K x V) product per author.
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

    def loglik(self, samples, doc_idx, want_grads=False):
        theta = samples["theta"]
        beta = samples["beta"]
        eta = samples["eta"]
        x = samples["x"]

        # One stable sort groups the batch by author and keeps batch order
        # within each group; one call fetches every dense count row.
        doc_idx = np.asarray(doc_idx)
        docs_sorted = doc_idx[np.argsort(self.corpus.author_of[doc_idx], kind="stable")]
        authors, starts = np.unique(self.corpus.author_of[docs_sorted], return_index=True)
        ends = np.append(starts[1:], docs_sorted.size)
        y_sorted = self.corpus.dense_rows(docs_sorted)

        value = 0.0
        if want_grads:
            grad_theta = np.zeros_like(theta)
            grad_x = np.zeros_like(x)
            g_sum = np.zeros_like(beta)
            xg_sum = np.zeros_like(eta)
        for a, lo, hi in zip(authors, starts, ends):
            docs = docs_sorted[lo:hi]
            y = y_sorted[lo:hi]
            w = self.weights[a]
            basis = x[a] * eta
            np.exp(basis, out=basis)
            basis *= beta
            th = theta[docs]
            lam = w * (th @ basis)
            value += float(
                np.sum(y * np.log(lam)) - lam.sum() - self._lgamma_const[docs].sum()
            )
            if want_grads:
                resid = y / lam
                resid -= 1.0
                resid *= w
                # theta's gradient is with respect to log theta.
                grad_theta[docs] = th * (resid @ basis.T)
                # G_a = w (theta_a^T (y / lam - 1)) * basis is the gradient
                # with respect to log beta; eta's weighs it by x_a, and
                # x_a's is <G_a, eta>.
                g = th.T @ resid
                g *= basis
                g_sum += g
                grad_x[a] = np.vdot(g, eta)
                g *= x[a]
                xg_sum += g
        if not want_grads:
            return value, None
        return value, {"theta": grad_theta, "beta": g_sum, "eta": xg_sum, "x": grad_x}


def make_state(corpus, k, theta_init, beta_init, priors, rng):
    """Variational state per the training recipe: locations of the positive
    latents start at the log pretrained estimates, those of the real ones
    at small random values, and every scale starts at 0.1."""
    num_docs, num_terms = corpus.num_docs, corpus.num_terms
    log_sig = np.log(0.1)
    families = {
        "theta": Family(np.log(theta_init), np.full((num_docs, k), log_sig), positive=True),
        "beta": Family(np.log(beta_init), np.full((k, num_terms), log_sig), positive=True),
        # The factor order theta, beta, eta, x is the order `sample_noise` draws in.
        **gaussian_families({"eta": (k, num_terms), "x": corpus.num_authors}, rng),
    }
    prior_map = {
        "theta": GammaPrior(priors.a, priors.b),
        "beta": GammaPrior(priors.a, priors.b),
        "eta": NormalPrior(1.0),
        "x": NormalPrior(1.0),
    }
    return VariationalState(families, prior_map)


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
    adam = AdamState(cfg.lr)
    trace = engine.fit(
        state,
        model,
        max_steps=cfg.max_steps,
        batch_size=cfg.batch_size,
        rng=rng,
        adam=adam,
        mc_samples=cfg.mc_samples,
        elbo_report_interval=cfg.elbo_report_interval,
    )
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
        eta_sigma=state.families["eta"].sigma,
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
    d, k = fit.theta_hat.shape
    manifest = {
        "dims": {
            "num_docs": d,
            "num_topics": k,
            "num_terms": fit.beta_hat.shape[1],
            "num_authors": int(fit.x_hat.shape[0]),
        },
        "config": fit.config,
        "seed": fit.config.get("seed"),
        "author_names": fit.author_names,
    }
    fitio.save_fit_dir(outdir, arrays, manifest, fit.elbo_trace)


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
