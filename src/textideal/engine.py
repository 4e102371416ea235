"""Reparameterized variational inference engine.

Every mean-field factor is one `Family`: Gaussian on the real line, with a
location mu and a log-scale log_sigma. One `Family.draw` per factor turns a
noise draw z into

    u = mu + sigma * z,   sigma = exp(log_sigma),

and the model's sample s = u for real latents, or s = exp(u) for positive
ones (`positive=True`, a lognormal factor); priors, log q and gradients
reuse its u, s and sigma. The objective is taken in u for every factor, as
in ADVI (Kucukelbir et al. 2017): priors are densities over u (the Gamma
prior carries the Jacobian of s = exp(u)) and log q is Gaussian in u. The
single-draw objective estimate is

    elbo(z) = log p(u) + (N / |batch|) * loglik(batch | s) - log q(u).

Gradients are exact derivatives of that estimate with z held fixed: models
supply d loglik / d u (s * d loglik / d s for positive factors), and one
chain rule through u serves every factor. Nothing takes log s, so a sample
that underflows to 0 leaves the objective finite. `finite_difference`
provides the independent check.

Every parameter lives in one buffer, `VariationalState.flat`. `gradient`
returns (estimate, grad) with grad laid out like it, and `elbo_estimate`
is that estimate alone. Adam ascent updates the buffer in place, one
array a step. `NormalPrior` is standard normal, the prior of every real
latent here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

LOG_2PI = math.log(2.0 * math.pi)


class NonFiniteElbo(Exception):
    """The objective estimate became NaN or infinite during optimization."""

    def __init__(self, step, value=None):
        self.step = step
        self.value = value
        super().__init__(f"non-finite objective estimate at step {step}: {value}")


# ---------------------------------------------------------------------------
# Variational families
# ---------------------------------------------------------------------------


class Family:
    """Elementwise mean-field factors, Gaussian on the real line.

    u = mu + sigma * z with sigma = exp(log_sigma); the sample is u itself,
    or exp(u) (a lognormal factor) when `positive`. Copies its inputs.
    """

    def __init__(self, mu, log_sigma, positive=False):
        self.mu = np.array(mu, dtype=np.float64)
        self.log_sigma = np.array(log_sigma, dtype=np.float64)
        self.positive = bool(positive)
        if self.mu.shape != self.log_sigma.shape:
            raise ValueError("mu and log_sigma must have identical shapes")

    @property
    def sigma(self):
        return np.exp(self.log_sigma)

    def draw(self, z):
        """(u, sample, sigma) for standard noise z, sigma = exp(log_sigma)."""
        z = np.asarray(z)
        if z.shape != self.mu.shape:
            raise ValueError(f"noise shape {z.shape} != parameter shape {self.mu.shape}")
        sigma = self.sigma
        u = self.mu + sigma * z
        return u, (np.exp(u) if self.positive else u), sigma

    def log_density(self, u, sigma):
        """log q at the value u (a Gaussian), given `draw`'s sigma."""
        t = (u - self.mu) / sigma
        return float((-0.5 * LOG_2PI - self.log_sigma - 0.5 * t * t).sum())

    def posterior_mean(self):
        if self.positive:
            return np.exp(self.mu + 0.5 * self.sigma**2)
        return self.mu.copy()


def gaussian_families(shapes, rng):
    """Real-valued factors initialized as in every training recipe here:
    locations 0.1 * N(0, 1) and scales 0.1.

    Locations are drawn from `rng` in the order of `shapes` (name -> array
    shape), so the order fixes the random stream.
    """
    return {
        name: Family(0.1 * rng.standard_normal(shape), np.full(shape, math.log(0.1)))
        for name, shape in shapes.items()
    }


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


class GammaPrior:
    """Independent Gamma(shape, rate) prior on a positive latent s = exp(u)."""

    def __init__(self, shape, rate):
        if shape <= 0 or rate <= 0:
            raise ValueError("Gamma prior needs positive shape and rate")
        self.shape = float(shape)
        self.rate = float(rate)

    def log_prob(self, u, s):
        """Log density of u = log s, the Jacobian u included."""
        a, b = self.shape, self.rate
        return float((a * math.log(b) - gammaln(a) + a * u - b * s).sum())

    def dlog_prob(self, s):
        return self.shape - self.rate * s


class NormalPrior:
    """Independent standard normal prior on a real latent array."""

    def log_prob(self, u, s):
        return float((-0.5 * LOG_2PI - 0.5 * s * s).sum())

    def dlog_prob(self, s):
        return -s


# ---------------------------------------------------------------------------
# Variational state
# ---------------------------------------------------------------------------


class VariationalState:
    """Named mean-field factors paired with their priors.

    The state owns one float64 buffer, `flat`, holding every factor's mu
    and log_sigma back to back in family order. Each family's `mu`
    and `log_sigma` are views into it, so one Adam update covers them all.
    """

    def __init__(self, families, priors):
        if set(families) != set(priors):
            raise ValueError("families and priors must share the same names")
        self.families = dict(families)
        self.priors = dict(priors)
        self._shapes, parts = [], []
        for name, fam in self.families.items():
            for part, p in (("mu", fam.mu), ("log_sigma", fam.log_sigma)):
                self._shapes.append((f"{name}.{part}", p.shape))
                parts.append(p.ravel())
        self.flat = np.concatenate(parts)
        views = self.views(self.flat)
        for name, fam in self.families.items():
            fam.mu, fam.log_sigma = views[f"{name}.mu"], views[f"{name}.log_sigma"]

    def views(self, buf):
        """{'<name>.mu' / '<name>.log_sigma': view} into `buf`, laid out like `flat`."""
        out = {}
        start = 0
        for key, shape in self._shapes:
            stop = start + math.prod(shape)
            out[key] = buf[start:stop].reshape(shape)
            start = stop
        return out

    def sample_noise(self, rng):
        """One standard-normal draw per factor, shaped like its parameters."""
        return {
            name: rng.standard_normal(fam.mu.shape)
            for name, fam in self.families.items()
        }

    def draw(self, noise):
        """{name: (u, sample, sigma)}, each factor's `Family.draw`."""
        return {name: fam.draw(noise[name]) for name, fam in self.families.items()}

    def parameters(self):
        """Live parameter arrays keyed by '<name>.mu' / '<name>.log_sigma'."""
        return self.views(self.flat)

    def set_parameters(self, params):
        """Copy '<name>.mu' / '<name>.log_sigma' arrays into the live views."""
        for key, view in self.parameters().items():
            value = np.asarray(params[key], dtype=np.float64)
            if value.shape != view.shape:
                raise ValueError(f"{key} has shape {value.shape}, expected {view.shape}")
            view[...] = value

    def posterior_means(self):
        return {name: fam.posterior_mean() for name, fam in self.families.items()}


def _estimate(state, batch, model, num_items, noise):
    """(objective estimate, the state's draws, likelihood gradients, scale)."""
    batch = np.atleast_1d(np.asarray(batch))
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    if num_items < batch.size:
        raise ValueError("num_items must be at least the batch size")
    draws = state.draw(noise)
    log_prior = log_q = 0
    for name, (u, s, sigma) in draws.items():
        log_prior += state.priors[name].log_prob(u, s)
        log_q += state.families[name].log_density(u, sigma)
    samples = {name: s for name, (_, s, _) in draws.items()}
    loglik, lik_grads = model.loglik(samples, batch)
    scale = num_items / batch.size
    return log_prior + scale * loglik - log_q, draws, lik_grads, scale


def elbo_estimate(state, batch, model, num_items, noise):
    """Single-draw objective estimate for one minibatch of items.

    The likelihood over the batch is rescaled by num_items / len(batch);
    prior and entropy terms cover every factor in full. The model's pass is
    the one `gradient` runs; only the per-factor derivatives are skipped.
    """
    return _estimate(state, batch, model, num_items, noise)[0]


def gradient(state, batch, model, num_items, noise, out=None):
    """Exact gradient of `elbo_estimate` with the noise draw held fixed.

    Returns (estimate, grad): the estimate from the same pass, and the
    gradient in `out`, a buffer laid out like `state.flat` (a fresh one
    when `out` is None). `state.views(grad)` names its parts.
    """
    value, draws, lik_grads, scale = _estimate(state, batch, model, num_items, noise)
    if out is None:
        out = np.empty_like(state.flat)
    grads = state.views(out)
    for name, (_, s, sigma) in draws.items():
        g_mu = grads[f"{name}.mu"]
        g_log_sigma = grads[f"{name}.log_sigma"]
        g = lik_grads.get(name)
        if g is None:
            g_mu[...] = state.priors[name].dlog_prob(s)
        else:
            np.multiply(g, scale, out=g_mu)
            g_mu += state.priors[name].dlog_prob(s)
        # u = mu + sigma * z, and log q contributes -d log_sigma = +1.
        np.multiply(noise[name], sigma, out=g_log_sigma)
        g_log_sigma *= g_mu
        g_log_sigma += 1.0
    return value, out


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class AdamState:
    """Adam's step count and first/second moments, made on the first step."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None


def adam_step(adam, p, g):
    """One bias-corrected Adam ascent step on the array `p` in place; returns `p`.

    The moments in `adam` are shaped like `p`. One scratch array and one
    denominator hold every intermediate.
    """
    adam.t += 1
    if adam.m is None:
        adam.m = np.zeros_like(p)
        adam.v = np.zeros_like(p)
    c1 = 1.0 - _BETA1**adam.t
    c2 = 1.0 - _BETA2**adam.t
    m, v = adam.m, adam.v
    step = np.multiply(g, 1.0 - _BETA1)
    m *= _BETA1
    m += step
    np.multiply(g, 1.0 - _BETA2, out=step)
    step *= g
    v *= _BETA2
    v += step
    denom = np.divide(v, c2)
    np.sqrt(denom, out=denom)
    denom += _EPS
    np.divide(m, c1, out=step)
    step *= adam.lr
    step /= denom
    p += step
    return p


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def finite_difference(fn, params, step=1e-5):
    """Central finite differences of a scalar function of named arrays.

    `fn` takes a {key: array} dict and returns a float. Used as the
    independent contract check for `gradient`.
    """
    grads = {}
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    for key, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn(work)
            flat[i] = orig - step
            lo = fn(work)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[key] = g
    return grads


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------


def fit(state, model, cfg, rng):
    """Run Adam ascent on the single-draw objective; returns the trace.

    `cfg` (a `tbip.TrainConfig`) supplies max_steps, batch_size, mc_samples,
    elbo_report_interval and the learning rate. Items are subsampled
    uniformly without replacement per step; when batch_size >=
    model.num_items every step uses the full batch in index order, so runs
    are bitwise reproducible for a fixed seed. The trace holds (step,
    estimate) pairs every `elbo_report_interval` steps.

    Gradients go into one flat buffer laid out like `state.flat` (draws
    after the first into a second one, summed in draw order), and each
    step is a single `adam_step` over `state.flat`, so Adam's moments are
    flat too.
    """
    adam = AdamState(cfg.lr)
    total = np.empty_like(state.flat)
    extra = np.empty_like(state.flat) if cfg.mc_samples > 1 else None
    num_items = model.num_items
    full_batch = cfg.batch_size >= num_items
    fixed = np.arange(num_items)
    trace = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, cfg.max_steps + 1):
            batch = fixed if full_batch else rng.choice(num_items, cfg.batch_size, replace=False)
            noise = state.sample_noise(rng)
            value, _ = gradient(state, batch, model, num_items, noise, out=total)
            for _ in range(1, cfg.mc_samples):
                noise = state.sample_noise(rng)
                value = value + gradient(state, batch, model, num_items, noise, out=extra)[0]
                total += extra
            if cfg.mc_samples > 1:
                value = value / cfg.mc_samples
                total /= cfg.mc_samples
            value = float(value)
            if not math.isfinite(value):
                raise NonFiniteElbo(step, value)
            adam_step(adam, state.flat, total)
            if step == 1 or step % cfg.elbo_report_interval == 0 or step == cfg.max_steps:
                trace.append((step, value))
    return trace
