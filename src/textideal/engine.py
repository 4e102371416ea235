"""Reparameterized variational inference engine.

The variational family is one `VariationalState`: a Gaussian on the real
line for every latent cell, with a location mu and a log-scale log_sigma.
One standard-normal noise draw z over every cell gives

    u = mu + sigma * z,   sigma = exp(log_sigma).

The factors named `positive` come first. Their samples are s = exp(u)
(lognormal factors) under one Gamma(a, b) prior; every other factor is
real, s = u, under a standard normal prior. The objective is taken in u
for every factor, as in ADVI (Kucukelbir et al. 2017): priors are
densities over u (the Gamma prior carries the Jacobian of s = exp(u)) and
log q is Gaussian in u. The single-draw objective estimate is

    elbo(z) = log p(u) + (N / |batch|) * loglik(batch | s) - log q(u).

Gradients are exact derivatives of that estimate with z held fixed: models
supply d loglik / d u (s * d loglik / d s for positive factors), and one
chain rule through u serves every factor. Nothing takes log s, so a sample
that underflows to 0 leaves the objective finite. `finite_difference`
provides the independent check.

Every parameter lives in one buffer, `VariationalState.flat`: every
factor's mu, then every factor's log_sigma, in factor order. A noise draw
is laid out like the mu half. `gradient` returns (estimate, grad) with
grad laid out like `flat`, and `elbo_estimate` is that estimate alone.
Adam ascent updates the buffer in place, one array a step.
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
# Variational state
# ---------------------------------------------------------------------------


def gaussian_factors(shapes, rng):
    """Real-valued factors initialized as in every training recipe here:
    {name: (mu, log_sigma)} with locations 0.1 * N(0, 1) and scales 0.1.

    Locations are drawn from `rng` in the order of `shapes` (name -> array
    shape), so the order fixes the random stream.
    """
    return {
        name: (0.1 * rng.standard_normal(shape), np.full(shape, math.log(0.1)))
        for name, shape in shapes.items()
    }


class VariationalState:
    """Mean-field factors over one float64 buffer, `flat`.

    `factors` maps each name to its initial (mu, log_sigma), which are
    copied. The factors named in `positive` must come first: they are
    lognormal under a Gamma prior with (shape, rate) `gamma`. Every other
    factor is Gaussian under N(0, 1). `flat` holds every factor's mu, then
    every factor's log_sigma; `mu` and `log_sigma` are its two halves.
    """

    def __init__(self, factors, positive=(), gamma=None):
        names = list(factors)
        self.positive = tuple(positive)
        if sorted(names[: len(self.positive)]) != sorted(self.positive):
            raise ValueError(f"positive factors {self.positive} must be the first of {names}")
        if self.positive and not (gamma is not None and gamma[0] > 0 and gamma[1] > 0):
            raise ValueError("positive factors need a Gamma prior with positive shape and rate")
        self.gamma = gamma
        self._layout, parts, start = {}, [], 0
        for name, (mu, log_sigma) in factors.items():
            mu = np.asarray(mu, dtype=np.float64)
            log_sigma = np.asarray(log_sigma, dtype=np.float64)
            if mu.shape != log_sigma.shape:
                raise ValueError(f"{name}: mu and log_sigma must have identical shapes")
            self._layout[name] = (slice(start, start + mu.size), mu.shape, name in self.positive)
            start += mu.size
            parts.append((mu.ravel(), log_sigma.ravel()))
        self.size = start
        self._positive_cells = sum(math.prod(self._layout[name][1]) for name in self.positive)
        self.flat = np.concatenate([mu for mu, _ in parts] + [ls for _, ls in parts])
        self.mu, self.log_sigma = self.flat[:start], self.flat[start:]

    def split(self, buf):
        """{name: view} into `buf`, laid out like `mu` (one cell per latent)."""
        return {name: buf[sl].reshape(shape) for name, (sl, shape, _) in self._layout.items()}

    def views(self, buf):
        """{'<name>.mu' / '<name>.log_sigma': view} into `buf`, laid out like `flat`."""
        halves = (("mu", buf[: self.size]), ("log_sigma", buf[self.size :]))
        return {f"{name}.{part}": view
                for part, half in halves for name, view in self.split(half).items()}

    def sample_noise(self, rng):
        """One standard-normal draw, laid out like `mu`."""
        return rng.standard_normal(self.size)

    def draw(self, noise):
        """(u, s, sigma) for noise laid out like `mu`: sigma = exp(log_sigma)
        and u = mu + sigma * noise over every cell, s = exp(u) over the
        positive factors' cells."""
        noise = np.asarray(noise)
        if noise.shape != self.mu.shape:
            raise ValueError(f"noise shape {noise.shape} != parameter shape {self.mu.shape}")
        sigma = np.exp(self.log_sigma)
        u = sigma * noise
        u += self.mu
        return u, np.exp(u[: self._positive_cells]), sigma

    def samples(self, u, s):
        """{name: sample} from `draw`: views of s for positive factors, of u otherwise."""
        return {name: (s if positive else u)[sl].reshape(shape)
                for name, (sl, shape, positive) in self._layout.items()}

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
        """{name: mean under q}: exp(mu + sigma^2 / 2) if positive, else mu."""
        means = self.mu.copy()
        p = self._positive_cells
        means[:p] = np.exp(self.mu[:p] + 0.5 * np.exp(self.log_sigma[:p]) ** 2)
        return self.split(means)


def _estimate(state, batch, model, num_items, noise):
    """(objective estimate, the draw's u, s and sigma, likelihood gradients, scale)."""
    batch = np.atleast_1d(np.asarray(batch))
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    if num_items < batch.size:
        raise ValueError("num_items must be at least the batch size")
    u, s, sigma = state.draw(noise)
    # Prior and log q terms, summed factor by factor in factor order.
    log_prior = log_q = 0
    for sl, _, positive in state._layout.values():
        u_f = u[sl]
        if positive:
            a, b = state.gamma
            log_prior += float((a * math.log(b) - gammaln(a) + a * u_f - b * s[sl]).sum())
        else:
            log_prior += float((-0.5 * LOG_2PI - 0.5 * u_f * u_f).sum())
        t = (u_f - state.mu[sl]) / sigma[sl]
        log_q += float((-0.5 * LOG_2PI - state.log_sigma[sl] - 0.5 * t * t).sum())
    loglik, lik_grads = model.loglik(state.samples(u, s), batch)
    scale = num_items / batch.size
    return log_prior + scale * loglik - log_q, u, s, sigma, lik_grads, scale


def elbo_estimate(state, batch, model, num_items, noise):
    """Single-draw objective estimate for one minibatch of items.

    The likelihood over the batch is rescaled by num_items / len(batch);
    prior and entropy terms cover every factor in full. The model's pass is
    the one `gradient` runs; only the derivatives are skipped.
    """
    return _estimate(state, batch, model, num_items, noise)[0]


def gradient(state, batch, model, num_items, noise, out=None):
    """Exact gradient of `elbo_estimate` with the noise draw held fixed.

    Returns (estimate, grad): the estimate from the same pass, and the
    gradient in `out`, a buffer laid out like `state.flat` (a fresh one
    when `out` is None). `state.views(grad)` names its parts.
    """
    value, u, s, sigma, lik_grads, scale = _estimate(state, batch, model, num_items, noise)
    if out is None:
        out = np.empty_like(state.flat)
    p = s.size
    g_mu, g_log_sigma = out[: state.size], out[state.size :]
    # Prior derivatives in u: a - b * s under the Gamma prior, -u under N(0, 1).
    if p:
        a, b = state.gamma
        np.multiply(s, -b, out=g_mu[:p])
        g_mu[:p] += a
    np.negative(u[p:], out=g_mu[p:])
    for name, g_f in state.split(g_mu).items():
        g = lik_grads.get(name)
        if g is not None:
            g_f += g * scale
    # u = mu + sigma * z, and log q contributes -d log_sigma = +1.
    np.multiply(noise, sigma, out=g_log_sigma)
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
