"""Bayesian vote ideal points from roll-call data.

Votes follow a one-dimensional logistic factor model: lawmaker i votes yea
on bill j with probability sigmoid(alpha_j + x_i * eta_j), all three
latents standard normal a priori. Trained with the same reparameterized
machinery as the text model, with Gaussian factors throughout.
"""

from __future__ import annotations

import csv
from collections import namedtuple

import numpy as np

from . import engine
from .engine import VariationalState, gaussian_factors
from .fitio import open_text


def sigmoid(t):
    """Logistic function, stable across the float range: with q = exp(-|t|),
    1 / (1 + q) for t >= 0 and q / (1 + q) below."""
    t = np.asarray(t, dtype=np.float64)
    q = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0, q) / (1.0 + q)
    return out if out.ndim else float(out)


def vote_prob(alpha_j, eta_j, x_i):
    """Probability of a yea vote."""
    return sigmoid(alpha_j + x_i * eta_j)


class VoteMatrix:
    """Sparse ternary vote records; only yea(1)/nay(0) entries are stored."""

    def __init__(self, lawmaker_idx, bill_idx, votes, lawmaker_names, bill_ids):
        self.lawmaker_idx = np.asarray(lawmaker_idx, dtype=np.int64)
        self.bill_idx = np.asarray(bill_idx, dtype=np.int64)
        self.votes = np.asarray(votes, dtype=np.int64)
        self.lawmaker_names = list(lawmaker_names)
        self.bill_ids = list(bill_ids)
        n = self.votes.shape[0]
        if self.lawmaker_idx.shape[0] != n or self.bill_idx.shape[0] != n:
            raise ValueError("index arrays and votes must have equal length")
        if not np.all((self.votes == 0) | (self.votes == 1)):
            raise ValueError("votes must be 0 or 1")
        if n:
            if self.lawmaker_idx.min() < 0 or self.lawmaker_idx.max() >= len(self.lawmaker_names):
                raise ValueError("lawmaker index out of range")
            if self.bill_idx.min() < 0 or self.bill_idx.max() >= len(self.bill_ids):
                raise ValueError("bill index out of range")
        pairs = self.lawmaker_idx * len(self.bill_ids) + self.bill_idx
        if np.unique(pairs).size != n:
            raise ValueError("duplicate (lawmaker, bill) pair")

    @property
    def num_lawmakers(self):
        return len(self.lawmaker_names)

    @property
    def num_bills(self):
        return len(self.bill_ids)


class VoteModel:
    """Bernoulli likelihood over recorded votes; items are bills.

    Votes are held dense, bills x lawmakers: `_sign` is s = 2v - 1 on a
    recorded cell and 0 elsewhere, `_mask` is 1 on a recorded cell, and
    `_yea` is v (0 where unrecorded). Every cell of a batch bill's row is
    computed and the unrecorded ones are masked out, so a step costs
    (batch bills x lawmakers) whether the matrix is fully or partly
    recorded.
    """

    def __init__(self, votes):
        self.votes = votes
        self.num_items = votes.num_bills
        cells = (votes.bill_idx, votes.lawmaker_idx)
        shape = (votes.num_bills, votes.num_lawmakers)
        self._yea = np.zeros(shape)
        self._yea[cells] = votes.votes
        self._mask = np.zeros(shape)
        self._mask[cells] = 1.0
        self._sign = 2.0 * self._yea - self._mask

    def loglik(self, samples, bill_idx):
        """log p(votes on the batch's bills) and its gradients.

        With t = alpha_j + eta_j * x_i and q = exp(-|t|), a recorded cell
        adds -log(1 + exp(-s t)) = min(s t, 0) - log1p(q), and its
        d/dt = v - sigmoid(t), with sigmoid(t) = 1 / (1 + q) for t >= 0 and
        q / (1 + q) below.
        """
        x = samples["x"]
        # t = [alpha_J, eta_J] @ [1; x]; the transposed product then gives
        # the row sums and g @ x at once.
        coef = np.stack((samples["alpha"][bill_idx], samples["eta"][bill_idx]), axis=1)
        basis = np.stack((np.ones_like(x), x))
        t = coef @ basis
        mask = self._mask[bill_idx]
        q = np.abs(t)
        np.negative(q, out=q)
        np.exp(q, out=q)
        margin = t * self._sign[bill_idx]
        np.minimum(margin, 0.0, out=margin)
        value = float(margin.sum()) - float(np.vdot(mask, np.log1p(q)))
        sig = np.where(t >= 0, 1.0, q)
        q += 1.0
        sig /= q
        sig *= mask
        g = self._yea[bill_idx] - sig
        bill_grads = g @ basis.T
        n = self.num_items
        return value, {
            "alpha": np.bincount(bill_idx, weights=bill_grads[:, 0], minlength=n),
            "eta": np.bincount(bill_idx, weights=bill_grads[:, 1], minlength=n),
            "x": coef[:, 1] @ g,
        }


VoteFit = namedtuple("VoteFit", ["x_hat", "alpha_hat", "eta_hat", "elbo_trace"])


def make_state(num_lawmakers, num_bills, rng):
    return VariationalState(gaussian_factors(
        {"x": num_lawmakers, "alpha": num_bills, "eta": num_bills}, rng
    ))


def train_vote(votes, cfg):
    """Fit vote ideal points; returns (x_hat, alpha_hat, eta_hat, trace).

    Full-batch when cfg.batch_size is at least the bill count; a smaller
    batch_size subsamples bills with the standard likelihood rescaling.
    """
    if np.bincount(votes.lawmaker_idx, minlength=votes.num_lawmakers).min() < 1:
        raise ValueError("every lawmaker needs at least one recorded vote")
    if np.bincount(votes.bill_idx, minlength=votes.num_bills).min() < 1:
        raise ValueError("every bill needs at least one recorded vote")
    rng = np.random.default_rng(cfg.seed)
    state = make_state(votes.num_lawmakers, votes.num_bills, rng)
    model = VoteModel(votes)
    trace = engine.fit(state, model, cfg, rng)
    means = state.posterior_means()
    return VoteFit(means["x"], means["alpha"], means["eta"], trace)


def save_votes_csv(votes, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lawmaker_name", "bill_id", "vote"])
        for i, j, v in zip(votes.lawmaker_idx, votes.bill_idx, votes.votes):
            writer.writerow([votes.lawmaker_names[i], votes.bill_ids[j], int(v)])


def load_votes_csv(path):
    """Read a votes CSV, silently excluding rows that are not 0/1 votes.

    The header row is one of those, so a lawmaker may be named like its
    first column.
    """
    records = []
    with open_text(path, newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 3 or row[2] not in ("0", "1"):
                continue
            records.append((row[0], row[1], int(row[2])))
    if not records:
        raise ValueError(f"{path} contains no yea/nay votes")
    lawmaker_names = sorted({r[0] for r in records})
    bill_ids = sorted({r[1] for r in records})
    li = {n: i for i, n in enumerate(lawmaker_names)}
    bi = {n: j for j, n in enumerate(bill_ids)}
    return VoteMatrix(
        [li[r[0]] for r in records],
        [bi[r[1]] for r in records],
        [r[2] for r in records],
        lawmaker_names,
        bill_ids,
    )
