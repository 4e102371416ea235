"""Synthetic corpora and vote matrices with known ground truth.

Ancestral sampling of the generative models under test: Gamma factors and
tilted Poisson counts for text, logistic factor votes for roll calls. Used
by the recovery-based tests, and exposed through the CLI for desk-scale
experiments.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .corpus import SparseCorpus
from .fitio import open_text
from .vote import VoteMatrix, sigmoid


@dataclass(frozen=True)
class SynthSpec:
    """Dimensions and prior settings for the generators.

    For vote sampling, `num_authors` plays the lawmaker count and
    `num_docs` the bill count. `polarity_scale` scales the standard-normal
    draw of the polarity latents; zero removes all ideological signal.
    `layout` places ideal points in two clusters at -1/+1 or uniformly on
    [-1, 1]; `docs_per_author` assigns documents round-robin ("even") or
    uniformly at random ("random").
    """

    num_docs: int
    num_terms: int
    num_authors: int
    num_topics: int = 1
    layout: str = "two_cluster"
    a: float = 0.3
    b: float = 0.3
    polarity_scale: float = 1.0
    docs_per_author: str = "even"
    seed: int = 0

    def __post_init__(self):
        if min(self.num_docs, self.num_terms, self.num_authors, self.num_topics) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.polarity_scale < 0:
            raise ValueError("polarity_scale must be >= 0")
        if self.layout not in ("two_cluster", "uniform"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.docs_per_author not in ("even", "random"):
            raise ValueError(f"unknown docs_per_author {self.docs_per_author!r}")


@dataclass
class TBIPTruth:
    theta: np.ndarray
    beta: np.ndarray
    eta: np.ndarray
    x: np.ndarray


@dataclass
class VoteTruth:
    x: np.ndarray
    alpha: np.ndarray
    eta: np.ndarray


def _ideal_points(spec, rng):
    s = spec.num_authors
    if spec.layout == "two_cluster":
        x = np.ones(s)
        x[: s // 2] = -1.0
        return x
    return rng.uniform(-1.0, 1.0, size=s)


def sample_tbip(spec):
    """Draw a corpus from the tilted-topic model; returns (corpus, truth).

    Documents whose count row is all zero are resampled once, then dropped
    (with their truth rows) if still empty.
    """
    rng = np.random.default_rng(spec.seed)
    d, v, s, k = spec.num_docs, spec.num_terms, spec.num_authors, spec.num_topics
    x = _ideal_points(spec, rng)
    theta = rng.gamma(spec.a, 1.0 / spec.b, size=(d, k))
    beta = rng.gamma(spec.a, 1.0 / spec.b, size=(k, v))
    eta = spec.polarity_scale * rng.standard_normal((k, v))
    if spec.docs_per_author == "even":
        author_of = np.arange(d) % s
    else:
        author_of = rng.integers(0, s, size=d)

    rates = np.empty((d, v))
    for a in range(s):
        docs = np.flatnonzero(author_of == a)
        if docs.size:
            rates[docs] = theta[docs] @ (beta * np.exp(x[a] * eta))
    counts = rng.poisson(rates).astype(np.float64)

    empty = np.flatnonzero(counts.sum(axis=1) == 0)
    if empty.size:
        counts[empty] = rng.poisson(rates[empty])
        keep = counts.sum(axis=1) > 0
        counts = counts[keep]
        author_of = author_of[keep]
        theta = theta[keep]

    present = np.unique(author_of)
    if present.size < s:
        remap = -np.ones(s, dtype=np.int64)
        remap[present] = np.arange(present.size)
        author_of = remap[author_of]
        x = x[present]
        s = present.size

    corpus = SparseCorpus(
        sp.csr_matrix(counts),
        author_of,
        [f"author{a}" for a in range(s)],
    )
    return corpus, TBIPTruth(theta=theta, beta=beta, eta=eta, x=x)


def sample_votes(spec):
    """Draw a full lawmaker-by-bill vote matrix; returns (votes, truth)."""
    rng = np.random.default_rng(spec.seed)
    i, j = spec.num_authors, spec.num_docs
    x = _ideal_points(spec, rng)
    alpha = rng.standard_normal(j)
    eta = spec.polarity_scale * rng.standard_normal(j)
    probs = sigmoid(alpha[None, :] + x[:, None] * eta[None, :])
    votes = (rng.uniform(size=(i, j)) < probs).astype(np.int64)
    lawmaker_idx, bill_idx = np.meshgrid(np.arange(i), np.arange(j), indexing="ij")
    matrix = VoteMatrix(
        lawmaker_idx.ravel(),
        bill_idx.ravel(),
        votes.ravel(),
        [f"lawmaker{n}" for n in range(i)],
        [f"bill{n}" for n in range(j)],
    )
    return matrix, VoteTruth(x=x, alpha=alpha, eta=eta)


def save_truth(truth, path):
    """Write the ground-truth latents as JSON."""
    doc = {
        name: np.asarray(value).tolist()
        for name, value in dataclasses.asdict(truth).items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_truth(path):
    """Read a truth JSON back into a dict of arrays."""
    with open_text(path) as fh:
        doc = json.load(fh)
    return {name: np.asarray(value) for name, value in doc.items()}
