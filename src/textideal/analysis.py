"""Post-fit analysis: alignment, correlation metrics, topic reports and the
likelihood-ratio influence diagnostic."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import fitio
from .tbip import log_likelihood_doc, tbip_rate


class ZeroVariance(ValueError):
    """A correlation or standardization input has no variance."""


@dataclass
class AlignedIdealPoints:
    """Standardized ideal points, sign-matched to a reference when given."""

    values: np.ndarray
    sign_flipped: bool = False


def align(points, reference=None):
    """Standardize to mean 0, sd 1; negate if anti-correlated with `reference`."""
    points = np.asarray(points, dtype=np.float64)
    if points.size < 2:
        raise ValueError("need at least two points to standardize")
    sd = points.std()
    if sd == 0:
        raise ZeroVariance("ideal points are constant")
    values = (points - points.mean()) / sd
    flipped = False
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != points.shape:
            raise ValueError(f"reference holds {reference.size} values for {points.size} points")
        r, _ = compare(values, reference)
        if r < 0:
            values = -values
            flipped = True
    return AlignedIdealPoints(values, flipped)


def _pearson(a, b):
    u = a - a.mean()
    v = b - b.mean()
    su, sv = np.sum(u * u), np.sum(v * v)
    if su == 0 or sv == 0:
        raise ZeroVariance("correlation input is constant")
    return float(np.sum(u * v) / np.sqrt(su * sv))


def _average_ranks(values):
    """1-based ranks with ties sharing their average rank, as
    `scipy.stats.rankdata` gives them; all NaN if any value is NaN."""
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def compare(a, b):
    """(Pearson, Spearman) correlation between two score vectors.

    Spearman is the Pearson correlation of average-tied ranks.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D vectors of equal length")
    if a.size < 3:
        raise ValueError(f"need at least three points, got {a.size}")
    return _pearson(a, b), _pearson(_average_ranks(a), _average_ranks(b))


@dataclass
class TopicReport:
    """Per-topic top terms at ideal points -1 (negative pole), 0 and +1."""

    num_terms: int
    topics: list  # dicts with keys "negative", "neutral", "positive"

    def to_json(self):
        return json.dumps({"num_terms": self.num_terms, "topics": self.topics}, indent=2)

    def to_markdown(self):
        lines = ["| Topic | Pole | Top terms |", "| --- | --- | --- |"]
        for k, topic in enumerate(self.topics):
            for pole in ("negative", "neutral", "positive"):
                lines.append(f"| {k} | {pole} | {', '.join(topic[pole])} |")
        return "\n".join(lines) + "\n"


def _top_terms(intensity, vocab, m):
    # Stable sort keeps ties in term-index order.
    order = np.argsort(-intensity, kind="stable")[:m]
    return [vocab[int(v)] for v in order]


def topic_report(fit, vocab, m, exact_expectation=False):
    """Rank terms per topic at the neutral point and both poles.

    Pole intensities default to the plug-in form beta_hat * exp(-+eta_hat).
    With `exact_expectation` the lognormal-Gaussian expectation is used
    instead, which additionally needs the fitted eta scales. Raises
    ValueError when the fit and `vocab` differ in their number of terms.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    beta = fit.beta_hat
    if beta.shape[1] != len(vocab):
        raise ValueError(f"fit has {beta.shape[1]} terms but the vocabulary {len(vocab)}")
    eta = fit.eta_hat
    if exact_expectation:
        if fit.eta_sigma is None:
            raise ValueError("fit carries no eta scales; cannot take exact expectation")
        half_var = 0.5 * fit.eta_sigma**2
        neg = beta * np.exp(-eta + half_var)
        pos = beta * np.exp(eta + half_var)
    else:
        neg = beta * np.exp(-eta)
        pos = beta * np.exp(eta)
    topics = []
    for k in range(beta.shape[0]):
        topics.append(
            {
                "negative": _top_terms(neg[k], vocab, m),
                "neutral": _top_terms(beta[k], vocab, m),
                "positive": _top_terms(pos[k], vocab, m),
            }
        )
    return TopicReport(m, topics)


@dataclass
class InfluenceScore:
    """Log-likelihood ratios of a document against fixed ideal points."""

    doc_id: str
    ratio_vs_zero: float
    ratio_vs_max: float
    ratio_vs_min: float


def influence(fit, corpus, doc):
    """Score how a document pulled its author's fitted position.

    Positive ratio_vs_zero marks the document as evidence for a more
    extreme position; positive ratio_vs_max / ratio_vs_min mark evidence
    against the corresponding extreme. Pass the corpus as it was before the
    fit's count transform: a fit with `use_log_transform` in its config is
    scored on log counts. Raises ValueError when the fit and `corpus`
    differ in their number of documents, or `doc` is not one of them.
    """
    from .corpus import compute_weights, log_transform

    if fit.config.get("use_log_transform"):
        corpus = log_transform(corpus)
    if fit.theta_hat.shape[0] != corpus.num_docs:
        raise ValueError(f"fit has {fit.theta_hat.shape[0]} documents "
                         f"but the corpus {corpus.num_docs}")
    if not 0 <= doc < corpus.num_docs:
        raise ValueError(f"doc index {doc} out of range [0, {corpus.num_docs - 1}]")
    author = corpus.author_of[doc]
    w = compute_weights(corpus)[author]
    y = corpus.counts[doc].toarray()[0]
    theta_d = fit.theta_hat[doc]

    def loglik_at(x_value):
        rate = tbip_rate(theta_d, fit.beta_hat, fit.eta_hat, x_value, w)
        return log_likelihood_doc(y, rate)

    base = loglik_at(fit.x_hat[author])
    return InfluenceScore(
        doc_id=corpus.doc_ids[doc],
        ratio_vs_zero=base - loglik_at(0.0),
        ratio_vs_max=base - loglik_at(float(fit.x_hat.max())),
        ratio_vs_min=base - loglik_at(float(fit.x_hat.min())),
    )


def expected_count_ratio(fit, topic, term, x_lo, x_hi):
    """Factor by which a term's expected count grows moving x_lo -> x_hi."""
    eta = fit.eta_hat[topic, term]
    return float(np.exp((x_hi - x_lo) * eta))


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def save_ideal_points_csv(path, names, values):
    """(name, score) rows, the plotting format for ideal point figures."""
    fitio.save_named_values(path, ["name", "score"], names, values)


def load_ideal_points_csv(path):
    """Read (name, score) rows; returns (names, scores)."""
    names, scores = fitio.load_named_values(path, ["name", "score"])
    if not names:
        raise ValueError(f"{path} lists no scores")
    return names, scores


def match_by_name(fit_names, fit_values, ref_names, ref_values):
    """Inner-join two (name, score) lists in fit order.

    Raises ValueError when no names overlap.
    """
    ref = dict(zip(ref_names, ref_values))
    pairs = [(v, ref[n]) for n, v in zip(fit_names, fit_values) if n in ref]
    if not pairs:
        raise ValueError("no overlapping names between fit and reference")
    a, b = zip(*pairs)
    return np.asarray(a), np.asarray(b)
