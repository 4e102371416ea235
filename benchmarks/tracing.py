"""Span recorder that wraps textideal's public functions from outside.

Nothing inside `src/` knows about tracing: `Recorder.install` swaps each
target function (or method) for a wrapper in every textideal module that
holds it, and `uninstall` puts the originals back. Each call records a span
[name, start, end, parent]; spans stay in memory and are written out when
the run ends. A span's self time is its duration minus its children's, so
self times sum to the root spans' durations. Optional `count` hooks add
computed work counts (cells, bytes) at the same boundaries; they read the
arguments only, so a traced fit stays bitwise identical to an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

import numpy as np


class Recorder:
    """In-memory spans and counts of one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, fn, count):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            rec._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close()
            if count is not None:
                # Own span, so hook work lands in no program layer's self time.
                rec._open("trace.count_hooks")
                try:
                    count(rec, args, kwargs, result)
                finally:
                    rec._close()
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, targets):
        """targets: (owner, attribute, span name, count hook or None) tuples.

        A module-level function is replaced in every loaded textideal module
        that binds the same object (covers `from .corpus import ...`).
        """
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "textideal"]
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, count)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def summary(self):
        """name -> {"calls", "total_s", "self_s", "durations"}."""
        out = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
            row["durations"].append(end - start)
        return out

    def ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def span_cost_s(calls=20000):
    """Measured cost of recording one span around a no-op call."""

    def noop():
        return None

    wrapped = Recorder("calibration")._wrap("noop", noop, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def targets():
    """The layer boundaries the benchmark traces, with their count hooks."""
    from textideal import analysis, baselines, cli, corpus, engine, fitio, pf, tbip, vote

    def cli_name(args):
        argv = args[0] if args else []
        return "cli." + ".".join(a for a in argv[:2] if not a.startswith("-"))

    def count_phi(rec, args, kwargs, result):
        state, corp = args[0], args[1]
        rec.add("pf.phi_cells", corp.counts.nnz * state.q_theta.shape.shape[1])

    def count_groups(rec, args, kwargs, result):
        model, samples, doc_idx = args[0], args[1], args[2]
        groups = np.unique(model.corpus.author_of[doc_idx]).size
        k, v = samples["beta"].shape
        rec.add("tbip.author_groups", groups)
        rec.add("tbip.dense_cells", groups * k * v)

    def count_params(rec, args, kwargs, result):
        rec.add("engine.param_cells", sum(p.size for p in args[0].parameters().values()))

    def count_bytes(rec, args, kwargs, result):
        arrays = args[1]
        rec.add("fitio.bytes_written", sum(8 * np.asarray(a).size for a in arrays.values()))

    def count_sweeps(rec, args, kwargs, result):
        rec.add("baselines.fit_factor_sweeps", len(result[1]) - 1)

    return [
        (cli, "main", cli_name, None),
        (corpus, "read_documents_jsonl", "corpus.read_documents_jsonl", None),
        (corpus, "tokenize", "corpus.tokenize", None),
        (corpus, "build_corpus", "corpus.build_corpus", None),
        (corpus, "save_corpus", "corpus.save_corpus", None),
        (corpus, "load_corpus", "corpus.load_corpus", None),
        (corpus, "log_transform", "corpus.log_transform", None),
        (corpus, "compute_weights", "corpus.compute_weights", None),
        (pf, "pretrain", "pf.pretrain", None),
        (pf, "cavi_step", "pf.cavi_step", count_phi),
        (pf, "pf_elbo", "pf.pf_elbo", None),
        (tbip, "train_tbip", "tbip.train_tbip", None),
        (tbip.TBIPModel, "loglik", "tbip.loglik", count_groups),
        (tbip, "save_fit", "tbip.save_fit", None),
        (tbip, "load_fit", "tbip.load_fit", None),
        (engine, "fit", "engine.fit", count_params),
        (engine, "gradient", "engine.gradient", None),
        (engine, "adam_step", "engine.adam_step", None),
        (vote, "train_vote", "vote.train_vote", None),
        (vote.VoteModel, "loglik", "vote.loglik", None),
        (baselines, "train_wordfish", "baselines.train_wordfish", None),
        (baselines, "train_wordshoal", "baselines.train_wordshoal", None),
        (baselines, "aggregate_by_author", "baselines.aggregate_by_author", None),
        (baselines, "fit_factor", "baselines.fit_factor", count_sweeps),
        (baselines.WordfishModel, "loglik", "baselines.wordfish_loglik", None),
        (fitio, "save_fit_dir", "fitio.save_fit_dir", count_bytes),
        (fitio, "load_fit_dir", "fitio.load_fit_dir", None),
        (analysis, "topic_report", "analysis.topic_report", None),
        (analysis, "influence", "analysis.influence", None),
        (analysis, "align", "analysis.align", None),
        (analysis, "compare", "analysis.compare", None),
    ]


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _step_ms(rec):
    """Per-step wall times: gaps between consecutive Adam steps of one fit."""
    ends = {}
    for name, start, end, parent in rec.spans:
        if name == "engine.adam_step" and parent >= 0:
            ends.setdefault(parent, []).append(end)
    steps = []
    for fit_index, fit_ends in ends.items():
        previous = rec.spans[fit_index][1]
        for end in fit_ends:
            steps.append(1000.0 * (end - previous))
            previous = end
    return steps


# Program layers, plus "trace" for the count hooks' own time.
LAYERS = ("corpus", "pf", "tbip", "engine", "vote", "baselines", "fitio", "analysis", "cli",
          "trace")


def layer_metrics(rec, properties, traced_wall, untraced_wall, bitwise):
    """name -> (value, unit, samples) for every per-layer metric."""
    summary = rec.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    out = {}

    def row(name):
        return summary.get(name, empty)

    def total(key, span):
        r = row(span)
        out[key] = (r["total_s"], "s", r["calls"])

    def median(key, span):
        r = row(span)
        out[key] = (median_or_zero(r["durations"]), "s", r["calls"])

    def count(key, value, samples=1):
        out[key] = (int(value), "count", samples)

    total("corpus.tokenize_s", "corpus.tokenize")
    count("corpus.tokenize_calls", row("corpus.tokenize")["calls"])
    r = row("corpus.build_corpus")
    out["corpus.build_corpus_self_s"] = (r["self_s"], "s", r["calls"])
    total("corpus.build_corpus_s", "corpus.build_corpus")
    total("corpus.save_corpus_s", "corpus.save_corpus")
    total("corpus.load_corpus_s", "corpus.load_corpus")
    count("corpus.load_corpus_calls", row("corpus.load_corpus")["calls"])
    total("corpus.log_transform_s", "corpus.log_transform")
    for key in ("docs", "terms", "nnz"):
        count(f"corpus.{key}", properties.get(key, 0))

    median("pf.cavi_step_s", "pf.cavi_step")
    median("pf.pf_elbo_s", "pf.pf_elbo")
    count("pf.sweeps", row("pf.cavi_step")["calls"])
    count("pf.phi_cells", rec.counts.get("pf.phi_cells", 0), row("pf.cavi_step")["calls"])

    median("tbip.loglik_s", "tbip.loglik")
    calls = row("tbip.loglik")["calls"]
    count("tbip.loglik_calls", calls)
    count("tbip.author_groups", rec.counts.get("tbip.author_groups", 0), calls)
    count("tbip.dense_cells", rec.counts.get("tbip.dense_cells", 0), calls)

    total("engine.fit_s", "engine.fit")
    steps = _step_ms(rec)
    count("engine.steps", row("engine.adam_step")["calls"])
    out["engine.step_ms_p50"] = (median_or_zero(steps), "ms", len(steps))
    # p99 needs at least ten samples beyond it.
    out["engine.step_ms_p99"] = (
        _percentile(steps, 0.99) if len(steps) >= 1000 else None, "ms", len(steps))
    r = row("engine.gradient")
    out["engine.gradient_self_s"] = (r["self_s"], "s", r["calls"])
    total("engine.adam_step_s", "engine.adam_step")
    count("engine.param_cells", rec.counts.get("engine.param_cells", 0), row("engine.fit")["calls"])

    total("vote.loglik_s", "vote.loglik")
    count("vote.loglik_calls", row("vote.loglik")["calls"])

    total("baselines.train_wordshoal_s", "baselines.train_wordshoal")
    wordfish_fits = sum(
        1 for i, span in enumerate(rec.spans)
        if span[0] == "engine.fit" and "baselines.train_wordshoal" in rec.ancestors(i))
    count("baselines.wordfish_fits", wordfish_fits)
    total("baselines.fit_factor_s", "baselines.fit_factor")
    count("baselines.fit_factor_sweeps", rec.counts.get("baselines.fit_factor_sweeps", 0),
          row("baselines.fit_factor")["calls"])
    total("baselines.aggregate_by_author_s", "baselines.aggregate_by_author")

    total("fitio.save_fit_dir_s", "fitio.save_fit_dir")
    total("fitio.load_fit_dir_s", "fitio.load_fit_dir")
    out["fitio.bytes_written"] = (int(rec.counts.get("fitio.bytes_written", 0)), "bytes",
                                  row("fitio.save_fit_dir")["calls"])

    for name in ("topic_report", "influence", "align", "compare"):
        total(f"analysis.{name}_s", f"analysis.{name}")

    cli_self = 0.0
    for name, r in sorted(summary.items()):
        if name.startswith("cli."):
            out[f"cli.{name[4:].replace('.', '_')}_self_s"] = (r["self_s"], "s", r["calls"])
            cli_self += r["self_s"]
    out["cli.self_s"] = (cli_self, "s", sum(r["calls"] for n, r in summary.items()
                                           if n.startswith("cli.")))

    # Self time per layer: these plus the remainder make up the traced wall.
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for (name, _, _, _), own in zip(rec.spans, rec.self_times()):
        layer = name.split(".")[0]
        if layer in by_layer:
            by_layer[layer] += own
    for layer, value in by_layer.items():
        out[f"trace.self_{layer}_s"] = (value, "s", 1)
    out["trace.wall_s"] = (traced_wall, "s", 1)
    out["trace.untraced_wall_s"] = (untraced_wall, "s", 1)
    # One traced and one untraced pipeline differ by the host's noise as
    # much as by tracing; spans times the measured cost of one span, plus
    # the count hooks, is the steadier estimate.
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s", 1)
    out["trace.overhead_est_s"] = (
        len(rec.spans) * span_cost_s() + by_layer["trace"], "s", len(rec.spans))
    out["trace.unattributed_s"] = (traced_wall - sum(by_layer.values()), "s", 1)
    count("trace.spans", len(rec.spans))
    count("trace.bitwise_equal", 1 if bitwise else 0)
    return out


# Rows of the ROADMAP baseline table, next to the per-layer metric that
# measures the same thing in a traced run; a row appears only on workloads
# that run the layer it names (the "TBIP step" row needs TBIP likelihoods).
ROADMAP_ROWS = [
    ("TBIP step", "engine.step_ms_p50", "tbip.loglik_s",
     "desk D=1000 V=300 K=5: 8.9 ms; Senate-like D=5000 V=20.8k K=50: 2.4 s"),
    ("TBIP loglik per call", "tbip.loglik_s", "tbip.loglik_s",
     "Senate-like: 2.2 s (100 authors)"),
    ("PF pretrain sweep", "pf.cavi_step_s", "pf.cavi_step_s",
     "nnz 895k: K=10 1.1 s, K=50 4.6 s"),
    ("build_corpus", "corpus.build_corpus_s", "corpus.build_corpus_s",
     "5000 Zipf docs, trigrams: 9.1 s"),
    ("save_corpus", "corpus.save_corpus_s", "corpus.save_corpus_s", "895k nonzeros: 1.4 s"),
    ("load_corpus (all calls)", "corpus.load_corpus_s", "corpus.load_corpus_s",
     "895k nonzeros: 1.3 s per call"),
    ("wordshoal", "baselines.train_wordshoal_s", "baselines.train_wordshoal_s",
     "20 debates x 40 authors: 13.3 s"),
]


def roadmap_rows(layers):
    return [
        {"row": row, "metric": metric, "this_run": layers[metric][0],
         "unit": layers[metric][1], "samples": layers[metric][2],
         "roadmap_baseline": baseline}
        for row, metric, needs, baseline in ROADMAP_ROWS
        if layers[needs][2] > 0
    ]
