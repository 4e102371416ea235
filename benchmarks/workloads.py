"""The three benchmark workloads.

Each workload is a closed loop: one caller runs one fixed-work pipeline
through textideal's public entry points and waits for it to finish, then
runs it again with the same inputs. `prepare` makes the inputs from the
seed (set-up, not timed as pipeline work); `run` executes one pipeline and
returns its phase timings, its checked operations and the fitted ideal
points used for the traced-vs-untraced bitwise check.

- senate: the documented CLI path on a Senate-like text corpus, where the
  dense per-author K x V likelihood, the PF sweeps and tokenization work
  at realistic vocabulary size and sparsity.
- desk: a long library-API TBIP fit on a small synthetic corpus, where a
  step is mostly Python and engine overhead on small arrays.
- baselines: vote, wordfish and wordshoal fits that run the engine many
  times on tiny models and bypass tbip, pf and the file formats.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import senate_text


try:
    _LIBC = ctypes.CDLL("libc.so.6")
except OSError:  # not glibc: nothing to trim
    _LIBC = None


def trim_heap():
    """Return freed heap pages to the OS (glibc `malloc_trim`).

    The CLI normally runs each command in a fresh process; trimming between
    in-process commands keeps memory that one command left behind out of
    the next command's peak RSS.
    """
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def release_memory():
    """Collect garbage and trim the heap; called between pipelines."""
    gc.collect()
    trim_heap()


class Operation:
    """One timed call into the program and the output checks it must pass."""

    def __init__(self, name):
        self.name = name
        self.ok = True
        self.notes = []

    def check(self, condition, note):
        if not condition:
            self.ok = False
            if note not in self.notes:
                self.notes.append(note)


class Pipeline:
    """Book-keeping for one pipeline execution."""

    def __init__(self):
        self.phases = {}
        self.ops = []
        self.quality = {}
        self.x_hat = {}

    def call(self, phase, name, fn):
        """Time fn(operation) once and add the time to the phase.

        An exception marks the operation failed; the pipeline keeps going so
        every later operation is still attempted and counted.
        """
        operation = Operation(name)
        self.ops.append(operation)
        start = time.perf_counter()
        try:
            fn(operation)
        except Exception as exc:  # counted as a failed operation
            operation.ok = False
            operation.notes.append(f"{type(exc).__name__}: {exc}")
        self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - start
        return operation


def run_pipeline(workload, tag):
    """One pipeline from a released heap; returns (pipeline, wall seconds)."""
    release_memory()
    start = time.perf_counter()
    pipe = workload.run(tag)
    return pipe, time.perf_counter() - start


def timed_pipelines(workload, seconds):
    """Pipelines until `seconds` would be exceeded (at least one)."""
    start = time.perf_counter()
    pipes, durations = [], []
    while True:
        pipe, duration = run_pipeline(workload, f"iter{len(pipes)}")
        pipes.append(pipe)
        durations.append(duration)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return pipes, durations


def _recovery(analysis, fitted, truth):
    """|Pearson| of fitted ideal points against the generator's truth."""
    analysis.align(fitted, truth)
    r, _ = analysis.compare(np.asarray(fitted), np.asarray(truth))
    return abs(r)


# ---------------------------------------------------------------------------
# senate
# ---------------------------------------------------------------------------


class Senate:
    """JSONL speeches -> preprocess -> train tbip -> four analyze reports."""

    name = "senate"
    spec = senate_text.SenateSpec()
    k = 50
    batch = 512
    pretrain_sweeps = 2
    steps = 2

    def __init__(self, textideal, seed, workdir):
        self.ti = textideal
        self.seed = seed
        self.workdir = Path(workdir)

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        records, positions = senate_text.generate(self.seed, self.spec)
        self.docs_path = self.workdir / "speeches.jsonl"
        self.truth_path = self.workdir / "truth.csv"
        senate_text.write_jsonl(records, self.docs_path)
        self.ti.analysis.save_ideal_points_csv(
            self.truth_path, list(positions), list(positions.values()))

    def _cli(self, pipe, phase, argv, artifacts):
        def command(op):
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.ti.cli.main(argv)
            op.check(code == 0, f"exit code {code}")
            for path in artifacts:
                op.check(Path(path).is_file(), f"missing {path}")

        trim_heap()
        return pipe.call(phase, "cli " + " ".join(argv[:2]), command)

    def run(self, tag):
        out = self.workdir / tag
        shutil.rmtree(out, ignore_errors=True)
        data, fit, rep = out / "corpus", out / "fit", out / "reports"
        self.corpus_dir = data
        pipe = Pipeline()
        self._cli(pipe, "preprocess", [
            "preprocess", "--input", str(self.docs_path), "--output-dir", str(data),
        ], [data / "counts.txt"])
        train = self._cli(pipe, "train", [
            "train", "tbip", "--data", str(data), "--output-dir", str(fit),
            "--k", str(self.k), "--batch", str(self.batch), "--log-counts", "auto",
            "--pretrain-sweeps", str(self.pretrain_sweeps), "--steps", str(self.steps),
            "--seed", str(self.seed), "--report-interval", "1",
        ], [fit / "x.bin", fit / "elbo.csv"])
        if train.ok:
            # Read the artifacts directly, so checks add no traced program calls.
            pipe.x_hat["tbip"] = np.fromfile(fit / "x.bin", dtype=np.float64)
            last = (fit / "elbo.csv").read_text().split()[-1].split(",")[-1]
            train.check(math.isfinite(float(last)), f"final objective {last} not finite")
        self._cli(pipe, "report", [
            "analyze", "topics", "--fit", str(fit), "--data", str(data),
            "--output-dir", str(rep),
        ], [rep / "topics.json"])
        self._cli(pipe, "report", [
            "analyze", "align", "--fit", str(fit), "--reference", str(self.truth_path),
            "--output-dir", str(rep),
        ], [rep / "ideal_points.csv"])
        self._cli(pipe, "report", [
            "analyze", "compare", "--fit", str(fit), "--reference", str(self.truth_path),
            "--output-dir", str(rep),
        ], [rep / "comparison.json"])
        self._cli(pipe, "report", [
            "analyze", "influence", "--fit", str(fit), "--data", str(data), "--doc", "0",
            "--output-dir", str(rep),
        ], [rep / "influence.json"])
        return pipe

    def properties(self):
        """Measured properties of the preprocessed corpus (after a pipeline)."""
        try:
            built, _ = self.ti.corpus.load_corpus(self.corpus_dir)
        except (OSError, ValueError) as exc:  # preprocessing failed; already counted
            return {"error": str(exc)}
        d, v = built.counts.shape
        rng = np.random.default_rng(self.seed)
        authors = [np.unique(built.author_of[rng.choice(d, self.batch, replace=False)]).size
                   for _ in range(200)]
        return {
            "docs": d, "terms": v, "nnz": int(built.counts.nnz),
            "density": built.counts.nnz / (d * v),
            "median_doc_length": float(np.median(built.doc_totals())),
            "mean_authors_per_batch": float(np.mean(authors)),
            "authors": built.num_authors,
        }


# ---------------------------------------------------------------------------
# desk
# ---------------------------------------------------------------------------


class Desk:
    """synth.sample_tbip -> train_tbip -> library reports, no files, no CLI."""

    name = "desk"
    steps = 1000
    pretrain_sweeps = 10
    influence_docs = 20

    def __init__(self, textideal, seed, workdir):
        self.ti = textideal
        self.seed = seed

    def prepare(self):
        synth = self.ti.synth
        spec = synth.SynthSpec(num_docs=1000, num_terms=300, num_authors=20,
                               num_topics=5, seed=self.seed)
        self.corpus, self.truth = synth.sample_tbip(spec)
        self.vocab = self.ti.corpus.Vocabulary([f"term{v}" for v in range(300)])

    def run(self, tag):
        ti = self.ti
        pipe = Pipeline()
        cfg = ti.tbip.TrainConfig(k=5, batch_size=512, max_steps=self.steps, seed=self.seed,
                                  lr=0.01, elbo_report_interval=500,
                                  pretrain_sweeps=self.pretrain_sweeps)
        fits = []

        def train(op):
            fits.append(ti.tbip.train_tbip(self.corpus, cfg))
            pipe.x_hat["tbip"] = fits[0].x_hat

        def report(op):
            fit = fits[0]
            r = _recovery(ti.analysis, fit.x_hat, self.truth.x)
            ti.analysis.topic_report(fit, self.vocab, 8)
            for d in range(self.influence_docs):
                ti.analysis.influence(fit, self.corpus, d)
            pipe.quality["tbip_abs_pearson"] = r
            op.check(r >= 0.85, f"tbip |r| {r:.4f} < 0.85")

        if pipe.call("train", "train_tbip", train).ok:
            pipe.call("report", "reports", report)
        return pipe

    def properties(self):
        c = self.corpus
        return {"docs": c.num_docs, "terms": c.num_terms, "nnz": int(c.counts.nnz),
                "authors": c.num_authors}


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class Baselines:
    """train_vote (subsampled bills), train_wordfish, train_wordshoal."""

    name = "baselines"
    lawmakers = 50
    bills = 400
    vote_batch = 100
    vote_steps = 1500
    debates = 20
    debate_authors = 40
    debate_terms = 60
    docs_per_author = 3
    wordfish_steps = 1000
    wordshoal_steps = 300

    def __init__(self, textideal, seed, workdir):
        self.ti = textideal
        self.seed = seed

    def prepare(self):
        synth = self.ti.synth
        self.votes, self.vote_truth = synth.sample_votes(synth.SynthSpec(
            num_docs=self.bills, num_terms=1, num_authors=self.lawmakers, seed=self.seed))
        # Per-debate draws share the deterministic two-cluster positions
        # (SynthSpec's default layout), one author index space throughout.
        blocks, authors, labels = [], [], []
        for j in range(self.debates):
            part, truth = synth.sample_tbip(synth.SynthSpec(
                num_docs=self.docs_per_author * self.debate_authors,
                num_terms=self.debate_terms, num_authors=self.debate_authors,
                num_topics=2, seed=1000 * self.seed + j))
            if part.num_authors != self.debate_authors:
                raise RuntimeError(f"debate {j} lost an author; positions would misalign")
            blocks.append(part.counts)
            authors.append(part.author_of)
            labels += [f"debate{j:02d}"] * part.num_docs
        self.text = self.ti.corpus.SparseCorpus(
            sp.vstack(blocks), np.concatenate(authors),
            [f"author{a}" for a in range(self.debate_authors)])
        self.debate_corpus = self.ti.baselines.DebateLabeledCorpus.build(self.text, labels)
        self.truth = {"vote": self.vote_truth.x, "wordfish": truth.x, "wordshoal": truth.x}

    def run(self, tag):
        ti = self.ti
        pipe = Pipeline()
        fits = {}
        vote_cfg = ti.tbip.TrainConfig(batch_size=self.vote_batch, max_steps=self.vote_steps,
                                       seed=self.seed, lr=0.02, elbo_report_interval=500)
        text_cfg = ti.tbip.TrainConfig(max_steps=self.wordfish_steps, seed=self.seed, lr=0.02,
                                       elbo_report_interval=500)
        shoal_cfg = ti.tbip.TrainConfig(max_steps=self.wordshoal_steps, seed=self.seed,
                                        lr=0.02, elbo_report_interval=500)

        def vote(op):
            fits["vote"] = ti.vote.train_vote(self.votes, vote_cfg)

        def wordfish(op):
            fits["wordfish"] = ti.baselines.train_wordfish(self.text, text_cfg)

        def wordshoal(op):
            fits["wordshoal"] = ti.baselines.train_wordshoal(self.debate_corpus, shoal_cfg)
            op.check(np.all(np.isfinite(fits["wordshoal"].x_hat)),
                     "wordshoal positions not finite")

        def report(op):
            for name, fit in fits.items():
                pipe.quality[f"{name}_abs_pearson"] = _recovery(
                    ti.analysis, fit.x_hat, self.truth[name])
            r = pipe.quality["vote_abs_pearson"]
            op.check(r >= 0.95, f"vote |r| {r:.4f} < 0.95")

        pipe.call("train", "train_vote", vote)
        pipe.call("train", "train_wordfish", wordfish)
        pipe.call("train", "train_wordshoal", wordshoal)
        pipe.x_hat = {name: fit.x_hat for name, fit in fits.items()}
        if len(fits) == 3:
            pipe.call("report", "reports", report)
        return pipe

    def properties(self):
        return {"docs": self.text.num_docs, "terms": self.text.num_terms,
                "nnz": int(self.text.counts.nnz),
                "lawmakers": self.lawmakers, "bills": self.bills,
                "vote_entries": int(self.votes.votes.size), "debates": self.debates,
                "debate_authors": self.debate_authors, "debate_terms": self.debate_terms}


WORKLOADS = {w.name: w for w in (Senate, Desk, Baselines)}
