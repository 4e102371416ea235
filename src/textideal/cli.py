"""Command-line front end.

Subcommands wrap the library modules without adding numeric logic:

    preprocess   JSONL documents -> counts/vocabulary/authors/weights files
    train        tbip | pf | vote | wordfish | wordshoal -> fit directory
    analyze      topics | compare | influence | align -> report files
    synth        tbip | votes -> synthetic data with a truth file

Every successful run writes a run manifest into its output directory.
Exit codes: 0 ok, 1 I/O error, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, baselines, corpus as corpus_mod, fitio, pf, synth, tbip, vote
from .baselines import DebateTooSmall
from .corpus import AllDocumentsFiltered
from .engine import NonFiniteElbo

log = logging.getLogger("textideal")

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

MANIFEST_NAME = "run_manifest.json"


class _CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def config_hash(config):
    """Stable hash of a JSON-serializable config mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def write_manifest(outdir, command, config, seed, inputs, started, final_elbo=None):
    """Atomically write the run manifest; absent when a run fails."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "config_hash": config_hash(config),
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "output_dir": str(outdir),
        "wall_time_sec": round(time.time() - started, 3),
        "final_elbo": final_elbo,
    }
    tmp = outdir / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, outdir / MANIFEST_NAME)


def _require_file(path):
    if not Path(path).exists():
        raise _CliError(EXIT_IO, f"input not found: {path}")
    return Path(path)


def _load_stopwords(path):
    if path is None:
        return frozenset()
    _require_file(path)
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def cmd_preprocess(args):
    started = time.time()
    docs = corpus_mod.read_documents_jsonl(_require_file(args.input))
    cfg = corpus_mod.PreprocessConfig(
        min_doc_frequency=args.min_df,
        max_doc_frequency=args.max_df,
        min_authors_per_term=args.min_authors,
        min_docs_per_author=args.min_docs_per_author,
        stopwords=_load_stopwords(args.stopwords),
        max_ngram=args.ngrams,
    )
    built, vocab = corpus_mod.build_corpus(docs, cfg)
    outdir = Path(args.output_dir)
    corpus_mod.save_corpus(built, vocab, outdir)
    weights = corpus_mod.compute_weights(built)
    corpus_mod.save_weights(outdir / corpus_mod.WEIGHTS_FILE, built.author_names, weights)
    log.info(
        "kept %d documents, %d terms, %d authors",
        built.num_docs, built.num_terms, built.num_authors,
    )
    config = {
        "min_df": args.min_df,
        "max_df": args.max_df,
        "min_authors": args.min_authors,
        "min_docs_per_author": args.min_docs_per_author,
        "ngrams": args.ngrams,
        "stopwords": str(args.stopwords) if args.stopwords else None,
    }
    write_manifest(outdir, "preprocess", config, None, [args.input], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_config(args, num_items=None):
    batch = args.batch if num_items is None else min(args.batch, num_items)
    return tbip.TrainConfig(
        k=args.k,
        batch_size=batch,
        max_steps=args.steps,
        seed=args.seed,
        lr=args.lr,
        mc_samples=args.mc_samples,
        use_log_transform=False,
        elbo_report_interval=args.report_interval,
        pretrain_sweeps=args.pretrain_sweeps,
    )


def _resolve_log_counts(mode, built):
    if mode == "on":
        return True
    if mode == "off":
        return False
    median_len = float(np.median(built.doc_totals()))
    decision = median_len > 100
    log.info("log-counts auto: median document length %.0f -> %s",
             median_len, "on" if decision else "off")
    return decision


def cmd_train(args):
    started = time.time()
    outdir = Path(args.output_dir)

    def write_fit(arrays, dims, config, trace, inputs, **extra):
        """Fit directory plus run manifest for one trained model."""
        seed = config["seed"]
        manifest = {"dims": dims, "config": config, "seed": seed, **extra}
        fitio.save_fit_dir(outdir, arrays, manifest, trace)
        final = trace[-1][1] if trace else None
        write_manifest(outdir, f"train {args.model}", config, seed, inputs, started, final)
        return EXIT_OK

    if args.model == "vote":
        votes = vote.load_votes_csv(_require_file(args.data))
        cfg = _train_config(args, votes.num_bills)
        fit = vote.train_vote(votes, cfg)
        return write_fit(
            {"x": fit.x_hat, "alpha": fit.alpha_hat, "eta": fit.eta_hat},
            {"num_lawmakers": votes.num_lawmakers, "num_bills": votes.num_bills},
            {"model": "vote", **cfg.asdict()}, fit.elbo_trace, [args.data],
            author_names=votes.lawmaker_names,
        )

    built, vocab = corpus_mod.load_corpus(_require_file(args.data))
    cfg = _train_config(args)

    if args.model == "pf":
        use_log = _resolve_log_counts(args.log_counts, built)
        work = corpus_mod.log_transform(built) if use_log else built
        theta, beta = pf.pretrain(
            work, args.k, sweeps=args.pretrain_sweeps, seed=args.seed
        )
        return write_fit(
            {"theta": theta, "beta": beta},
            {"num_docs": built.num_docs, "num_topics": args.k, "num_terms": built.num_terms},
            {"model": "pf", "k": args.k, "sweeps": args.pretrain_sweeps, "seed": args.seed,
             "use_log_transform": use_log},
            [], [args.data],
        )

    if args.model == "tbip":
        use_log = _resolve_log_counts(args.log_counts, built)
        cfg = dataclasses.replace(cfg, use_log_transform=use_log)
        init = None
        if args.pretrain_dir:
            arrays, manifest, _ = fitio.load_fit_dir(_require_file(args.pretrain_dir))
            # pf fits that predate the recorded transform always used raw counts.
            if manifest.get("config", {}).get("use_log_transform", False) != use_log:
                raise _CliError(EXIT_VALIDATION, f"{args.pretrain_dir} was pretrained "
                                f"with a count transform other than use_log_transform={use_log}")
            init = (arrays["theta"], arrays["beta"])
        fit = tbip.train_tbip(built, cfg, init=init)
        tbip.save_fit(fit, outdir)
        final = fit.elbo_trace[-1][1]
        write_manifest(outdir, "train tbip", fit.config, cfg.seed,
                       [args.data], started, final)
        return EXIT_OK

    if args.model == "wordfish":
        fit = baselines.train_wordfish(built, cfg)
        return write_fit(
            {"x": fit.x_hat, "psi": fit.psi_hat, "b": fit.b_hat},
            {"num_authors": built.num_authors, "num_terms": built.num_terms},
            {"model": "wordfish", **cfg.asdict()}, fit.elbo_trace, [args.data],
            author_names=built.author_names,
        )

    # wordshoal
    if not args.debates:
        raise _CliError(EXIT_VALIDATION, "wordshoal needs --debates LABELS.csv")
    labels_by_doc = {}
    import csv as _csv

    with open(_require_file(args.debates), newline="", encoding="utf-8") as fh:
        for row in _csv.reader(fh):
            if not row or row[0] == "doc_index":
                continue
            labels_by_doc[int(row[0])] = row[1]
    try:
        labels = [labels_by_doc[d] for d in range(built.num_docs)]
    except KeyError as exc:
        raise _CliError(EXIT_VALIDATION,
                        f"debate labels missing doc_index {exc.args[0]}") from None
    dcorpus = baselines.DebateLabeledCorpus.build(built, labels)
    fit = baselines.train_wordshoal(dcorpus, cfg)
    return write_fit(
        {"x": fit.x_hat, "debate_positions": fit.debate_positions},
        {"num_authors": built.num_authors, "num_debates": dcorpus.num_debates},
        {"model": "wordshoal", **cfg.asdict()}, fit.elbo_trace, [args.data, args.debates],
        author_names=built.author_names, debate_ids=dcorpus.debate_ids,
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _load_fit_points(fit_dir):
    arrays, manifest, _ = fitio.load_fit_dir(_require_file(fit_dir))
    names = manifest.get("author_names")
    if names is None or "x" not in arrays:
        raise _CliError(EXIT_VALIDATION,
                        f"{fit_dir} holds no ideal points with author names")
    return names, arrays["x"]


def cmd_analyze(args):
    started = time.time()
    outdir = Path(args.output_dir)

    if args.report == "topics":
        fit = tbip.load_fit(_require_file(args.fit))
        vocab = corpus_mod.load_vocabulary(_require_file(args.data))
        if fit.beta_hat.shape[1] != len(vocab):
            raise _CliError(EXIT_VALIDATION,
                            "fit vocabulary size does not match the corpus")
        report = analysis.topic_report(fit, vocab, args.top,
                                       exact_expectation=args.exact)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "topics.md").write_text(report.to_markdown(), encoding="utf-8")
        (outdir / "topics.json").write_text(report.to_json() + "\n", encoding="utf-8")
        config = {"report": "topics", "top": args.top, "exact": args.exact}
        write_manifest(outdir, "analyze topics", config, None,
                       [args.fit, args.data], started)
        return EXIT_OK

    if args.report == "align":
        names, points = _load_fit_points(args.fit)
        reference = None
        inputs = [args.fit]
        if args.reference:
            ref_names, ref_scores = analysis.load_ideal_points_csv(
                _require_file(args.reference))
            inputs.append(args.reference)
            try:
                points_matched, reference = analysis.match_by_name(
                    names, points, ref_names, ref_scores)
            except ValueError as exc:
                raise _CliError(EXIT_VALIDATION, str(exc)) from None
            if points_matched.shape[0] != points.shape[0]:
                raise _CliError(
                    EXIT_VALIDATION,
                    "reference does not cover every fitted author",
                )
        aligned = analysis.align(points, reference,
                                 reference_name=args.reference)
        outdir.mkdir(parents=True, exist_ok=True)
        analysis.save_ideal_points_csv(outdir / "ideal_points.csv", names,
                                       aligned.values)
        config = {"report": "align", "reference": args.reference,
                  "sign_flipped": aligned.sign_flipped}
        write_manifest(outdir, "analyze align", config, None, inputs, started)
        return EXIT_OK

    if args.report == "compare":
        names, points = _load_fit_points(args.fit)
        ref_names, ref_scores = analysis.load_ideal_points_csv(
            _require_file(args.reference))
        try:
            a, b = analysis.match_by_name(names, points, ref_names, ref_scores)
        except ValueError as exc:
            raise _CliError(EXIT_VALIDATION, str(exc)) from None
        if a.size < 3:
            raise _CliError(EXIT_VALIDATION,
                            f"only {a.size} names overlap; need at least 3")
        pearson, spearman = analysis.compare(a, b)
        print(f"pearson {abs(pearson):.3f}  spearman {abs(spearman):.3f}")
        outdir.mkdir(parents=True, exist_ok=True)
        matched = [n for n in names if n in set(ref_names)]
        with open(outdir / "comparison.csv", "w", encoding="utf-8") as fh:
            fh.write("name,fit_score,reference_score\n")
            for n, fa, fb in zip(matched, a, b):
                fh.write(f"{n},{fa!r},{fb!r}\n")
        metrics = {"pearson": pearson, "spearman": spearman,
                   "abs_pearson": abs(pearson), "abs_spearman": abs(spearman),
                   "n": int(a.size)}
        with open(outdir / "comparison.json", "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
        config = {"report": "compare", "reference": str(args.reference)}
        write_manifest(outdir, "analyze compare", config, None,
                       [args.fit, args.reference], started)
        return EXIT_OK

    # influence
    fit = tbip.load_fit(_require_file(args.fit))
    built, _ = corpus_mod.load_corpus(_require_file(args.data))
    if fit.theta_hat.shape[0] != built.num_docs:
        raise _CliError(EXIT_VALIDATION, "fit and corpus document counts differ")
    if args.doc is None or not 0 <= args.doc < built.num_docs:
        raise _CliError(EXIT_VALIDATION,
                        f"--doc must lie in [0, {built.num_docs - 1}]")
    if fit.config.get("use_log_transform"):
        built = corpus_mod.log_transform(built)
    score = analysis.influence(fit, built, args.doc)
    print(f"doc {score.doc_id}: vs_zero {score.ratio_vs_zero:.6g}  "
          f"vs_max {score.ratio_vs_max:.6g}  vs_min {score.ratio_vs_min:.6g}")
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "influence.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(score), fh, indent=2)
        fh.write("\n")
    config = {"report": "influence", "doc": args.doc}
    write_manifest(outdir, "analyze influence", config, None,
                   [args.fit, args.data], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args):
    started = time.time()
    outdir = Path(args.output_dir)
    spec = synth.SynthSpec(
        num_docs=args.docs,
        num_terms=args.terms,
        num_authors=args.authors,
        num_topics=args.k,
        layout=args.layout,
        polarity_scale=args.polarity,
        seed=args.seed,
    )
    outdir.mkdir(parents=True, exist_ok=True)
    if args.kind == "tbip":
        built, truth = synth.sample_tbip(spec)
        vocab = corpus_mod.Vocabulary([f"term{v}" for v in range(built.num_terms)])
        corpus_mod.save_corpus(built, vocab, outdir)
        weights = corpus_mod.compute_weights(built)
        corpus_mod.save_weights(outdir / corpus_mod.WEIGHTS_FILE,
                                built.author_names, weights)
    else:
        votes, truth = synth.sample_votes(spec)
        vote.save_votes_csv(votes, outdir / "votes.csv")
    synth.save_truth(truth, outdir / "truth.json")
    config = dataclasses.asdict(spec) | {"kind": args.kind}
    write_manifest(outdir, f"synth {args.kind}", config, args.seed, [], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="textideal",
        description="Estimate political ideal points from texts and votes.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build corpus files from JSONL documents")
    p.add_argument("--input", required=True, help="JSON-lines documents (id/author/text)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--min-df", type=float, default=0.001)
    p.add_argument("--max-df", type=float, default=0.3)
    p.add_argument("--min-authors", type=int, default=10)
    p.add_argument("--min-docs-per-author", type=int, default=1)
    p.add_argument("--stopwords", default=None, help="file with one stopword per line")
    p.add_argument("--ngrams", type=int, default=3, choices=(1, 2, 3))
    p.set_defaults(func=cmd_preprocess)

    t = sub.add_parser("train", help="fit a model and write a fit directory")
    t.add_argument("model", choices=("tbip", "pf", "vote", "wordfish", "wordshoal"))
    t.add_argument("--data", required=True,
                   help="corpus directory, or votes CSV for the vote model")
    t.add_argument("--output-dir", required=True)
    t.add_argument("--k", type=int, default=50)
    t.add_argument("--batch", type=int, default=512)
    t.add_argument("--steps", type=int, default=50_000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--lr", type=float, default=0.01)
    t.add_argument("--mc-samples", type=int, default=1)
    t.add_argument("--log-counts", choices=("auto", "on", "off"), default="auto")
    t.add_argument("--pretrain-dir", default=None,
                   help="reuse a pf fit directory for initialization")
    t.add_argument("--pretrain-sweeps", type=int, default=100)
    t.add_argument("--report-interval", type=int, default=100)
    t.add_argument("--debates", default=None, help="doc_index,debate_id CSV")
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("analyze", help="post-fit reports")
    a.add_argument("report", choices=("topics", "compare", "influence", "align"))
    a.add_argument("--fit", required=True, help="fit directory")
    a.add_argument("--data", default=None, help="corpus directory")
    a.add_argument("--reference", default=None, help="name,score CSV")
    a.add_argument("--output-dir", required=True)
    a.add_argument("--top", type=int, default=8)
    a.add_argument("--exact", action="store_true",
                   help="use exact pole expectations instead of plug-in")
    a.add_argument("--doc", type=int, default=None)
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("synth", help="generate synthetic data with known truth")
    s.add_argument("kind", choices=("tbip", "votes"))
    s.add_argument("--output-dir", required=True)
    s.add_argument("--docs", type=int, default=1000)
    s.add_argument("--terms", type=int, default=300)
    s.add_argument("--authors", type=int, default=20)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--layout", choices=("two_cluster", "uniform"), default="two_cluster")
    s.add_argument("--polarity", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    missing_checks = {
        "analyze": lambda a: (a.report in ("topics", "influence") and not a.data)
        or (a.report == "compare" and not a.reference),
    }
    check = missing_checks.get(args.command)
    if check and check(args):
        log.error("missing a required flag for this subcommand")
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except _CliError as exc:
        log.error("%s", exc)
        return exc.code
    except FileNotFoundError as exc:
        log.error("file not found: %s", exc.filename or exc)
        return EXIT_IO
    except (AllDocumentsFiltered, DebateTooSmall) as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except NonFiniteElbo as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
