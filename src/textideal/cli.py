"""Command-line front end.

Subcommands wrap the library modules without adding numeric logic:

    preprocess   JSONL documents -> counts/vocabulary/authors/weights files
    train        tbip | pf | vote | wordfish | wordshoal -> fit directory
    analyze      topics | compare | influence | align -> report files
    synth        tbip | votes -> synthetic data with a truth file

Each command accepts only the flags it reads and returns the fields of its
run manifest (config, seed, inputs, final objective value); `main` removes
any manifest already in the output directory, then writes one there when
the run succeeds. Commands leave input checks to the library readers and
estimators; `main` alone turns an exception into an exit code: 0 ok, 1 I/O
error (a missing or unreadable file, logged with its path), 2 validation
error, 3 numeric failure (a non-finite objective, or a rate that overflows).
"""

from __future__ import annotations

import argparse
import csv
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
from .engine import NonFiniteElbo

log = logging.getLogger("textideal")

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

MANIFEST_NAME = "run_manifest.json"


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


def _load_stopwords(path):
    if path is None:
        return frozenset()
    with fitio.open_text(path) as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


def _config(cls, args, **fields):
    """A `cls` config from the flags given and `fields`; `cls` supplies every
    default, since a flag left out sets no attribute on `args`."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if hasattr(args, f.name)}
    return cls(**given, **fields)


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def cmd_preprocess(args):
    cfg = _config(corpus_mod.PreprocessConfig, args,
                  stopwords=_load_stopwords(args.stopwords_file))
    docs = corpus_mod.read_documents_jsonl(args.input)
    built, vocab = corpus_mod.build_corpus(docs, cfg)
    outdir = args.output_dir
    corpus_mod.save_corpus(built, vocab, outdir)
    weights = corpus_mod.compute_weights(built)
    corpus_mod.save_weights(outdir / corpus_mod.WEIGHTS_FILE, built.author_names, weights)
    log.info("kept %d documents, %d terms, %d authors",
             built.num_docs, built.num_terms, built.num_authors)
    config = {
        "min_df": cfg.min_doc_frequency,
        "max_df": cfg.max_doc_frequency,
        "min_authors": cfg.min_authors_per_term,
        "min_docs_per_author": cfg.min_docs_per_author,
        "ngrams": cfg.max_ngram,
        "stopwords": str(args.stopwords_file) if args.stopwords_file else None,
    }
    return config, None, [args.input], None


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


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


def _save_fit(args, arrays, config, trace, inputs, **names):
    """Write the fit directory of one trained model."""
    fitio.save_fit_dir(args.output_dir, arrays, config, trace, **names)
    return config, config["seed"], inputs, trace[-1][1] if trace else None


def cmd_train_vote(args):
    cfg = _config(tbip.TrainConfig, args)
    votes = vote.load_votes_csv(args.data)
    fit = vote.train_vote(votes, cfg)
    return _save_fit(
        args,
        {"x": fit.x_hat, "alpha": fit.alpha_hat, "eta": fit.eta_hat},
        {"model": "vote", **cfg.asdict()}, fit.elbo_trace, [args.data],
        author_names=votes.lawmaker_names,
    )


def cmd_train_pf(args):
    cfg = _config(tbip.TrainConfig, args)
    built, _ = corpus_mod.load_corpus(args.data)
    use_log = _resolve_log_counts(args.log_counts, built)
    work = corpus_mod.log_transform(built) if use_log else built
    priors = tbip.PriorConfig()
    theta, beta = pf.pretrain(work, cfg.k, priors.a, priors.b, sweeps=cfg.pretrain_sweeps,
                              seed=cfg.seed)
    return _save_fit(
        args,
        {"theta": theta, "beta": beta},
        {"model": "pf", "k": cfg.k, "sweeps": cfg.pretrain_sweeps, "seed": cfg.seed,
         "use_log_transform": use_log},
        [], [args.data],
    )


def cmd_train_tbip(args):
    cfg = _config(tbip.TrainConfig, args)
    built, _ = corpus_mod.load_corpus(args.data)
    use_log = _resolve_log_counts(args.log_counts, built)
    cfg = dataclasses.replace(cfg, use_log_transform=use_log)
    init = None
    if args.pretrain_dir:
        arrays, manifest, _ = fitio.load_fit_dir(args.pretrain_dir)
        pretrain_config = manifest.get("config", {})
        if pretrain_config.get("model") != "pf":
            raise ValueError(f"{args.pretrain_dir} is not a pf fit")
        # pf fits that predate the recorded transform always used raw counts.
        if pretrain_config.get("use_log_transform", False) != use_log:
            raise ValueError(f"{args.pretrain_dir} was pretrained with a count "
                             f"transform other than use_log_transform={use_log}")
        missing = [name for name in ("theta", "beta") if name not in arrays]
        if missing:
            raise ValueError(f"{args.pretrain_dir} is not a pf fit: missing arrays "
                             f"{', '.join(missing)}")
        init = (arrays["theta"], arrays["beta"])
    fit = tbip.train_tbip(built, cfg, init=init)
    tbip.save_fit(fit, args.output_dir)
    return fit.config, cfg.seed, [args.data], fit.elbo_trace[-1][1]


def cmd_train_wordfish(args):
    cfg = _config(tbip.TrainConfig, args)
    built, _ = corpus_mod.load_corpus(args.data)
    fit = baselines.train_wordfish(built, cfg)
    return _save_fit(
        args,
        {"x": fit.x_hat, "psi": fit.psi_hat, "b": fit.b_hat},
        {"model": "wordfish", **cfg.asdict()}, fit.elbo_trace, [args.data],
        author_names=built.author_names,
    )


def cmd_train_wordshoal(args):
    cfg = _config(tbip.TrainConfig, args)
    built, _ = corpus_mod.load_corpus(args.data)
    labels = [fields[0] for fields in corpus_mod.read_doc_index_csv(args.debates, "debate_id")]
    if len(labels) != built.num_docs:
        raise ValueError(f"{args.debates}: labels {len(labels)} documents, "
                         f"the corpus has {built.num_docs}")
    dcorpus = baselines.DebateLabeledCorpus.build(built, labels)
    fit = baselines.train_wordshoal(dcorpus, cfg)
    return _save_fit(
        args,
        {"x": fit.x_hat, "debate_positions": fit.debate_positions},
        {"model": "wordshoal", **cfg.asdict()}, fit.elbo_trace, [args.data, args.debates],
        author_names=built.author_names, debate_ids=dcorpus.debate_ids,
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _load_fit_points(fit_dir):
    arrays, manifest, _ = fitio.load_fit_dir(fit_dir)
    names = manifest.get("author_names")
    if names is None or "x" not in arrays:
        raise ValueError(f"{fit_dir} holds no ideal points with author names")
    return names, arrays["x"]


def cmd_analyze_topics(args):
    fit = tbip.load_fit(args.fit)
    vocab = corpus_mod.load_vocabulary(args.data)
    report = analysis.topic_report(fit, vocab, args.top,
                                   exact_expectation=args.exact)
    outdir = args.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "topics.md").write_text(report.to_markdown(), encoding="utf-8")
    (outdir / "topics.json").write_text(report.to_json() + "\n", encoding="utf-8")
    config = {"report": "topics", "top": args.top, "exact": args.exact}
    return config, None, [args.fit, args.data], None


def cmd_analyze_align(args):
    names, points = _load_fit_points(args.fit)
    reference = None
    inputs = [args.fit]
    if args.reference:
        ref_names, ref_scores = analysis.load_ideal_points_csv(args.reference)
        inputs.append(args.reference)
        # align rejects a reference that leaves a fitted author unmatched.
        _, reference = analysis.match_by_name(names, points, ref_names, ref_scores)
    aligned = analysis.align(points, reference)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    analysis.save_ideal_points_csv(args.output_dir / "ideal_points.csv", names,
                                   aligned.values)
    config = {"report": "align", "reference": args.reference,
              "sign_flipped": aligned.sign_flipped}
    return config, None, inputs, None


def cmd_analyze_compare(args):
    names, points = _load_fit_points(args.fit)
    ref_names, ref_scores = analysis.load_ideal_points_csv(args.reference)
    a, b = analysis.match_by_name(names, points, ref_names, ref_scores)
    pearson, spearman = analysis.compare(a, b)
    print(f"pearson {abs(pearson):.3f}  spearman {abs(spearman):.3f}")
    outdir = args.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    ref_set = set(ref_names)
    matched = [n for n in names if n in ref_set]
    with open(outdir / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "fit_score", "reference_score"])
        for n, fa, fb in zip(matched, a, b):
            writer.writerow([n, repr(float(fa)), repr(float(fb))])
    metrics = {"pearson": pearson, "spearman": spearman,
               "abs_pearson": abs(pearson), "abs_spearman": abs(spearman),
               "n": int(a.size)}
    with open(outdir / "comparison.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2)
        fh.write("\n")
    config = {"report": "compare", "reference": str(args.reference)}
    return config, None, [args.fit, args.reference], None


def cmd_analyze_influence(args):
    fit = tbip.load_fit(args.fit)
    built, _ = corpus_mod.load_corpus(args.data)
    score = analysis.influence(fit, built, args.doc)
    print(f"doc {score.doc_id}: vs_zero {score.ratio_vs_zero:.6g}  "
          f"vs_max {score.ratio_vs_max:.6g}  vs_min {score.ratio_vs_min:.6g}")
    args.output_dir.mkdir(parents=True, exist_ok=True)
    with open(args.output_dir / "influence.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(score), fh, indent=2)
        fh.write("\n")
    config = {"report": "influence", "doc": args.doc}
    return config, None, [args.fit, args.data], None


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _synth_fields(args):
    """The SynthSpec fields that every synth command sets."""
    return {"num_docs": args.docs, "num_authors": args.authors, "layout": args.layout,
            "polarity_scale": args.polarity, "seed": args.seed}


def cmd_synth_tbip(args):
    spec = synth.SynthSpec(num_terms=args.terms, num_topics=args.k, **_synth_fields(args))
    built, truth = synth.sample_tbip(spec)
    outdir = args.output_dir
    vocab = corpus_mod.Vocabulary([f"term{v}" for v in range(built.num_terms)])
    corpus_mod.save_corpus(built, vocab, outdir)
    weights = corpus_mod.compute_weights(built)
    corpus_mod.save_weights(outdir / corpus_mod.WEIGHTS_FILE, built.author_names, weights)
    synth.save_truth(truth, outdir / "truth.json")
    return dataclasses.asdict(spec) | {"kind": "tbip"}, args.seed, [], None


def cmd_synth_votes(args):
    fields = _synth_fields(args)
    # sample_votes reads neither num_terms nor num_topics.
    votes, truth = synth.sample_votes(synth.SynthSpec(num_terms=1, **fields))
    args.output_dir.mkdir(parents=True, exist_ok=True)
    vote.save_votes_csv(votes, args.output_dir / "votes.csv")
    synth.save_truth(truth, args.output_dir / "truth.json")
    return fields | {"kind": "votes"}, args.seed, [], None


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _flags(**kwargs):
    """A flag group for `parents=`."""
    return argparse.ArgumentParser(add_help=False, **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="textideal",
        description="Estimate political ideal points from texts and votes.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    output = _flags()
    output.add_argument("--output-dir", type=Path, required=True)
    corpus = _flags()
    corpus.add_argument("--data", required=True, help="corpus directory")
    fit = _flags()
    fit.add_argument("--fit", required=True, help="fit directory")
    # Training flags store into the tbip.TrainConfig field of their dest and
    # are absent unless given, so TrainConfig holds every default.
    seed = _flags(argument_default=argparse.SUPPRESS)
    seed.add_argument("--seed", type=int)
    pretrain = _flags(argument_default=argparse.SUPPRESS)
    pretrain.add_argument("--k", type=int)
    pretrain.add_argument("--pretrain-sweeps", type=int)
    pretrain.add_argument("--log-counts", choices=("auto", "on", "off"), default="auto")
    descent = _flags(argument_default=argparse.SUPPRESS)
    descent.add_argument("--steps", dest="max_steps", type=int)
    descent.add_argument("--lr", type=float)
    descent.add_argument("--mc-samples", type=int)
    descent.add_argument("--report-interval", dest="elbo_report_interval", type=int)
    batch = _flags(argument_default=argparse.SUPPRESS)
    batch.add_argument("--batch", dest="batch_size", type=int)

    def family(name, dest, help, *common):
        group = commands.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

        def add(leaf, func, *parents):
            p = group.add_parser(leaf, parents=[*common, *parents])
            p.set_defaults(func=func, run_name=f"{name} {leaf}", parser=p)
            return p
        return add

    # Filter flags, likewise, store into the corpus.PreprocessConfig field of
    # their dest, so PreprocessConfig holds every default.
    filters = _flags(argument_default=argparse.SUPPRESS)
    filters.add_argument("--min-df", dest="min_doc_frequency", type=float)
    filters.add_argument("--max-df", dest="max_doc_frequency", type=float)
    filters.add_argument("--min-authors", dest="min_authors_per_term", type=int)
    filters.add_argument("--min-docs-per-author", type=int)
    filters.add_argument("--ngrams", dest="max_ngram", type=int)
    p = commands.add_parser("preprocess", parents=[output, filters],
                            help="build corpus files from JSONL documents")
    p.add_argument("--input", required=True, help="JSON-lines documents (id/author/text)")
    p.add_argument("--stopwords", dest="stopwords_file", help="file with one stopword per line")
    p.set_defaults(func=cmd_preprocess, run_name="preprocess", parser=p)

    train = family("train", "model", "fit a model and write a fit directory", output, seed)
    train("tbip", cmd_train_tbip, corpus, pretrain, descent, batch).add_argument(
        "--pretrain-dir", help="reuse a pf fit directory for initialization")
    train("pf", cmd_train_pf, corpus, pretrain)
    train("vote", cmd_train_vote, descent, batch).add_argument(
        "--data", required=True, help="lawmaker_name,bill_id,vote CSV")
    train("wordfish", cmd_train_wordfish, corpus, descent)
    train("wordshoal", cmd_train_wordshoal, corpus, descent).add_argument(
        "--debates", required=True, help="doc_index,debate_id CSV")

    analyze = family("analyze", "report", "post-fit reports", output, fit)
    p = analyze("topics", cmd_analyze_topics, corpus)
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--exact", action="store_true",
                   help="use exact pole expectations instead of plug-in")
    analyze("align", cmd_analyze_align).add_argument("--reference", help="name,score CSV")
    analyze("compare", cmd_analyze_compare).add_argument(
        "--reference", required=True, help="name,score CSV")
    analyze("influence", cmd_analyze_influence, corpus).add_argument(
        "--doc", type=int, required=True)

    s = _flags()
    s.add_argument("--docs", type=int, default=1000)
    s.add_argument("--authors", type=int, default=20)
    s.add_argument("--layout", choices=("two_cluster", "uniform"), default="two_cluster")
    s.add_argument("--polarity", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    synthesize = family("synth", "kind", "generate synthetic data with known truth", output, s)
    p = synthesize("tbip", cmd_synth_tbip)
    p.add_argument("--terms", type=int, default=300)
    p.add_argument("--k", type=int, default=5)
    synthesize("votes", cmd_synth_votes)
    return parser


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            # argparse collects a subcommand's unknown flags at the top level;
            # report them with the usage of the command that was given.
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:  # --help, or a usage error argparse has reported
        return exc.code
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    started = time.time()
    try:
        # Only a run that finishes leaves a manifest, even in a reused directory.
        (args.output_dir / MANIFEST_NAME).unlink(missing_ok=True)
        config, seed, inputs, final_elbo = args.func(args)
        write_manifest(args.output_dir, args.run_name, config, seed, inputs, started,
                       final_elbo)
    except OSError as exc:  # its message names the file
        log.error("%s", exc)
        return EXIT_IO
    except (NonFiniteElbo, OverflowError) as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    return EXIT_OK


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
