import csv
import json
import logging
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from textideal import fitio, tbip
from textideal.analysis import save_ideal_points_csv
from textideal.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


def parity_debate_labels(corpus_dir, path, extra_rows=()):
    """Write a debate-labels CSV putting documents into two debates by
    parity, followed by `extra_rows` verbatim."""
    counts = (corpus_dir / "counts.txt").read_text().splitlines()
    num_docs = max(int(line.split()[0]) for line in counts if line) + 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_index", "debate_id"])
        for d in range(num_docs):
            writer.writerow([d, f"debate{d % 2}"])
        writer.writerows(extra_rows)
    return path


@pytest.fixture(scope="module")
def synth_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(["synth", "tbip", "--output-dir", out, "--docs", "120",
                "--terms", "60", "--authors", "8", "--k", "2", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def tbip_fit_dir(tmp_path_factory, synth_corpus_dir):
    out = tmp_path_factory.mktemp("fit")
    assert run(["train", "tbip", "--data", synth_corpus_dir, "--output-dir", out,
                "--k", "2", "--batch", "64", "--steps", "250", "--seed", "1",
                "--log-counts", "off", "--report-interval", "50",
                "--pretrain-sweeps", "20"]) == 0
    return out


@pytest.fixture(scope="module")
def wordfish_fit_dir(tmp_path_factory, synth_corpus_dir):
    out = tmp_path_factory.mktemp("wordfish")
    assert run(["train", "wordfish", "--data", synth_corpus_dir, "--output-dir", out,
                "--steps", "20", "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, synth_corpus_dir, tbip_fit_dir):
    """One readable file or directory for every path flag."""
    root = tmp_path_factory.mktemp("inputs")
    docs = root / "docs.jsonl"
    docs.write_text(json.dumps({"id": "d0", "author": "a", "text": "hi"}) + "\n",
                    encoding="utf-8")
    reference = root / "ref.csv"
    save_ideal_points_csv(reference, [f"author{a}" for a in range(8)], np.arange(8.0))
    assert run(["synth", "votes", "--output-dir", root, "--docs", "20", "--authors", "6"]) == 0
    return {"docs": docs, "corpus": synth_corpus_dir, "fit": tbip_fit_dir,
            "reference": reference, "votes": root / "votes.csv",
            "debates": parity_debate_labels(synth_corpus_dir, root / "debates.csv")}


# Each argv names one absent path, {missing}; the other paths exist.
MISSING_PATH_ARGV = {
    "preprocess --input": ["preprocess", "--input", "{missing}"],
    "preprocess --stopwords": ["preprocess", "--input", "{docs}", "--stopwords", "{missing}"],
    "train tbip --data": ["train", "tbip", "--data", "{missing}"],
    "train pf --data": ["train", "pf", "--data", "{missing}"],
    "train vote --data": ["train", "vote", "--data", "{missing}"],
    "train wordfish --data": ["train", "wordfish", "--data", "{missing}"],
    "train wordshoal --data": ["train", "wordshoal", "--data", "{missing}",
                               "--debates", "{debates}"],
    "train wordshoal --debates": ["train", "wordshoal", "--data", "{corpus}",
                                  "--debates", "{missing}"],
    "train tbip --pretrain-dir": ["train", "tbip", "--data", "{corpus}", "--k", "2",
                                  "--log-counts", "off", "--pretrain-dir", "{missing}"],
    "analyze topics --fit": ["analyze", "topics", "--fit", "{missing}", "--data", "{corpus}"],
    "analyze topics --data": ["analyze", "topics", "--fit", "{fit}", "--data", "{missing}"],
    "analyze align --fit": ["analyze", "align", "--fit", "{missing}"],
    "analyze align --reference": ["analyze", "align", "--fit", "{fit}",
                                  "--reference", "{missing}"],
    "analyze compare --fit": ["analyze", "compare", "--fit", "{missing}",
                              "--reference", "{reference}"],
    "analyze compare --reference": ["analyze", "compare", "--fit", "{fit}",
                                    "--reference", "{missing}"],
    "analyze influence --fit": ["analyze", "influence", "--fit", "{missing}",
                                "--data", "{corpus}", "--doc", "0"],
    "analyze influence --data": ["analyze", "influence", "--fit", "{fit}",
                                 "--data", "{missing}", "--doc", "0"],
}


@pytest.mark.parametrize("argv", MISSING_PATH_ARGV.values(), ids=MISSING_PATH_ARGV.keys())
def test_missing_input_exits_1_naming_it(valid_inputs, tmp_path, caplog, argv):
    missing = tmp_path / "absent"
    out = tmp_path / "out"
    argv = [a.format(missing=missing, **valid_inputs) for a in argv]
    with caplog.at_level(logging.ERROR, logger="textideal"):
        rc = run([*argv, "--output-dir", out])
    assert rc == 1
    assert str(missing) in caplog.text
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["preprocess", "--input", "{corpus}"],
    ["train", "pf", "--data", "{corpus}/counts.txt"],
    ["train", "vote", "--data", "{corpus}"],
], ids=["directory as --input", "file as --data", "directory as vote --data"])
def test_wrong_kind_of_path_exits_1_without_traceback(synth_corpus_dir, tmp_path, caplog,
                                                      capsys, argv):
    out = tmp_path / "out"
    argv = [a.format(corpus=synth_corpus_dir) for a in argv]
    with caplog.at_level(logging.ERROR, logger="textideal"):
        rc = run([*argv, "--output-dir", out])
    assert rc == 1
    assert str(synth_corpus_dir) in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


# Each argv reads one file, {bad}, whose first byte (0xff) is not UTF-8:
# a new file, or a copy of one in the corpus or fit directory.
NOT_UTF8_ARGV = {
    "preprocess --input": ("bad", ["preprocess", "--input", "{bad}"]),
    "preprocess --stopwords": ("bad", ["preprocess", "--input", "{docs}",
                                       "--stopwords", "{bad}"]),
    "train vote --data": ("bad", ["train", "vote", "--data", "{bad}"]),
    "corpus vocabulary.txt": ("corpus/vocabulary.txt", ["train", "pf", "--data", "{corpus}"]),
    "corpus authors.csv": ("corpus/authors.csv", ["train", "pf", "--data", "{corpus}"]),
    "corpus counts.txt": ("corpus/counts.txt", ["train", "pf", "--data", "{corpus}"]),
    "fit manifest.json": ("fit/manifest.json", ["analyze", "align", "--fit", "{fit}"]),
    "analyze align --reference": ("bad", ["analyze", "align", "--fit", "{fit}",
                                          "--reference", "{bad}"]),
    "analyze compare --reference": ("bad", ["analyze", "compare", "--fit", "{fit}",
                                            "--reference", "{bad}"]),
}


@pytest.mark.parametrize("bad_file, argv", NOT_UTF8_ARGV.values(), ids=NOT_UTF8_ARGV.keys())
def test_file_that_is_not_utf8_exits_2_naming_it(valid_inputs, tmp_path, caplog,
                                                 bad_file, argv):
    shutil.copytree(valid_inputs["corpus"], tmp_path / "corpus")
    shutil.copytree(valid_inputs["fit"], tmp_path / "fit")
    bad = tmp_path / bad_file
    bad.write_bytes(b"\xff" + (bad.read_bytes() if bad.exists() else b"a,1\n"))
    out = tmp_path / "out"
    argv = [a.format(bad=bad, docs=valid_inputs["docs"], corpus=tmp_path / "corpus",
                     fit=tmp_path / "fit") for a in argv]
    with caplog.at_level(logging.ERROR, logger="textideal"):
        rc = run([*argv, "--output-dir", out])
    assert rc == 2
    assert f"{bad}: not UTF-8 text" in caplog.text
    assert not (out / "run_manifest.json").exists()


class TestPreprocess:
    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "expected a JSON object"),
        ("{bad", "invalid JSON"),
    ])
    def test_malformed_jsonl_line_exits_2(self, tmp_path, caplog, line, message):
        docs = tmp_path / "docs.jsonl"
        docs.write_text(line + "\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["preprocess", "--input", docs, "--output-dir", tmp_path / "out"])
        assert rc == 2
        assert f"{docs}:1: " in caplog.text and message in caplog.text

    def test_builds_corpus_files_and_manifest(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        lines = []
        for i in range(40):
            author = f"sen{i % 4}"
            text = f"guns need background checks topic{chr(97 + i % 3)}"
            lines.append(json.dumps({"id": f"d{i}", "author": author, "text": text}))
        docs.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "corpus"
        rc = run(["preprocess", "--input", docs, "--output-dir", out,
                  "--min-df", 0.01, "--max-df", 1.0, "--min-authors", 2,
                  "--ngrams", 2])
        assert rc == 0
        for name in ("counts.txt", "vocabulary.txt", "authors.csv",
                     "weights.csv", "run_manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert manifest["config_hash"]

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = run(["preprocess", "--input", tmp_path / "absent.jsonl",
                  "--output-dir", tmp_path / "out"])
        assert rc == 1

    def test_everything_filtered_exits_2(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        docs.write_text(json.dumps({"id": "d0", "author": "a", "text": "hi"}),
                        encoding="utf-8")
        out = tmp_path / "corpus"
        rc = run(["preprocess", "--input", docs, "--output-dir", out,
                  "--min-authors", 5])
        assert rc == 2
        assert not (out / "run_manifest.json").exists()


class TestTrain:
    def test_tbip_fit_directory(self, tbip_fit_dir):
        for name in ("theta.bin", "beta.bin", "eta.bin", "x.bin", "elbo.csv",
                     "manifest.json", "run_manifest.json"):
            assert (tbip_fit_dir / name).exists()
        manifest = json.loads((tbip_fit_dir / "run_manifest.json").read_text())
        assert manifest["final_elbo"] is not None

    def test_failed_rerun_leaves_no_manifest(self, valid_inputs, tmp_path):
        out = tmp_path / "fit"
        assert run(["train", "vote", "--data", valid_inputs["votes"], "--steps", "5",
                    "--output-dir", out]) == 0
        assert (out / "run_manifest.json").exists()
        assert run(["train", "vote", "--data", tmp_path / "absent.csv", "--steps", "5",
                    "--output-dir", out]) != 0
        assert not (out / "run_manifest.json").exists()

    def test_rerun_same_seed_identical(self, synth_corpus_dir, tmp_path):
        args = ["train", "tbip", "--data", synth_corpus_dir, "--k", "2",
                "--batch", "64", "--steps", "120", "--seed", "9",
                "--log-counts", "off", "--report-interval", "40",
                "--pretrain-sweeps", "10"]
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert run(args + ["--output-dir", out1]) == 0
        assert run(args + ["--output-dir", out2]) == 0
        m1 = json.loads((out1 / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert (out1 / "elbo.csv").read_bytes() == (out2 / "elbo.csv").read_bytes()

    def test_vote_training(self, tmp_path):
        vdir = tmp_path / "votes"
        assert run(["synth", "votes", "--output-dir", vdir, "--docs", "40",
                    "--authors", "10", "--seed", "5"]) == 0
        out = tmp_path / "vfit"
        rc = run(["train", "vote", "--data", vdir / "votes.csv",
                  "--output-dir", out, "--steps", "300", "--seed", "1",
                  "--lr", "0.05"])
        assert rc == 0
        assert (out / "x.bin").exists() and (out / "alpha.bin").exists()

    def test_pf_training_and_reuse(self, synth_corpus_dir, tmp_path):
        pfdir = tmp_path / "pf"
        assert run(["train", "pf", "--data", synth_corpus_dir, "--output-dir",
                    pfdir, "--k", "2", "--pretrain-sweeps", "15",
                    "--seed", "2"]) == 0
        out = tmp_path / "warm"
        rc = run(["train", "tbip", "--data", synth_corpus_dir, "--output-dir",
                  out, "--k", "2", "--batch", "64", "--steps", "60",
                  "--seed", "2", "--log-counts", "off",
                  "--pretrain-dir", pfdir])
        assert rc == 0

    def test_wordfish_and_wordshoal(self, synth_corpus_dir, tmp_path):
        out = tmp_path / "wf"
        rc = run(["train", "wordfish", "--data", synth_corpus_dir,
                  "--output-dir", out, "--steps", "200", "--seed", "0"])
        assert rc == 0
        assert (out / "psi.bin").exists()

        labels = parity_debate_labels(synth_corpus_dir, tmp_path / "debates.csv")
        ws = tmp_path / "ws"
        rc = run(["train", "wordshoal", "--data", synth_corpus_dir,
                  "--output-dir", ws, "--steps", "200", "--seed", "0",
                  "--debates", labels])
        assert rc == 0
        assert (ws / "debate_positions.bin").exists()

    def test_pf_transform_mismatch_exits_2(self, synth_corpus_dir, tmp_path):
        pfdir = tmp_path / "pf"
        assert run(["train", "pf", "--data", synth_corpus_dir, "--output-dir",
                    pfdir, "--k", "2", "--pretrain-sweeps", "5", "--seed", "2",
                    "--log-counts", "on"]) == 0
        manifest = json.loads((pfdir / "manifest.json").read_text())
        assert manifest["config"]["use_log_transform"] is True
        out = tmp_path / "warm"
        rc = run(["train", "tbip", "--data", synth_corpus_dir, "--output-dir",
                  out, "--k", "2", "--batch", "64", "--steps", "10",
                  "--seed", "2", "--log-counts", "off",
                  "--pretrain-dir", pfdir])
        assert rc == 2
        assert not (out / "run_manifest.json").exists()

    def test_malformed_counts_line_exits_2(self, synth_corpus_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_corpus_dir, data)
        with open(data / "counts.txt", "a", encoding="utf-8") as fh:
            fh.write("0 1\n")
        rc = run(["train", "pf", "--data", data, "--output-dir", tmp_path / "pf",
                  "--k", "2", "--pretrain-sweeps", "2"])
        assert rc == 2
        assert not (tmp_path / "pf" / "run_manifest.json").exists()

    @pytest.mark.parametrize("extra_line, message", [
        ("0 999 1", "term index 999 is outside [0, {terms})"),
        ("999 0 1", "doc index 999 is outside [0, {docs})"),
        ("-1 0 1", "doc index -1 is outside [0, {docs})"),
    ])
    def test_counts_index_out_of_range_exits_2(self, synth_corpus_dir, tmp_path, caplog,
                                               extra_line, message):
        data = tmp_path / "data"
        shutil.copytree(synth_corpus_dir, data)
        with open(data / "counts.txt", "a", encoding="utf-8") as fh:
            fh.write(extra_line + "\n")
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", "pf", "--data", data, "--output-dir", tmp_path / "pf",
                      "--k", "2", "--pretrain-sweeps", "2"])
        assert rc == 2
        docs = len((data / "authors.csv").read_text().splitlines()) - 1  # less the header
        terms = len((data / "vocabulary.txt").read_text().splitlines())
        message = message.format(docs=docs, terms=terms)
        assert f"{data / 'counts.txt'}: {message}" in caplog.text
        assert not (tmp_path / "pf" / "run_manifest.json").exists()

    @pytest.mark.parametrize("extra_line, message", [
        ("7", "expected doc_index,author_name"),
        ("7,author9,x", "repeats doc_index 7"),
        ("7,", "expected doc_index,author_name"),  # an empty name
    ])
    def test_malformed_authors_file_exits_2(self, synth_corpus_dir, tmp_path, caplog,
                                            extra_line, message):
        data = tmp_path / "data"
        shutil.copytree(synth_corpus_dir, data)
        with open(data / "authors.csv", "a", encoding="utf-8") as fh:
            fh.write(extra_line + "\n")
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", "pf", "--data", data, "--output-dir", tmp_path / "pf",
                      "--k", "2", "--pretrain-sweeps", "2"])
        assert rc == 2
        line = len((data / "authors.csv").read_text().splitlines())
        assert f"{data / 'authors.csv'}:{line}: {message}" in caplog.text
        assert not (tmp_path / "pf" / "run_manifest.json").exists()

    def test_author_without_tokens_exits_2(self, tmp_path, caplog):
        # Author b's only document has no counts line.
        data = tmp_path / "data"
        data.mkdir()
        (data / "vocabulary.txt").write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
        (data / "authors.csv").write_text("doc_index,author_name\n0,a\n1,b\n2,c\n3,a\n",
                                          encoding="utf-8")
        (data / "counts.txt").write_text("0 0 2\n0 1 1\n2 1 3\n2 2 1\n3 0 1\n3 2 2\n",
                                         encoding="utf-8")
        out = tmp_path / "tbip"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", "tbip", "--data", data, "--output-dir", out, "--k", "2",
                      "--batch", "4", "--steps", "5"])
        assert rc == 2
        assert "authors whose documents hold no tokens: ['b']" in caplog.text
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("model, flags", [
        ("tbip", ["--steps", "0"]),
        ("tbip", ["--report-interval", "0"]),
        ("wordfish", ["--report-interval", "0"]),
        ("wordfish", ["--steps", "-1"]),
    ])
    def test_step_bounds_below_one_exit_2(self, synth_corpus_dir, tmp_path, caplog,
                                          model, flags):
        out = tmp_path / "fit"
        model_flags = {"tbip": ["--k", "2", "--batch", "64", "--log-counts", "off",
                                "--pretrain-sweeps", "2"], "wordfish": []}[model]
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", model, "--data", synth_corpus_dir, "--output-dir", out,
                      "--steps", "3", *model_flags, *flags])
        assert rc == 2
        field = {"--steps": "max_steps", "--report-interval": "elbo_report_interval"}[flags[0]]
        assert f"{field} must be >= 1" in caplog.text
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("model, flags", [
        ("wordfish", ["--lr", "-1", "--steps", "5"]),
        ("tbip", ["--lr", "nan", "--k", "2", "--batch", "64", "--steps", "5",
                  "--log-counts", "off", "--pretrain-sweeps", "2"]),
    ])
    def test_negative_or_nonfinite_lr_exits_2(self, synth_corpus_dir, tmp_path, caplog,
                                              model, flags):
        out = tmp_path / "fit"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", model, "--data", synth_corpus_dir, "--output-dir", out, *flags])
        assert rc == 2
        assert "lr must be finite and >= 0" in caplog.text
        assert not (out / "run_manifest.json").exists()

    def test_pretrain_dir_from_another_model_exits_2(self, synth_corpus_dir, wordfish_fit_dir,
                                                     tmp_path, caplog):
        out = tmp_path / "warm"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", "tbip", "--data", synth_corpus_dir, "--output-dir", out,
                      "--k", "2", "--batch", "64", "--steps", "5", "--log-counts", "off",
                      "--pretrain-dir", wordfish_fit_dir])
        assert rc == 2
        assert str(wordfish_fit_dir) in caplog.text
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("dropped", [["theta"], ["theta", "beta"]])
    def test_pf_fit_without_theta_or_beta_exits_2(self, synth_corpus_dir, tmp_path, caplog,
                                                  dropped):
        pfdir = tmp_path / "pf"
        assert run(["train", "pf", "--data", synth_corpus_dir, "--output-dir", pfdir,
                    "--k", "2", "--pretrain-sweeps", "2", "--log-counts", "off"]) == 0
        manifest = json.loads((pfdir / "manifest.json").read_text())
        for name in dropped:
            del manifest["arrays"][name]
        (pfdir / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "warm"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", "tbip", "--data", synth_corpus_dir, "--output-dir", out,
                      "--k", "2", "--batch", "64", "--steps", "5", "--log-counts", "off",
                      "--pretrain-dir", pfdir])
        assert rc == 2
        assert f"{pfdir} is not a pf fit: missing arrays {', '.join(dropped)}" in caplog.text
        assert not (out / "run_manifest.json").exists()

    def test_wordshoal_without_labels_exits_2(self, synth_corpus_dir, tmp_path):
        rc = run(["train", "wordshoal", "--data", synth_corpus_dir,
                  "--output-dir", tmp_path / "x", "--steps", "10"])
        assert rc == 2

    @pytest.mark.parametrize("extra_row, message", [
        (["5"], "expected doc_index,debate_id"),
        (["5", "debate9"], "repeats doc_index 5"),
        (["5", ""], "expected doc_index,debate_id"),  # an empty label
    ])
    def test_malformed_debate_labels_exit_2(self, synth_corpus_dir, tmp_path, caplog,
                                            extra_row, message):
        labels = parity_debate_labels(synth_corpus_dir, tmp_path / "debates.csv", [extra_row])
        out = tmp_path / "ws"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", "wordshoal", "--data", synth_corpus_dir,
                      "--output-dir", out, "--steps", "10", "--debates", labels])
        assert rc == 2
        line = len(labels.read_text().splitlines())
        assert f"{labels}:{line}: {message}" in caplog.text
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("extra_doc, message", [
        ("{docs}", "labels {rows} documents, the corpus has {docs}"),
        ("-1", "doc_index values must be 0..n-1"),
    ], ids=["num_docs", "-1"])
    def test_debate_labels_not_listing_each_document_once_exit_2(
            self, synth_corpus_dir, tmp_path, caplog, extra_doc, message):
        docs = len((synth_corpus_dir / "authors.csv").read_text().splitlines()) - 1
        labels = parity_debate_labels(synth_corpus_dir, tmp_path / "debates.csv",
                                      [[extra_doc.format(docs=docs), "debate0"]])
        out = tmp_path / "ws"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["train", "wordshoal", "--data", synth_corpus_dir,
                      "--output-dir", out, "--steps", "10", "--debates", labels])
        assert rc == 2
        assert f"{labels}: {message.format(docs=docs, rows=docs + 1)}" in caplog.text
        assert not (out / "run_manifest.json").exists()

    def test_divergent_wordshoal_exits_3_without_manifest(self, synth_corpus_dir, tmp_path):
        labels = parity_debate_labels(synth_corpus_dir, tmp_path / "debates.csv")
        out = tmp_path / "boom"
        rc = run(["train", "wordshoal", "--data", synth_corpus_dir, "--output-dir", out,
                  "--steps", "200", "--seed", "0", "--lr", "1e8", "--debates", labels])
        assert rc == 3
        assert not (out / "run_manifest.json").exists()

    def test_divergent_run_exits_3_without_manifest(self, synth_corpus_dir, tmp_path):
        out = tmp_path / "boom"
        rc = run(["train", "tbip", "--data", synth_corpus_dir, "--output-dir",
                  out, "--k", "2", "--batch", "64", "--steps", "200",
                  "--seed", "1", "--lr", "1e8", "--log-counts", "off",
                  "--pretrain-sweeps", "5"])
        assert rc == 3
        assert not (out / "run_manifest.json").exists()


class TestAnalyze:
    def test_topics_report(self, tbip_fit_dir, synth_corpus_dir, tmp_path):
        out = tmp_path / "reports"
        rc = run(["analyze", "topics", "--fit", tbip_fit_dir, "--data",
                  synth_corpus_dir, "--output-dir", out, "--top", "8"])
        assert rc == 0
        md = (out / "topics.md").read_text()
        assert "negative" in md and "positive" in md
        doc = json.loads((out / "topics.json").read_text())
        assert len(doc["topics"][0]["neutral"]) == 8

    def test_topics_report_reads_only_the_vocabulary(self, tbip_fit_dir,
                                                     synth_corpus_dir, tmp_path):
        data = tmp_path / "vocab_only"
        data.mkdir()
        shutil.copy(Path(synth_corpus_dir) / "vocabulary.txt", data)
        rc = run(["analyze", "topics", "--fit", tbip_fit_dir, "--data", data,
                  "--output-dir", tmp_path / "reports"])
        assert rc == 0
        (data / "vocabulary.txt").write_text("only\nthree\nterms\n", encoding="utf-8")
        rc = run(["analyze", "topics", "--fit", tbip_fit_dir, "--data", data,
                  "--output-dir", tmp_path / "mismatch"])
        assert rc == 2

    def test_align_then_compare(self, tbip_fit_dir, tmp_path):
        out = tmp_path / "aligned"
        assert run(["analyze", "align", "--fit", tbip_fit_dir,
                    "--output-dir", out]) == 0
        points = out / "ideal_points.csv"
        assert points.exists()
        cmp_dir = tmp_path / "cmp"
        rc = run(["analyze", "compare", "--fit", tbip_fit_dir,
                  "--reference", points, "--output-dir", cmp_dir])
        assert rc == 0
        metrics = json.loads((cmp_dir / "comparison.json").read_text())
        assert metrics["abs_pearson"] > 0.999
        with open(cmp_dir / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "fit_score", "reference_score"]
        assert len(rows) - 1 == metrics["n"]
        for row in rows[1:]:
            assert len(row) == 3
            float(row[1]), float(row[2])

    def test_compare_quotes_names_and_keeps_header_words(self, tmp_path):
        names = ["Smith, John", "name", 'Q "x"', "score"]
        x = np.array([0.5, -1.25, 2.0, 0.125])
        fitio.save_fit_dir(tmp_path / "fit", {"x": x}, {}, author_names=names)
        save_ideal_points_csv(tmp_path / "ref.csv", names, 2.0 * x + 1.0)
        out = tmp_path / "cmp"
        assert run(["analyze", "compare", "--fit", tmp_path / "fit",
                    "--reference", tmp_path / "ref.csv", "--output-dir", out]) == 0
        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == names
        assert [float(row[1]) for row in rows] == x.tolist()
        assert [float(row[2]) for row in rows] == (2.0 * x + 1.0).tolist()
        assert json.loads((out / "comparison.json").read_text())["n"] == 4

    @pytest.mark.parametrize("line", ["alone", "a0,high"])
    def test_malformed_reference_exits_2(self, tbip_fit_dir, tmp_path, caplog, line):
        ref = tmp_path / "ref.csv"
        ref.write_text(f"name,score\n{line}\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", "compare", "--fit", tbip_fit_dir,
                      "--reference", ref, "--output-dir", tmp_path / "out"])
        assert rc == 2
        assert f"{ref}:2: " in caplog.text

    def test_reference_repeating_a_name_exits_2(self, tbip_fit_dir, tmp_path, caplog):
        ref = tmp_path / "ref.csv"
        ref.write_text("name,score\nauthor0,1.0\nauthor1,2.0\nauthor2,3.0\nauthor0,-100\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", "compare", "--fit", tbip_fit_dir,
                      "--reference", ref, "--output-dir", out])
        assert rc == 2
        assert f"{ref}:5: repeats name 'author0'" in caplog.text
        assert not (out / "run_manifest.json").exists()

    def test_constant_reference_exits_2(self, tbip_fit_dir, tmp_path, caplog):
        ref = tmp_path / "ref.csv"
        save_ideal_points_csv(ref, [f"author{a}" for a in range(8)], np.ones(8))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", "compare", "--fit", tbip_fit_dir,
                      "--reference", ref, "--output-dir", out])
        assert rc == 2
        assert "constant" in caplog.text
        assert not (out / "run_manifest.json").exists()

    def test_compare_disjoint_names_exits_2(self, tbip_fit_dir, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("name,score\nnobody,1.0\n", encoding="utf-8")
        rc = run(["analyze", "compare", "--fit", tbip_fit_dir,
                  "--reference", ref, "--output-dir", tmp_path / "out"])
        assert rc == 2
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_influence(self, tbip_fit_dir, synth_corpus_dir, tmp_path):
        out = tmp_path / "inf"
        rc = run(["analyze", "influence", "--fit", tbip_fit_dir, "--data",
                  synth_corpus_dir, "--output-dir", out, "--doc", "3"])
        assert rc == 0
        doc = json.loads((out / "influence.json").read_text())
        assert set(doc) == {"doc_id", "ratio_vs_zero", "ratio_vs_max",
                            "ratio_vs_min"}

    def test_influence_reports_input_document_id(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        words = ["guns", "taxes", "schools", "farms", "roads", "health"]
        lines = []
        for i in range(40):
            text = " ".join(words[(i + j) % len(words)] for j in range(4 + i % 3))
            lines.append(json.dumps({"id": f"speech-{i:03d}",
                                     "author": f"sen{i % 4}", "text": text}))
        docs.write_text("\n".join(lines), encoding="utf-8")
        data, fit = tmp_path / "corpus", tmp_path / "fit"
        assert run(["preprocess", "--input", docs, "--output-dir", data,
                    "--min-df", 0.0, "--max-df", 1.0, "--min-authors", 2,
                    "--ngrams", 1]) == 0
        assert run(["train", "tbip", "--data", data, "--output-dir", fit,
                    "--k", "2", "--batch", "64", "--steps", "5", "--seed", "0",
                    "--log-counts", "off", "--pretrain-sweeps", "3"]) == 0
        out = tmp_path / "inf"
        assert run(["analyze", "influence", "--fit", fit, "--data", data,
                    "--output-dir", out, "--doc", "3"]) == 0
        doc = json.loads((out / "influence.json").read_text())
        assert doc["doc_id"] == "speech-003"

    @pytest.mark.parametrize("report, flags", [
        ("topics", []),
        ("influence", ["--doc", "0"]),
    ])
    def test_fit_from_another_model_exits_2(self, wordfish_fit_dir, synth_corpus_dir,
                                            tmp_path, caplog, report, flags):
        out = tmp_path / "report"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", report, "--fit", wordfish_fit_dir, "--data",
                      synth_corpus_dir, "--output-dir", out, *flags])
        assert rc == 2
        assert str(wordfish_fit_dir) in caplog.text and "theta" in caplog.text
        assert not (out / "run_manifest.json").exists()

    def test_influence_whose_rate_overflows_exits_3(self, tmp_path, caplog, capsys):
        """eta = 500 tilts the rate of the x = +2 author by exp(1000)."""
        data, fit, out = tmp_path / "corpus", tmp_path / "fit", tmp_path / "inf"
        data.mkdir()
        (data / "vocabulary.txt").write_text("alpha\nbeta\n", encoding="utf-8")
        (data / "authors.csv").write_text("doc_index,author_name\n0,left\n1,right\n",
                                          encoding="utf-8")
        (data / "counts.txt").write_text("0 0 2\n0 1 1\n1 0 1\n1 1 3\n", encoding="utf-8")
        tbip.save_fit(tbip.FitResult(
            theta_hat=np.ones((2, 1)), beta_hat=np.ones((1, 2)),
            eta_hat=np.full((1, 2), 500.0), x_hat=np.array([-2.0, 2.0]), elbo_trace=[],
            config={"model": "tbip", "seed": 0}, author_names=["left", "right"]), fit)
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", "influence", "--fit", fit, "--data", data,
                      "--output-dir", out, "--doc", "1"])
        assert rc == 3
        assert "overflowed" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    def test_influence_bad_doc_exits_2(self, tbip_fit_dir, synth_corpus_dir, tmp_path):
        rc = run(["analyze", "influence", "--fit", tbip_fit_dir, "--data",
                  synth_corpus_dir, "--output-dir", tmp_path / "x",
                  "--doc", "100000"])
        assert rc == 2


# Each train command, and the name lists its manifest holds.
TRAIN_ARGV = {
    "tbip": (["train", "tbip", "--data", "{corpus}", "--k", "2", "--batch", "64",
              "--steps", "5", "--log-counts", "off", "--pretrain-sweeps", "2"],
             {"author_names"}),
    "pf": (["train", "pf", "--data", "{corpus}", "--k", "2", "--pretrain-sweeps", "2"], set()),
    "vote": (["train", "vote", "--data", "{votes}", "--steps", "5"], {"author_names"}),
    "wordfish": (["train", "wordfish", "--data", "{corpus}", "--steps", "5"], {"author_names"}),
    "wordshoal": (["train", "wordshoal", "--data", "{corpus}", "--debates", "{debates}",
                   "--steps", "5"], {"author_names", "debate_ids"}),
}


def with_dims_and_seed(fit_dir, dest, dims):
    """Copy a fit directory into `dest` in the layout of earlier versions,
    whose manifest also held the array `dims` and a top-level `seed`."""
    shutil.copytree(fit_dir, dest)
    manifest = json.loads((dest / "manifest.json").read_text())
    manifest.update(dims=dims, seed=manifest["config"]["seed"])
    (dest / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return dest


class TestFitDirectory:
    @pytest.mark.parametrize("argv, names", TRAIN_ARGV.values(), ids=TRAIN_ARGV.keys())
    def test_manifest_holds_format_config_arrays_and_names(self, valid_inputs, tmp_path,
                                                           argv, names):
        out = tmp_path / "fit"
        argv = [a.format(**valid_inputs) for a in argv]
        assert run([*argv, "--seed", "4", "--output-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"format", "config", "arrays"} | names
        assert manifest["config"]["model"] == argv[1]
        assert manifest["config"]["seed"] == 4
        arrays, _, _ = fitio.load_fit_dir(out)
        assert {name: list(arr.shape) for name, arr in arrays.items()} == manifest["arrays"]
        assert (out / "elbo.csv").read_text().startswith("step,elbo\n")

    def test_fit_with_dims_and_seed_still_loads(self, synth_corpus_dir, tbip_fit_dir,
                                                tmp_path):
        fit = with_dims_and_seed(tbip_fit_dir, tmp_path / "tbip", {
            "num_docs": 120, "num_topics": 2, "num_terms": 60, "num_authors": 8})
        assert np.array_equal(tbip.load_fit(fit).x_hat, tbip.load_fit(tbip_fit_dir).x_hat)
        assert run(["analyze", "align", "--fit", fit, "--output-dir", tmp_path / "a"]) == 0
        assert run(["analyze", "align", "--fit", tbip_fit_dir,
                    "--output-dir", tmp_path / "b"]) == 0
        assert ((tmp_path / "a" / "ideal_points.csv").read_bytes()
                == (tmp_path / "b" / "ideal_points.csv").read_bytes())
        assert run(["train", "pf", "--data", synth_corpus_dir, "--output-dir", tmp_path / "pf",
                    "--k", "2", "--pretrain-sweeps", "2", "--log-counts", "off"]) == 0
        pfdir = with_dims_and_seed(tmp_path / "pf", tmp_path / "pf_old", {
            "num_docs": 120, "num_topics": 2, "num_terms": 60})
        assert run(["train", "tbip", "--data", synth_corpus_dir, "--output-dir",
                    tmp_path / "warm", "--k", "2", "--batch", "64", "--steps", "5",
                    "--log-counts", "off", "--pretrain-dir", pfdir]) == 0

    @pytest.mark.parametrize("name, content, message", [
        ("x.bin", b"\0" * 56, "x.bin: 7 values for shape [8]"),
        ("manifest.json", b"{bad", "manifest.json: invalid JSON"),
        ("manifest.json", b"[1]", "manifest.json: expected a JSON object"),
        ("elbo.csv", b"step,elbo\n1,-3.5\n5,abc\n",
         "elbo.csv:3: expected a step and a number"),
    ], ids=["truncated x.bin", "manifest not JSON", "manifest not an object",
            "elbo.csv row not a number"])
    def test_malformed_fit_file_exits_2_naming_it(self, tbip_fit_dir, tmp_path, caplog,
                                                  name, content, message):
        fit = tmp_path / "fit"
        shutil.copytree(tbip_fit_dir, fit)
        (fit / name).write_bytes(content)
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", "align", "--fit", fit, "--output-dir", out])
        assert rc == 2
        assert f"{fit}/{message}" in caplog.text
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("arrays", [["x", [8]]]),
        ("arrays", {"x": [-8]}),
        ("arrays", {"x": ["8"]}),
        ("author_names", 8),
        ("author_names", "abcdefgh"),
        ("debate_ids", [0, 1]),
        ("config", "pf"),
    ], ids=["arrays a list", "negative length", "string length", "author_names a number",
            "author_names a string", "debate_ids numbers", "config a string"])
    def test_manifest_field_of_wrong_type_exits_2_naming_it(self, tbip_fit_dir, tmp_path,
                                                            caplog, key, value):
        fit = tmp_path / "fit"
        shutil.copytree(tbip_fit_dir, fit)  # x holds 8 ideal points
        manifest = json.loads((fit / "manifest.json").read_text())
        manifest[key] = value
        (fit / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", "align", "--fit", fit, "--output-dir", out])
        assert rc == 2
        assert f"{fit / 'manifest.json'}: {key!r} must be" in caplog.text
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("name", ["x.bin", "elbo.csv"])
    def test_missing_fit_file_exits_1_naming_it(self, tbip_fit_dir, tmp_path, caplog, name):
        fit = tmp_path / "fit"
        shutil.copytree(tbip_fit_dir, fit)
        (fit / name).unlink()
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run(["analyze", "align", "--fit", fit, "--output-dir", out])
        assert rc == 1
        assert str(fit / name) in caplog.text
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "align"],
        ["analyze", "compare", "--reference", "{reference}"],
    ], ids=["align", "compare"])
    def test_author_names_not_naming_each_point_exits_2(self, valid_inputs, tmp_path, caplog,
                                                        argv):
        fit = tmp_path / "fit"
        shutil.copytree(valid_inputs["fit"], fit)
        manifest = json.loads((fit / "manifest.json").read_text())
        manifest["author_names"].pop()
        (fit / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="textideal"):
            rc = run([*(a.format(**valid_inputs) for a in argv), "--fit", fit,
                      "--output-dir", out])
        assert rc == 2
        assert f"{fit / 'manifest.json'}: 7 author_names for x of shape [8]" in caplog.text
        assert not (out / "run_manifest.json").exists()


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["train", "wordfish", "--data", "{data}", "--steps", "5", "--batch", "7"],
        ["train", "vote", "--data", "{data}", "--steps", "5", "--k", "3"],
        ["train", "pf", "--data", "{data}", "--pretrain-sweeps", "2", "--lr", "0.1"],
        ["analyze", "align", "--fit", "{fit}", "--doc", "1"],
        ["analyze", "influence", "--fit", "{fit}", "--data", "{data}"],
        ["synth", "votes", "--docs", "5", "--k", "3"],
        ["synth", "votes", "--docs", "5", "--terms", "7"],
    ])
    def test_unread_flag_or_missing_required_flag_exits_2(self, synth_corpus_dir, tbip_fit_dir,
                                                           tmp_path, argv):
        out = tmp_path / "out"
        argv = [a.format(data=synth_corpus_dir, fit=tbip_fit_dir) for a in argv]
        assert run([*argv, "--output-dir", out]) == 2
        assert not (out / "run_manifest.json").exists()

    def test_unread_flag_reported_by_the_command(self, tmp_path, capsys):
        rc = run(["train", "wordfish", "--data", tmp_path / "x", "--output-dir",
                  tmp_path / "y", "--batch", "7"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: textideal train wordfish ")
        assert "textideal train wordfish: error: unrecognized arguments: --batch 7" in err
        assert not (tmp_path / "y").exists()

    def test_help_returns_0(self, capsys):
        assert main(["train", "tbip", "--help"]) == 0
        assert "--pretrain-dir" in capsys.readouterr().out

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [" ".join(cmd.split()) for cmd in
                    block.replace("\\\n", " ").splitlines() if cmd.startswith("textideal ")]
        assert len(commands) >= 10
        parser = build_parser()
        for cmd in commands:
            parser.parse_args(shlex.split(cmd)[1:])


class TestSynth:
    def test_writes_truth_and_manifest(self, synth_corpus_dir):
        truth = json.loads((synth_corpus_dir / "truth.json").read_text())
        assert set(truth) == {"theta", "beta", "eta", "x"}
        manifest = json.loads((synth_corpus_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "synth tbip"

    def test_votes_records_only_the_flags_it_reads(self, tmp_path, capsys):
        out = tmp_path / "votes"
        assert run(["synth", "votes", "--output-dir", out, "--docs", "12",
                    "--authors", "6", "--seed", "4"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "synth votes"
        assert manifest["config"] == {"kind": "votes", "num_docs": 12, "num_authors": 6,
                                      "layout": "two_cluster", "polarity_scale": 1.0,
                                      "seed": 4}
        assert (out / "votes.csv").exists() and (out / "truth.json").exists()
        assert run(["synth", "votes", "--output-dir", tmp_path / "x", "--k", "3"]) == 2
        assert capsys.readouterr().err.startswith("usage: textideal synth votes ")
