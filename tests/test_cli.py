import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from textideal.cli import main


def run(args):
    return main([str(a) for a in args])


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


class TestPreprocess:
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

        # label documents into two debates by parity
        import csv

        labels = tmp_path / "debates.csv"
        with open(labels, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["doc_index", "debate_id"])
            counts = (synth_corpus_dir / "counts.txt").read_text().splitlines()
            num_docs = max(int(line.split()[0]) for line in counts if line) + 1
            for d in range(num_docs):
                writer.writerow([d, f"debate{d % 2}"])
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

    def test_wordshoal_without_labels_exits_2(self, synth_corpus_dir, tmp_path):
        rc = run(["train", "wordshoal", "--data", synth_corpus_dir,
                  "--output-dir", tmp_path / "x", "--steps", "10"])
        assert rc == 2

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
        assert (cmp_dir / "comparison.csv").exists()

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

    def test_influence_bad_doc_exits_2(self, tbip_fit_dir, synth_corpus_dir, tmp_path):
        rc = run(["analyze", "influence", "--fit", tbip_fit_dir, "--data",
                  synth_corpus_dir, "--output-dir", tmp_path / "x",
                  "--doc", "100000"])
        assert rc == 2


class TestSynth:
    def test_writes_truth_and_manifest(self, synth_corpus_dir):
        truth = json.loads((synth_corpus_dir / "truth.json").read_text())
        assert set(truth) == {"theta", "beta", "eta", "x"}
        manifest = json.loads((synth_corpus_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "synth tbip"
