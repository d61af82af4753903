import json
from pathlib import Path

import numpy as np
import pytest

from ielab import cli
from ielab.docstream import parse_documents, serialize_documents


def write_spec(tmp_path, **over):
    spec = {
        "seed": 21,
        "paths": {"corpus": str(tmp_path / "out" / "corpus.jsonl"),
                  "rasters": str(tmp_path / "out" / "rasters"),
                  "output": str(tmp_path / "out")},
        "model": {"fusion": "STYLE_CONCAT", "hidden": 16, "layers": 1,
                  "heads": 2, "style_dim": 4},
        "train": {"lr": 0.001, "epochs": 2, "folds": 3, "batch_size": 2},
        "bucketing": {"font_top_k": 8},
        "generator": {"template": "TRADECONF", "n_docs": 9,
                      "tokens_per_doc": [14, 20]},
    }
    for key, value in over.items():
        if isinstance(value, dict):
            spec.setdefault(key, {}).update(value)
        else:
            spec[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec, indent=1))
    (tmp_path / "out").mkdir(exist_ok=True)
    return path


def test_generate_writes_corpus_and_is_deterministic(tmp_path):
    spec = write_spec(tmp_path)
    assert cli.main(["generate", "--spec", str(spec)]) == 0
    corpus = (tmp_path / "out" / "corpus.jsonl").read_bytes()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_docs"] == 9
    assert (tmp_path / "out" / "rasters").is_dir()
    pgms = list((tmp_path / "out" / "rasters").glob("*.pgm"))
    assert len(pgms) >= 9
    assert cli.main(["generate", "--spec", str(spec)]) == 0
    assert (tmp_path / "out" / "corpus.jsonl").read_bytes() == corpus


def test_generate_missing_output_dir_exits_2(tmp_path):
    spec = write_spec(tmp_path, paths={"output": str(tmp_path / "nope")})
    assert cli.main(["generate", "--spec", str(spec)]) == 2


def test_malformed_spec_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["train", "--spec", str(bad)]) == 3


def test_unknown_fusion_mode_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, model={"fusion": "BOGUS"})
    assert cli.main(["train", "--spec", str(spec)]) == 3
    err = capsys.readouterr().err
    assert "'BOGUS'" in err and "STYLE_CONCAT" in err


@pytest.mark.parametrize("section, value", [
    ("train", {"bogus_key": 1}), ("bucketing", {"bogus_key": 1}),
    ("generator", {"bogus_key": 1}), ("model", {"image": {"bogus_key": 1}})])
def test_unknown_config_key_exits_3(tmp_path, capsys, section, value):
    spec = write_spec(tmp_path, **{section: value})
    assert cli.main(["train", "--spec", str(spec)]) == 3
    err = capsys.readouterr().err
    assert "bogus_key" in err and "allowed" in err


@pytest.mark.parametrize("override, message", [
    ({"seed": "abc"}, "seed: expected int"),
    ({"seed": True}, "seed: expected int"),
    ({"model": 5}, "'model' must be a JSON object"),
    ({"train": 5}, "'train' must be a JSON object"),
    ({"generator": [1]}, "'generator' must be a JSON object"),
    ({"paths": {"output": 5}}, "paths must be strings"),
    ({"model": {"hidden": "x"}}, "EncoderConfig.hidden: expected int"),
    ({"model": {"style_features": "bold"}}, "style_features: expected a list"),
    ({"train": {"lr": "x"}}, "TrainConfig.lr: expected float"),
    ({"train": {"epochs": True}}, "TrainConfig.epochs: expected int"),
    ({"train": {"bbox_scale_range": [0.9]}}, "expected a list of 2 items"),
    ({"generator": {"tokens_per_doc": [14, "20"]}}, "expected int, got '20'"),
], ids=["seed-str", "seed-bool", "model-int", "train-int", "generator-list",
        "paths-int", "hidden-str", "features-str", "lr-str", "epochs-bool",
        "short-tuple", "tuple-item-str"])
def test_mistyped_spec_field_exits_3(tmp_path, capsys, override, message):
    spec = write_spec(tmp_path, **override)
    assert cli.main(["params", "--spec", str(spec)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("model, message", [
    ({"heads": 0}, "heads must be >= 1"),
    ({"hidden": 0}, "hidden must be >= 1"),
    ({"layers": 0}, "layers must be >= 1"),
    ({"ff_dim": 0}, "ff_dim must be >= 1"),
    ({"hidden": 16, "heads": 3}, "must be divisible by heads"),
], ids=["heads-0", "hidden-0", "layers-0", "ff_dim-0", "indivisible"])
def test_encoder_sizes_checked_before_use_exit_4(tmp_path, capsys, model,
                                                  message):
    spec = write_spec(tmp_path, model=model)
    assert cli.main(["params", "--spec", str(spec)]) == 4
    assert message in capsys.readouterr().err


def test_train_metrics_shape_and_determinism(tmp_path):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    assert cli.main(["train", "--spec", str(spec)]) == 0
    metrics_path = tmp_path / "out" / "metrics.json"
    first = metrics_path.read_bytes()
    metrics = json.loads(first)
    assert set(metrics) >= {"per_fold", "mean", "std", "per_class", "params",
                            "manifest"}
    assert len(metrics["per_fold"]) == 3
    assert metrics["mean"] == pytest.approx(np.mean(metrics["per_fold"]))
    for f in range(3):
        assert (tmp_path / "out" / f"fold{f}.ckpt").exists()
        assert (tmp_path / "out" / f"fold{f}.vocab.json").exists()
    assert cli.main(["train", "--spec", str(spec)]) == 0
    assert metrics_path.read_bytes() == first


def test_train_corrupt_corpus_exits_3(tmp_path):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    corpus = tmp_path / "out" / "corpus.jsonl"
    corpus.write_text(corpus.read_text().replace('"bbox":[30.0', '"bbox":[9e9',
                                                 1))
    assert cli.main(["train", "--spec", str(spec)]) == 3


def test_eval_reproduces_stored_val_f1(tmp_path):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    fold0 = metrics["folds"][0]
    docs = parse_documents((tmp_path / "out" / "corpus.jsonl").read_bytes())
    val_docs = [d for d in docs if d.id in set(fold0["val"])]
    val_corpus = tmp_path / "val.jsonl"
    val_corpus.write_bytes(serialize_documents(val_docs))
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(tmp_path / "out" / "fold0.ckpt"),
                     "--corpus", str(val_corpus)]) == 0
    report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    assert report["report"]["weighted_f1"] == pytest.approx(
        fold0["best_val_f1"], abs=1e-12)
    preds = (tmp_path / "out" / "predictions.jsonl").read_text().splitlines()
    assert len(preds) == len(val_docs)
    assert all("pred_label" in json.loads(line)["tokens"][0] for line in preds)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_non_finite_loss_exits_4(tmp_path, capsys):
    spec = write_spec(tmp_path, train={"lr": 1e100})
    cli.main(["generate", "--spec", str(spec)])
    assert cli.main(["train", "--spec", str(spec)]) == 4
    assert "training loss is nan" in capsys.readouterr().err


def test_eval_encodes_with_the_checkpoint_not_the_spec(tmp_path):
    """Editing the spec's bucketing and chunking after training leaves the
    predictions unchanged: eval encodes as the checkpoint was trained."""
    trained = {"lr": 0.02, "epochs": 10}     # enough to tag some entities
    spec = write_spec(tmp_path, train=trained, generator={"n_docs": 15})
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    out = tmp_path / "out"
    ckpt = str(out / "fold0.ckpt")
    assert cli.main(["eval", "--spec", str(spec), "--checkpoint", ckpt]) == 0
    want = (out / "predictions.jsonl").read_bytes()
    assert b'"pred_label":"B-' in want
    edited = write_spec(
        tmp_path, train={**trained, "max_seq_len": 6, "chunk_overlap": 2},
        bucketing={"font_top_k": 1, "black_max_channel": 1,
                   "fontsize_cluster_bounds": [0.5, 0.9]},
        generator={"n_docs": 15})
    (out / "predictions.jsonl").unlink()
    assert cli.main(["eval", "--spec", str(edited), "--checkpoint", ckpt]) == 0
    assert (out / "predictions.jsonl").read_bytes() == want


def test_checkpoint_without_its_bucketing_exits_4(tmp_path, capsys):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    path = tmp_path / "out" / "fold0.ckpt"
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    del header["config"]["bucketing"]
    path.write_bytes(json.dumps(header).encode() + blob[nl:])
    for command in ("eval", "ablate"):
        assert cli.main([command, "--spec", str(spec),
                         "--checkpoint", str(path)]) == 4
        assert "bucketing" in capsys.readouterr().err


def test_non_finite_checkpoint_exits_4(tmp_path, capsys):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    path = tmp_path / "out" / "fold0.ckpt"
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    path.write_bytes(blob[:nl + 1]
                     + np.full((len(blob) - nl - 1) // 8, np.nan).tobytes())
    for command in ("eval", "ablate"):
        assert cli.main([command, "--spec", str(spec),
                         "--checkpoint", str(path)]) == 4
        assert "non-finite values" in capsys.readouterr().err


def test_eval_config_mismatch_exits_4(tmp_path):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    other = write_spec(tmp_path, model={"fusion": "BASELINE"})
    assert cli.main(["eval", "--spec", str(other),
                     "--checkpoint", str(tmp_path / "out" / "fold0.ckpt")]) == 4


def test_ablate_baseline_checkpoint_exits_5(tmp_path):
    spec = write_spec(tmp_path, model={"fusion": "BASELINE"})
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    rc = cli.main(["ablate", "--spec", str(spec),
                   "--checkpoint", str(tmp_path / "out" / "fold0.ckpt")])
    assert rc == 5


def test_ablate_all_features(tmp_path):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    assert cli.main(["ablate", "--spec", str(spec),
                     "--checkpoint", str(tmp_path / "out" / "fold0.ckpt"),
                     "--repeats", "2"]) == 0
    report = json.loads((tmp_path / "out" / "ablation.json").read_text())
    assert [r["feature"] for r in report["importance"]] == \
        ["bold", "font", "fontSize", "inTable", "color"]
    rerun = json.loads((tmp_path / "out" / "ablation.json").read_text())
    assert rerun == report


def test_params_reports_published_ratios(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert cli.main(["params", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "44.28%" in out
    assert "30.69%" in out
    assert "+0.012%" in out
    # full-scale ordering: baseline < concat < sum < image
    lines = [l for l in out.splitlines() if l.startswith("total")]
    totals = [int(x.replace(",", "")) for x in lines[1].split()[1:]]
    assert totals == sorted(totals)


def test_eval_on_all_o_corpus_reports_zero(tmp_path):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    docs = parse_documents((tmp_path / "out" / "corpus.jsonl").read_bytes())
    for doc in docs:
        for tok in doc.tokens:
            tok.label = "O"
    allo = tmp_path / "allo.jsonl"
    allo.write_bytes(serialize_documents(docs[:3]))
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(tmp_path / "out" / "fold0.ckpt"),
                     "--corpus", str(allo)]) == 0
    report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    assert report["report"]["weighted_f1"] == 0.0


def test_train_non_utf8_corpus_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    corpus = tmp_path / "out" / "corpus.jsonl"
    corpus.write_bytes(b"\x80" + corpus.read_bytes())
    assert cli.main(["train", "--spec", str(spec)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_train_duplicate_document_id_exits_3(tmp_path):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    corpus = tmp_path / "out" / "corpus.jsonl"
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join(lines + lines[:1]) + "\n")
    assert cli.main(["train", "--spec", str(spec)]) == 3
