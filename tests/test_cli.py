import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ielab import cli, pgm
from ielab.docstream import (
    MAX_WORDS,
    STYLE_FEATURES,
    BucketingConfig,
    ModelInput,
    parse_documents,
    serialize_documents,
    style_table_sizes,
)
from ielab.errors import ConfigError, DataValidationError
from ielab.layoutcore import EncoderConfig, init_parameters
from ielab.stylefuse import FusionMode, ImagePathConfig, TaggerSpec
from ielab.stylefuse.model import check_fits_in_memory, with_resolved_sizes
from ielab.synthdocs import GeneratorConfig, generate_corpus
from ielab.tensorcore import AdamState, NumericError, adam_step, parameter
from ielab.trainloop import TrainConfig, augment_bboxes, make_fold_plan


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


def test_deeply_nested_spec_exits_3(tmp_path, capsys):
    spec = tmp_path / "deep.json"
    spec.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    assert cli.main(["params", "--spec", str(spec)]) == 3
    assert "spec is not valid JSON: maximum recursion depth" in \
        capsys.readouterr().err


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


_SMALL_IMAGE = {"model": {"fusion": "IMAGE", "hidden": 8, "layers": 1,
                          "heads": 2, "image": {"raster_size": 32,
                                                "backbone_channels": [4]}},
                "train": {"epochs": 1, "folds": 2},
                "generator": {"template": "TRADECONF", "n_docs": 4,
                              "tokens_per_doc": [14, 20]}}


def test_generate_renders_at_the_spec_raster_size(tmp_path):
    spec = write_spec(tmp_path, **_SMALL_IMAGE)
    assert cli.main(["generate", "--spec", str(spec)]) == 0
    pages = sorted((tmp_path / "out" / "rasters").glob("*.pgm"))
    assert pages and all(pgm.read_pgm(p).shape == (32, 32) for p in pages)
    assert cli.main(["train", "--spec", str(spec)]) == 0


def test_corpus_pages_load_as_uint8_grids(tmp_path):
    """Train and eval hold each page as its H*W pixel bytes."""
    spec_path = write_spec(tmp_path, **_SMALL_IMAGE)
    assert cli.main(["generate", "--spec", str(spec_path)]) == 0
    spec = cli.load_spec(spec_path)
    docs = cli._load_corpus(spec)
    rasters = cli._load_rasters(spec, spec.model, docs)
    pages = [p for d in docs for p in rasters[d.id]]
    assert len(pages) == sum(len(d.pages) for d in docs)
    assert all(p.dtype == np.uint8 and p.shape == (1, 32, 32)
               and p.nbytes == 32 * 32 for p in pages)


@pytest.mark.parametrize("page", [
    b"P5\nab 2\n255\n" + bytes(64),
    b"P5\n2 2\n2.5\n" + bytes(4),
    b"P5\n-2 -2\n255\n" + bytes(4),
    b"P5\n0 0\n255\n" + bytes(4),
    b"P5\n16 16\n255\n" + bytes(256),
], ids=["non-integer-width", "non-integer-maxval", "negative-size",
        "empty-page", "off-size-page"])
def test_malformed_page_raster_exits_3(tmp_path, capsys, page):
    spec = write_spec(tmp_path, **_SMALL_IMAGE)
    assert cli.main(["generate", "--spec", str(spec)]) == 0
    bad = sorted((tmp_path / "out" / "rasters").glob("*.pgm"))[0]
    bad.write_bytes(page)
    assert cli.main(["train", "--spec", str(spec)]) == 3
    assert bad.name in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    """paired_t_test computes its p from scipy.special, so no command pays
    for importing scipy.stats."""
    code = "import sys, ielab.cli; print('scipy.stats' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", [
    "ielab.tensorcore", "ielab.layoutcore", "ielab.stylefuse",
    "ielab.evalsuite", "ielab.trainloop", "ielab.cli"])
def test_each_package_imports_first_in_a_fresh_interpreter(module):
    """No import cycle: whichever of these a process imports first, the
    import succeeds."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", f"import {module}"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr


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


def test_eval_reads_pages_at_the_checkpoint_raster_size(tmp_path, capsys):
    """A checkpoint trained on 32-pixel pages reads 32-pixel pages whatever
    the spec's raster_size; 16-pixel pages exit 3."""
    spec = write_spec(tmp_path, **_SMALL_IMAGE)
    assert cli.main(["generate", "--spec", str(spec)]) == 0
    assert cli.main(["train", "--spec", str(spec)]) == 0
    ckpt = str(tmp_path / "out" / "fold0.ckpt")
    edited = write_spec(tmp_path, **{**_SMALL_IMAGE, "model": {
        **_SMALL_IMAGE["model"], "image": {"raster_size": 16,
                                           "backbone_channels": [4]}}})
    assert cli.main(["eval", "--spec", str(edited), "--checkpoint", ckpt]) == 0
    assert cli.main(["generate", "--spec", str(edited)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--spec", str(edited), "--checkpoint", ckpt]) == 3
    assert "image.raster_size is 32" in capsys.readouterr().err


def test_deeply_nested_checkpoint_header_exits_4(tmp_path, capsys):
    spec = write_spec(tmp_path)
    path = tmp_path / "deep.ckpt"
    path.write_bytes(b"[" * 200_000 + b"]" * 200_000 + b"\n")
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(path)]) == 4
    assert "unreadable header: maximum recursion depth" in \
        capsys.readouterr().err


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


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A spec and the bytes of its trained fold-0 STYLE_CONCAT checkpoint,
    trained long enough to tag some entities."""
    tmp_path = tmp_path_factory.mktemp("trained")
    spec = write_spec(tmp_path, train={"lr": 0.02, "epochs": 10},
                      generator={"n_docs": 15})
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    return spec, (tmp_path / "out" / "fold0.ckpt").read_bytes()


def _edited(blob: bytes, edit) -> bytes:
    """Checkpoint `blob` with `edit` applied to its header config."""
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    edit(header["config"])
    return json.dumps(header).encode() + blob[nl:]


def _renumber(mapping: dict, old: int, new: int) -> None:
    """Give the entry numbered `old` the number `new`."""
    mapping[next(k for k, i in mapping.items() if i == old)] = new


@pytest.mark.parametrize("edit", [
    lambda v: _renumber(v["word"]["index"], 2, -1),
    lambda v: _renumber(v["word"]["index"], 2, 10 ** 6),
    lambda v: _renumber(v["word"]["index"], 3, 2),
    lambda v: v["labels"].pop("O"),
    lambda v: _renumber(v["labels"], 0, 99),
    lambda v: _renumber(v["style"]["font_index"], 0, 99),
    lambda v: v["style"]["font_index"].update(
        NotTrainedOn=len(v["style"]["font_index"]))],
    ids=["word-id-negative", "word-id-past-table", "word-id-repeated",
         "label-O-deleted", "label-O-past-head", "font-id-past-table",
         "font-added"])
def test_checkpoint_vocabularies_checked_against_its_model_exit_4(
        trained_checkpoint, tmp_path, capsys, edit):
    """One edited vocabulary entry ends in exit 4 before anything is
    encoded, not in an IndexError, a KeyError or silently wrong tags."""
    spec, blob = trained_checkpoint
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_edited(blob, lambda c: edit(c["vocabularies"])))
    capsys.readouterr()
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(path)]) == 4
    assert "vocabularies do not fit its model" in capsys.readouterr().err


def _parent_format(v: dict) -> None:
    """The older vocabulary form: derived feature order, sizes and PAD/UNK
    ids beside the maps."""
    v["style"].update(feature_order=list(STYLE_FEATURES), sizes=dict(zip(
        STYLE_FEATURES, style_table_sizes(len(v["style"]["font_index"])))))
    v["word"].update(pad_id=0, unk_id=1)


@pytest.mark.parametrize("edit, message", [
    (lambda v: _renumber(v["word"]["index"], 3, "3"),
     "WordVocabulary.index: expected int, got '3'"),
    (_parent_format, "unknown StyleVocabulary keys: ['feature_order', "
                     "'sizes']"),
    (lambda v: v["word"].update(pad_id=0, unk_id=1),
     "unknown WordVocabulary keys: ['pad_id', 'unk_id']")],
    ids=["word-id-a-string", "parent-format", "parent-format-word"])
def test_unreadable_checkpoint_vocabularies_exit_4(
        trained_checkpoint, tmp_path, capsys, edit, message):
    """Vocabulary ids decode as ints, not coerced from strings, and keys
    outside the vocabulary form are named: a checkpoint written in the older
    form with derived keys ends in exit 4, not in a traceback."""
    spec, blob = trained_checkpoint
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_edited(blob, lambda c: edit(c["vocabularies"])))
    capsys.readouterr()
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert "unreadable checkpoint vocabularies" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scale", [2, 0.5], ids=["doubled", "halved"])
def test_checkpoint_chunk_window_must_match_its_model_exit_4(
        trained_checkpoint, tmp_path, capsys, scale):
    """Eval chunks at the stored train.max_seq_len. A window longer than the
    model's position table would end in exit 5 on a long document, a
    shorter one in silently moved probabilities; both exit 4."""
    spec, blob = trained_checkpoint
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_edited(blob, lambda c: c["train"].update(
        max_seq_len=int(c["train"]["max_seq_len"] * scale))))
    capsys.readouterr()
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(path)]) == 4
    assert "differs from its model's window" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(style_dim=s["style_dim"] + 1), "does not match"),
    (lambda s: s["encoder"].update(ff_dim=8 * s["encoder"]["hidden"]),
     "does not match"),     # twice the default 4 * hidden
    (lambda s: s["encoder"].update(
        max_seq_len=s["encoder"]["max_seq_len"] * 2), "does not match"),
    (lambda s: s["encoder"].update(layers=2), "names do not match")],
    ids=["style-dim", "ff-dim", "max-seq-len", "layers"])
def test_checkpoint_shapes_checked_against_its_spec_exit_4(
        trained_checkpoint, tmp_path, capsys, edit, message):
    """A spec edited to sizes its parameters do not have ends in exit 4
    before the model is built: a changed width at the first tensor whose
    shape differs, a changed layer count at the parameter names."""
    spec, blob = trained_checkpoint
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_edited(blob, lambda c: edit(c["spec"])))
    capsys.readouterr()
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(path)]) == 4
    assert f"{message} the model" in capsys.readouterr().err


@pytest.mark.parametrize("encoder", [{"layers": 10 ** 30},
                                     {"ff_dim": 10 ** 15}],
                         ids=["layers", "ff_dim"])
def test_checkpoint_spec_larger_than_memory_exits_4(
        trained_checkpoint, tmp_path, encoder):
    """A stored spec whose parameters exceed any machine's memory (10**30
    layers; 10**15 ff units, over 200 PiB) is refused before its layers are
    listed or its tensors allocated. Eval runs in a child with a timeout
    and capped memory, so a hang or an allocation fails the test."""
    spec, blob = trained_checkpoint
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_edited(blob, lambda c: c["spec"]["encoder"].update(
        encoder)))
    out = _limited_main(["eval", "--spec", str(spec), "--checkpoint",
                         str(path)])
    assert out.returncode == 4, out.stderr[-2000:]
    assert "GiB of memory" in out.stderr


@pytest.mark.parametrize("edit", [
    lambda c: c.pop("spec"),
    lambda c: c["spec"].update(style_dim="x"),
    lambda c: c["spec"].update(fusion="NOPE"),
    lambda c: c["spec"]["encoder"].update(hidden=None),
    lambda c: c.update(spec=[c["spec"]])],
    ids=["spec-missing", "style-dim-string", "fusion-unknown", "hidden-null",
         "spec-a-list"])
def test_missing_or_mistyped_checkpoint_spec_exits_4(
        trained_checkpoint, tmp_path, capsys, edit):
    """A checkpoint whose stored spec is missing or mistyped ends in exit 4,
    as every other checkpoint defect does, not in a KeyError traceback or
    in the exit 3 of a malformed corpus."""
    spec, blob = trained_checkpoint
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_edited(blob, edit))
    capsys.readouterr()
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(path)]) == 4
    assert "checkpoint spec" in capsys.readouterr().err


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


def test_eval_without_a_corpus_exits_2(tmp_path, capsys):
    """No --corpus and no paths.corpus: an i/o error, not a KeyError."""
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    obj = json.loads(spec.read_text())
    del obj["paths"]["corpus"]
    spec.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["eval", "--spec", str(spec),
                     "--checkpoint", str(tmp_path / "out" / "fold0.ckpt")]) == 2
    assert "spec.paths.corpus is not set" in capsys.readouterr().err


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_ablate_repeats_below_one_exit_4_before_loading(tmp_path, capsys,
                                                          repeats):
    """Refused before the (here missing) checkpoint is read, so no NaN
    reaches ablation.json."""
    spec = write_spec(tmp_path)
    assert cli.main(["ablate", "--spec", str(spec),
                     "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--repeats", repeats]) == 4
    assert f"--repeats must be >= 1, got {repeats}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ablation.json").exists()


@pytest.mark.parametrize("features", ["", "bold,bold", "bold,italic"])
def test_ablate_features_must_name_distinct_style_features_exit_4(
        tmp_path, capsys, features):
    """Refused before the (here missing) checkpoint is read."""
    spec = write_spec(tmp_path)
    assert cli.main(["ablate", "--spec", str(spec),
                     "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--features", features]) == 4
    assert "--features must name distinct style features" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_empty_corpus_exits_3(tmp_path, capsys, command):
    spec = write_spec(tmp_path)
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    (tmp_path / "out" / "corpus.jsonl").write_bytes(b"\n")
    capsys.readouterr()
    assert cli.main([command, "--spec", str(spec),
                     "--checkpoint", str(tmp_path / "out" / "fold0.ckpt")]) == 3
    assert "corpus has no documents" in capsys.readouterr().err


def test_ablate_baseline_checkpoint_exits_5(tmp_path):
    spec = write_spec(tmp_path, model={"fusion": "BASELINE"})
    cli.main(["generate", "--spec", str(spec)])
    cli.main(["train", "--spec", str(spec)])
    rc = cli.main(["ablate", "--spec", str(spec),
                   "--checkpoint", str(tmp_path / "out" / "fold0.ckpt")])
    assert rc == 5
    assert not (tmp_path / "out" / "ablation.json").exists()


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


def test_params_delta_line_reads_its_own_sum_table(tmp_path, capsys):
    """The full-scale style-sum delta is that table's style.tables cell:
    only the listed features' tables."""
    spec = write_spec(tmp_path, model={"fusion": "STYLE_CONCAT",
                                       "style_features": ["bold", "inTable"]})
    assert cli.main(["params", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    tables = [l.split()[1:] for l in out.splitlines()
              if l.startswith("style.tables")][1]
    assert tables[2] == "3,072"                   # (2 + 2) x 768
    assert "style-sum delta: +3,072 params = +0.003%" in out


def test_params_accounts_every_mode_for_a_spec_without_style_features(
        tmp_path, capsys):
    """A baseline spec that lists no style features still gets all four
    modes, the style ones with every feature, as if it listed them all."""
    outputs = []
    for model in ({"fusion": "BASELINE", "style_features": []},
                  {"fusion": "BASELINE"}):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "model": model}))
        assert cli.main(["params", "--spec", str(spec)]) == 0
        outputs.append(capsys.readouterr().out)
    headers = [l.split()[1:] for l in outputs[0].splitlines()
               if l.startswith("component")]
    assert headers == [["BASELINE", "STYLE_CONCAT", "STYLE_SUM", "IMAGE"]] * 2
    assert outputs[0] == outputs[1]


def test_style_features_out_of_canonical_order_exit_4(tmp_path, capsys):
    """Style features follow bold, font, fontSize, inTable, color: the
    order fixes the concatenated columns and the checkpoint's table order."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "model": {
        "fusion": "STYLE_CONCAT", "style_features": ["font", "bold"]}}))
    assert cli.main(["params", "--spec", str(spec)]) == 4
    assert "canonical order" in capsys.readouterr().err


def test_params_accounts_the_position_table_train_builds(tmp_path, capsys):
    """train_fold builds a train.max_seq_len x hidden position table, so
    `params` counts that one; the model section has no max_seq_len."""
    spec = write_spec(tmp_path, train={"max_seq_len": 64, "chunk_overlap": 16})
    assert cli.main(["params", "--spec", str(spec)]) == 0
    rows = [l.split()[1:] for l in capsys.readouterr().out.splitlines()
            if l.startswith("embeddings.pos1d")]
    assert rows == [["1,024"] * 4, ["393,216"] * 4]     # 64 x 16, 512 x 768
    spec = write_spec(tmp_path, model={"max_seq_len": 64})
    assert cli.main(["params", "--spec", str(spec)]) == 3
    assert "unknown model keys: ['max_seq_len']" in capsys.readouterr().err


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


@pytest.mark.parametrize("over, message", [
    ({"seed": -5}, "seed must be >= 0"),
    ({"generator": {"seed": -1}}, "generator seed must be >= 0"),
    ({"generator": {"filler_vocab": 0}}, "filler_vocab must be >= 1"),
    ({"train": {"seed": -1}}, "train seed must be >= 0"),
    # lr 0 would train nothing, -1 climb the loss, NaN fail at the first step
    ({"train": {"lr": 0}}, "lr must be finite and > 0"),
    ({"train": {"lr": -1}}, "lr must be finite and > 0"),
    ({"train": {"lr": float("nan")}}, "lr must be finite and > 0"),
    # a document's token budget is one draw of at most 2**32 values
    ({"generator": {"tokens_per_doc": [8, 2 ** 33]}},
     "tokens_per_doc [8, 8589934592] spans more than 2**32"),
], ids=["seed", "generator-seed", "filler-vocab", "train-seed", "lr-zero",
        "lr-negative", "lr-nan", "token-budget-span"])
def test_bad_generator_and_train_seeds_exit_4(tmp_path, capsys, over,
                                              message):
    spec = write_spec(tmp_path, **over)
    assert cli.main(["generate", "--spec", str(spec)]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("train, message", [
    ({"bbox_shift_max": -1}, "bbox_shift_max must lie in the quantized grid"),
    ({"bbox_scale_range": [0.95, float("nan")]},
     "bbox_scale_range must be finite"),
    ({"bbox_scale_range": [0.95, 1e400]}, "bbox_scale_range must be finite"),
], ids=["negative-shift", "nan-scale", "infinite-scale"])
def test_bad_augmentation_settings_exit_4(tmp_path, capsys, train, message):
    assert cli.main(["generate", "--spec", str(write_spec(tmp_path))]) == 0
    spec = write_spec(tmp_path, train=train)
    assert cli.main(["train", "--spec", str(spec)]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("model, message", [
    ({"fusion": "IMAGE", "image": {"backbone_channels": []}},
     "backbone_channels must be a non-empty list"),
    ({"fusion": "IMAGE", "image": {"backbone_channels": [8, 0]}},
     "backbone_channels must be a non-empty list"),
    ({"fusion": "IMAGE", "image": {"stride": 0}}, "stride must be >= 1"),
    ({"fusion": "IMAGE", "image": {"raster_size": 0}},
     "raster_size must be >= 1"),
    ({"fusion": "IMAGE", "image": {"raster_channels": 0}},
     "raster_channels must be 1"),
    ({"fusion": "IMAGE", "image": {"raster_channels": 3}},
     "raster_channels must be 1"),
    ({"style_dim": 0}, "style_dim must be >= 1"),
    ({"style_features": ["bold", "italic"]}, "unknown style features"),
    ({"init_std": -0.5}, "init_std must be finite and >= 0"),
], ids=["no-backbone", "zero-backbone-width", "stride-0", "raster-size-0",
        "raster-channels-0", "raster-channels-3", "style-dim-0",
        "unknown-style-feature", "negative-init-std"])
def test_image_and_style_widths_checked_before_use_exit_4(tmp_path, capsys,
                                                          model, message):
    spec = write_spec(tmp_path, model=model)
    assert cli.main(["params", "--spec", str(spec)]) == 4
    assert message in capsys.readouterr().err


# `ielab` in a child with 2 GiB of address space
_LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
from ielab.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


def _limited_main(argv: list[str]) -> subprocess.CompletedProcess:
    """`ielab argv` in a child with capped memory and a 60 s timeout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("model", [{"layers": 10 ** 30}, {"ff_dim": 10 ** 11}],
                         ids=["layers", "ff_dim"])
def test_model_larger_than_memory_exits_4(tmp_path, capsys, model):
    """Refused before anything is allocated. Training runs in a child with
    a timeout and capped memory, so listing all 10**30 layers, or
    allocating the tables, fails the test instead of hanging; `ielab
    params` still prints the counts."""
    assert cli.main(["generate", "--spec", str(write_spec(tmp_path))]) == 0
    spec = write_spec(tmp_path, model={"fusion": "BASELINE", **model})
    assert cli.main(["params", "--spec", str(spec)]) == 0
    assert "total" in capsys.readouterr().out
    out = _limited_main(["train", "--spec", str(spec)])
    assert out.returncode == 4, out.stderr[-2000:]
    assert "GiB of memory" in out.stderr


def test_page_larger_than_memory_exits_4(tmp_path):
    """One page's float64 ink map must fit in memory: generate refuses
    before it renders, and so does every IMAGE model's build. In a child
    with capped memory, so a page allocated anyway fails the test."""
    spec = write_spec(tmp_path, model={"fusion": "IMAGE",
                                       "image": {"raster_size": 10 ** 6}})
    out = _limited_main(["generate", "--spec", str(spec)])
    assert out.returncode == 4, out.stderr[-2000:]
    assert "ink map of a 1000000-pixel page needs 7.45e+03 GiB" in out.stderr
    with pytest.raises(ConfigError, match="shrink image.raster_size"):
        check_fits_in_memory(cli.load_spec(spec).model)


def test_numeric_error_exits_4(tmp_path, capsys, monkeypatch):
    def non_finite(spec):
        raise NumericError("softmax_rows input contains non-finite values")

    monkeypatch.setattr(cli, "cmd_params", non_finite)
    spec = write_spec(tmp_path)
    assert cli.main(["params", "--spec", str(spec)]) == 4
    assert "a non-finite value reached the model" in capsys.readouterr().err


_SPEC = {
    "seed": 21,
    "paths": {"corpus": "corpus.jsonl", "output": "out"},
    "model": {"fusion": "IMAGE", "hidden": 16, "layers": 1, "heads": 2,
              "style_dim": 4, "image": {"backbone_channels": [4, 8]}},
    "train": {"lr": 0.001, "epochs": 2, "folds": 3},
    "bucketing": {"font_top_k": 8},
    "generator": {"n_docs": 9, "tokens_per_doc": [14, 20]},
}
_SECTION_KEYS = {
    "spec": ["seed", "paths", "model", "train", "bucketing", "generator"],
    "paths": ["corpus", "rasters", "output"],
    "model": ["fusion", "image", "style_dim", "style_features",
              *cli._ENCODER_KEYS],
    "image": [f.name for f in dataclasses.fields(ImagePathConfig)],
    "train": [f.name for f in dataclasses.fields(TrainConfig)],
    "bucketing": [f.name for f in dataclasses.fields(BucketingConfig)],
    "generator": [f.name for f in dataclasses.fields(GeneratorConfig)],
}
_SMALL_INTS = st.integers(-2, 3)
_SPEC_VALUES = _SMALL_INTS | st.recursive(
    st.none() | st.booleans() | _SMALL_INTS | st.integers(-10**30, 10**30)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=6)


def _section_of(spec: dict, name: str) -> dict:
    if name == "spec":
        return spec
    if name == "image":
        return spec["model"]["image"]
    return spec[name]


def _use(spec: cli.ExperimentSpec) -> None:
    """Run what each section's values feed, at sizes that do not grow with
    them: parameter counts for every width, the memory check of the
    unshrunk model, a tiny encoder for its seed and init_std, a fold plan
    for the train seed, one Adam step downhill at the learning rate, box
    augmentation of a two-token input, a one-document corpus for the
    generator."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_params(spec)
    model = with_resolved_sizes(spec.model, MAX_WORDS, 13,
                                style_table_sizes(spec.bucketing.font_top_k))
    check_fits_in_memory(dataclasses.replace(model, encoder=dataclasses.replace(
        model.encoder, max_seq_len=spec.train.max_seq_len)))
    init_parameters(dataclasses.replace(spec.model.encoder, hidden=2, heads=1,
                                        layers=1, ff_dim=2, max_seq_len=2))
    make_fold_plan(["a", "b"], 2, spec.train.val_fraction, spec.train.seed)
    w = {"w": parameter(np.zeros(1))}
    adam_step(w, {"w": np.ones(1)}, AdamState(lr=spec.train.lr))
    assert w["w"].data[0] < 0
    two_tokens = ModelInput(
        word_ids=np.array([2, 3]),
        coord_ids=np.array([[0, 500]] * 2 + [[1000, 500]] * 2
                           + [[1000, 0]] * 2),
        style_ids=np.zeros((5, 2), dtype=np.int64),
        label_ids=np.zeros(2, dtype=np.int64),
        page_ids=np.zeros(2, dtype=np.int64))
    augment_bboxes(two_tokens, spec.train, np.random.default_rng(0))
    if spec.generator is not None:
        generate_corpus(dataclasses.replace(spec.generator, n_docs=1,
                                            tokens_per_doc=(8, 8)))


# a section and new values for 1-3 of its keys; "bogus" is an unknown key
_MUTATIONS = st.sampled_from(sorted(_SECTION_KEYS)).flatmap(
    lambda section: st.tuples(st.just(section), st.dictionaries(
        st.sampled_from(_SECTION_KEYS[section] + ["bogus"]), _SPEC_VALUES,
        min_size=1, max_size=3)))


@settings(max_examples=600, deadline=None)
@given(_MUTATIONS)
@example(("generator", {"seed": -1}))
@example(("generator", {"filler_vocab": 0}))
@example(("spec", {"seed": -5}))
@example(("image", {"backbone_channels": []}))
@example(("image", {"stride": 0}))
@example(("model", {"style_dim": 0}))
@example(("model", {"layers": 10 ** 30}))
@example(("model", {"ff_dim": 10 ** 11}))
@example(("image", {"raster_channels": 3}))
@example(("train", {"bbox_shift_max": -1}))
@example(("train", {"bbox_scale_range": [0.95, float("nan")]}))
@example(("train", {"bbox_scale_range": [0.95, 1e400]}))
@example(("train", {"lr": float("nan")}))
@example(("train", {"lr": 0}))
@example(("bucketing", {"font_top_k": 10 ** 30}))
def test_spec_fuzz_returns_or_rejects(mutation):
    """A mutated spec is rejected with an exit-coded error (3 or 4), or it
    loads and every value it sets can be used."""
    section, values = mutation
    spec = json.loads(json.dumps(_SPEC))
    _section_of(spec, section).update(values)
    try:
        _use(cli.parse_spec(json.dumps(spec).encode()))
    except (DataValidationError, ConfigError):
        pass


@pytest.fixture(scope="module")
def eval_edited(trained_checkpoint):
    """eval_edited(edit) -> (exit code, same): `ielab eval` of the trained
    checkpoint with `edit` applied to its header config, and whether it
    wrote the bytes the unedited checkpoint's eval writes."""
    spec, blob = trained_checkpoint
    out, path = spec.parent / "out", spec.parent / "fuzzed.ckpt"
    written = [out / "predictions.jsonl", out / "eval_report.json"]

    def run(edit):
        path.write_bytes(_edited(blob, edit))
        for p in written:
            p.unlink(missing_ok=True)
        code = cli.main(["eval", "--spec", str(spec), "--checkpoint", str(path)])
        return code, [p.read_bytes() for p in written if p.exists()]

    want = run(lambda config: None)
    assert want[0] == 0 and b'"pred_label":"B-' in want[1][0]

    def eval_edited(edit):
        code, got = run(edit)
        return code, got == want[1]

    return eval_edited


_DELETE = object()      # mutation value: remove the key
# the keys edited: the config's own, the stored spec's and its encoder's.
# Vocabularies, bucketing and train are replaced only whole: eval encodes
# with their fields by design, so an edited field may tag differently (two
# swapped label ids make a valid vocabulary; see also
# test_eval_encodes_with_the_checkpoint_not_the_spec).
_CKPT_KEYS = {
    "config": ["spec", "vocabularies", "bucketing", "train", "bogus"],
    "spec": [f.name for f in dataclasses.fields(TaggerSpec)] + ["bogus"],
    "encoder": [f.name for f in dataclasses.fields(EncoderConfig)] + ["bogus"],
}
_CKPT_VALUES = _SPEC_VALUES | st.just(_DELETE) | st.sampled_from(
    [10 ** 9, 1.5, float("nan"), *(m.value for m in FusionMode)]) \
    | st.lists(st.sampled_from(STYLE_FEATURES), max_size=5)
_CKPT_MUTATIONS = st.sampled_from(sorted(_CKPT_KEYS)).flatmap(
    lambda section: st.tuples(st.just(section), st.dictionaries(
        st.sampled_from(_CKPT_KEYS[section]), _CKPT_VALUES,
        min_size=1, max_size=2)))


def _mutate(config: dict, mutation) -> None:
    section, values = mutation
    target = {"config": config, "spec": config["spec"],
              "encoder": config["spec"]["encoder"]}[section]
    for key, value in values.items():
        if value is _DELETE:
            target.pop(key, None)
        else:
            target[key] = value


@settings(max_examples=300, deadline=None)
@given(_CKPT_MUTATIONS)
@example(("config", {"spec": _DELETE}))
@example(("config", {"spec": ["BASELINE"]}))
@example(("spec", {"style_dim": "x"}))
@example(("spec", {"fusion": "NOPE"}))
@example(("encoder", {"hidden": None}))
@example(("spec", {"style_dim": 10 ** 9}))
@example(("spec", {"style_features": list(reversed(STYLE_FEATURES))}))
@example(("spec", {"encoder": {}}))
@example(("encoder", {"heads": 1}))
def test_checkpoint_config_fuzz_exits_4_or_reproduces(eval_edited, mutation):
    """A checkpoint whose header config has 1-2 values replaced or deleted
    ends in exit 4, or in exit 0 with the unedited checkpoint's outputs."""
    code, same = eval_edited(lambda config: _mutate(config, mutation))
    assert code == 4 or (code == 0 and same)
