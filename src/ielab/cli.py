"""Command-line orchestration: generate | train | eval | ablate | params.

Every command takes --spec <path> (a single JSON experiment file) plus an
optional --out <dir> override; all outputs embed a run manifest (spec hash +
package version) and are byte-deterministic for a fixed spec.

Exit codes: 0 success, 2 I/O, 3 data validation, 4 config/checkpoint
mismatch, 5 contract misuse.

`train` writes one checkpoint per fold, `fold<k>.ckpt` (layout in
tensorcore.checkpoint). Its config object holds `spec` (the model's
TaggerSpec), `vocabularies`, `bucketing` and `train` (the encoding and
chunking the fold was trained with, which eval and ablate reuse), `fold`,
`best_epoch`, `best_val_f1`, `val_doc_ids` and `manifest`. Only this module
writes and reads these keys; a checkpoint missing one of the first four, or
holding one that does not decode, exits 4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ielab
from ielab import pgm, synthdocs
from ielab.docstream import (
    STYLE_FEATURES,
    BucketingConfig,
    DocumentRecord,
    Vocabularies,
    encode_document,
    parse_documents,
    serialize_documents,
)
from ielab.errors import (
    CheckpointMismatchError,
    ConfigError,
    ContractError,
    DataValidationError,
)
from ielab.evalsuite import parameter_report
from ielab.jsonconfig import JsonConfig, decode, parse_json
from ielab.stylefuse import FusionMode, ImagePathConfig, TaggerSpec, TokenTagger
from ielab.stylefuse.model import check_page_fits_in_memory
from ielab.tensorcore import NumericError, load_checkpoint, save_checkpoint
from ielab.trainloop import (
    TrainConfig,
    cross_validate,
    permutation_importance,
    score_documents,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_DATA = 3
EXIT_CONFIG = 4
EXIT_CONTRACT = 5


@dataclass
class ExperimentSpec:
    seed: int
    paths: dict
    model: TaggerSpec
    train: TrainConfig
    bucketing: BucketingConfig
    generator: synthdocs.GeneratorConfig | None
    spec_hash: str

    @property
    def output_dir(self) -> Path:
        return Path(self.paths.get("output", "."))


def _section(obj: dict, key: str) -> dict:
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise DataValidationError(
            f"spec section {key!r} must be a JSON object, got {value!r}")
    return dict(value)


# the position table's length is the training window, `train.max_seq_len`
_ENCODER_KEYS = ("hidden", "layers", "heads", "ff_dim", "init_std")


def load_spec(path: str | Path, out_override: str | None = None) -> ExperimentSpec:
    return parse_spec(Path(path).read_bytes(), path, out_override)


def parse_spec(raw: bytes, path: str | Path = "spec",
               out_override: str | None = None) -> ExperimentSpec:
    """The experiment spec that the JSON bytes `raw` (read from `path`)
    encode; DataValidationError or ConfigError if they encode none."""
    obj = parse_json(raw, f"{path}: spec is not valid JSON")
    if not isinstance(obj, dict):
        raise DataValidationError(f"{path}: spec must be a JSON object")
    if "seed" not in obj:
        raise DataValidationError(f"{path}: spec must set a seed")
    try:
        seed = decode(int, obj["seed"])
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: seed: {exc}") from None
    paths = _section(obj, "paths")
    if not all(isinstance(v, str) for v in paths.values()):
        raise DataValidationError(f"{path}: spec paths must be strings")
    if out_override:
        paths["output"] = out_override

    m = _section(obj, "model")
    unknown = set(m) - {"fusion", "image", "style_dim", "style_features",
                        *_ENCODER_KEYS}
    if unknown:
        raise DataValidationError(f"unknown model keys: {sorted(unknown)}")
    fusion = decode(FusionMode, m.pop("fusion", "BASELINE"))
    image = m.pop("image", None) or \
        ({} if fusion is FusionMode.IMAGE else None)
    encoder = {"word_vocab": 2, "label_count": 1, "seed": seed,
               **{k: m.pop(k) for k in _ENCODER_KEYS if k in m}}
    model = TaggerSpec.from_json({"encoder": encoder, "fusion": fusion.value,
                                  "image": image, **m})

    train_obj = _section(obj, "train")
    train_obj.setdefault("seed", seed)
    train = TrainConfig.from_json(train_obj)
    bucketing = BucketingConfig.from_json(obj.get("bucketing", {}))
    gen = None
    if obj.get("generator") is not None:
        gen_obj = _section(obj, "generator")
        gen_obj.setdefault("seed", seed)
        gen = synthdocs.GeneratorConfig.from_json(gen_obj)
    return ExperimentSpec(seed=seed, paths=paths, model=model, train=train,
                          bucketing=bucketing, generator=gen,
                          spec_hash=hashlib.sha256(raw).hexdigest())


def _manifest(spec: ExperimentSpec) -> dict:
    return {"spec_sha256": spec.spec_hash, "ielab_version": ielab.__version__}


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _load_corpus(spec: ExperimentSpec,
                 corpus_path: str | None = None) -> list[DocumentRecord]:
    """The corpus at `corpus_path`, by default the spec's paths.corpus."""
    corpus_path = corpus_path or spec.paths.get("corpus")
    if not corpus_path:
        raise FileNotFoundError("spec.paths.corpus is not set")
    docs = parse_documents(Path(corpus_path).read_bytes())
    if not docs:
        raise DataValidationError(f"{corpus_path}: corpus has no documents")
    return docs


def _load_rasters(spec: ExperimentSpec, model: TaggerSpec,
                  docs) -> dict | None:
    """The pages at spec.paths.rasters of each document, if `model` reads
    pages; each must be as large as `model` reads them."""
    if model.fusion is not FusionMode.IMAGE:
        return None
    raster_dir = spec.paths.get("rasters")
    if not raster_dir:
        raise FileNotFoundError("IMAGE fusion needs spec.paths.rasters")
    size = model.image.raster_size
    rasters = {}
    for doc in docs:
        pages = []
        for k in range(len(doc.pages)):
            p = Path(raster_dir) / f"{doc.id}.page{k}.pgm"
            grid = pgm.read_pgm(p)
            if grid.shape != (size, size):
                raise DataValidationError(
                    f"{p}: page is {grid.shape[1]}x{grid.shape[0]} pixels, "
                    f"but the model's image.raster_size is {size}")
            pages.append(pgm.raster_to_input(grid))
        rasters[doc.id] = pages
    return rasters


def cmd_generate(spec: ExperimentSpec) -> int:
    if spec.generator is None:
        raise DataValidationError("spec has no generator section")
    size = (spec.model.image or ImagePathConfig()).raster_size
    check_page_fits_in_memory(size)
    out = spec.output_dir
    if not out.is_dir():
        raise FileNotFoundError(f"output directory {out} does not exist")
    docs = synthdocs.generate_corpus(spec.generator)
    (out / "corpus.jsonl").write_bytes(serialize_documents(docs))
    raster_dir = out / "rasters"
    raster_dir.mkdir(exist_ok=True)
    for doc in docs:
        for k, page in enumerate(synthdocs.render_pages(doc, size)):
            pgm.write_pgm(raster_dir / f"{doc.id}.page{k}.pgm", page.grid)
    summary = synthdocs.corpus_summary(docs, spec.generator)
    summary["manifest"] = _manifest(spec)
    _write_json(out / "summary.json", summary)
    print(f"wrote {len(docs)} documents to {out / 'corpus.jsonl'}")
    return EXIT_OK


def cmd_train(spec: ExperimentSpec) -> int:
    docs = _load_corpus(spec)
    rasters = _load_rasters(spec, spec.model, docs)
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = cross_validate(docs, spec.model, spec.train, spec.bucketing,
                            rasters=rasters)
    metrics = result.to_metrics_json()
    metrics["manifest"] = _manifest(spec)
    _write_json(out / "metrics.json", metrics)
    for f, fold_res in enumerate(result.fold_results):
        vocabs = fold_res.vocabs.to_json()
        save_checkpoint(out / f"fold{f}.ckpt", {
            "spec": fold_res.model.spec.to_json(), "vocabularies": vocabs,
            "bucketing": spec.bucketing.to_json(),
            "train": spec.train.to_json(), "fold": f,
            "best_epoch": fold_res.best_epoch,
            "best_val_f1": fold_res.best_val_f1,
            "val_doc_ids": result.folds[f]["val"],
            "manifest": _manifest(spec)}, fold_res.model.parameters())
        _write_json(out / f"fold{f}.vocab.json", vocabs)
    print(f"mean weighted F1 {result.mean:.4f} +/- {result.std:.4f} over "
          f"{spec.train.folds} folds; params {result.params}")
    return EXIT_OK


def _stored(path, config: dict, key: str, kind: type[JsonConfig]):
    """The checkpoint config's `key`, decoded as `kind`."""
    if key not in config:
        raise CheckpointMismatchError(
            f"{path}: the checkpoint {key} is missing; retrain to store it")
    try:
        return kind.from_json(config[key])
    except (ConfigError, DataValidationError) as exc:
        raise CheckpointMismatchError(
            f"{path}: unreadable checkpoint {key}: {exc}; retrain to "
            "rewrite it") from None


def _load_checkpoint_model(spec: ExperimentSpec, path) -> tuple[
        TokenTagger, Vocabularies, BucketingConfig, TrainConfig]:
    """The model with the vocabularies, bucketing and chunking (`train`) it
    was trained with; eval encodes with these, not with the spec's."""
    config, arrays = load_checkpoint(path)
    stored_spec, vocabs, bucketing, train = (
        _stored(path, config, key, kind) for key, kind in (
            ("spec", TaggerSpec), ("vocabularies", Vocabularies),
            ("bucketing", BucketingConfig), ("train", TrainConfig)))
    model = TokenTagger.from_arrays(stored_spec, arrays)
    if stored_spec.fusion is not spec.model.fusion:
        raise CheckpointMismatchError(
            f"checkpoint fusion {stored_spec.fusion.value} does not match "
            f"spec fusion {spec.model.fusion.value}")
    stored, wanted = stored_spec.encoder, spec.model.encoder
    if (stored.hidden, stored.layers, stored.heads) \
            != (wanted.hidden, wanted.layers, wanted.heads):
        # heads shape no parameter, so only the spec can catch them
        raise CheckpointMismatchError(
            "checkpoint encoder dimensions do not match the spec")
    if train.max_seq_len != stored.max_seq_len:
        raise CheckpointMismatchError(
            f"{path}: checkpoint chunk window train.max_seq_len "
            f"{train.max_seq_len} differs from its model's window "
            f"{stored.max_seq_len}")
    _check_vocabularies(path, vocabs, stored_spec)
    return model, vocabs, bucketing, train


def _check_vocabularies(path, vocabs: Vocabularies, spec: TaggerSpec) -> None:
    """Each vocabulary numbers exactly the rows of the table it indexes."""
    enc = spec.encoder
    fonts = sorted(vocabs.style.font_index.values())
    if sorted(vocabs.word.index.values()) != list(range(2, enc.word_vocab)):
        problem = (f"word ids must be distinct and fill [2, {enc.word_vocab}),"
                   " the word table's rows beside PAD and UNK")
    elif sorted(vocabs.labels.values()) != list(range(enc.label_count)) \
            or "O" not in vocabs.labels:
        problem = (f"label ids must number 0..{enc.label_count - 1}, one per "
                   "head output, and include O")
    elif fonts != list(range(len(fonts))):
        problem = f"font ids must number 0..{len(fonts) - 1}"
    elif tuple(vocabs.style.size_list()) != tuple(spec.style_vocab_sizes):
        problem = (f"style sizes {vocabs.style.size_list()} differ from the "
                   f"model's {list(spec.style_vocab_sizes)}")
    else:
        return
    raise CheckpointMismatchError(
        f"{path}: checkpoint vocabularies do not fit its model: {problem}")


def cmd_eval(spec: ExperimentSpec, checkpoint: str,
             corpus_path: str | None) -> int:
    model, vocabs, bucketing, train = _load_checkpoint_model(spec, checkpoint)
    docs = _load_corpus(spec, corpus_path)
    rasters = _load_rasters(spec, model.spec, docs)
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    enc_docs = [encode_document(d, vocabs, bucketing, strict_labels=False)
                for d in docs]
    gold = [[t.label for t in d.tokens] for d in docs]
    preds, report = score_documents(
        model, enc_docs, gold, train, vocabs.label_names(),
        [rasters[d.id] for d in docs] if rasters else None)
    lines = []
    for doc, tags in zip(docs, preds):
        obj = json.loads(serialize_documents([doc]).decode("utf-8"))
        for tok, tag in zip(obj["tokens"], tags):
            tok["pred_label"] = tag
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    (out / "predictions.jsonl").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    no_gold = not any(s.support for s in report.per_class.values())
    report_obj = {"report": report.to_json(), "manifest": _manifest(spec),
                  "documents": len(docs),
                  "note": "no gold entities in corpus" if no_gold else ""}
    _write_json(out / "eval_report.json", report_obj)
    print(f"weighted F1 {report.weighted_f1:.4f} on {len(docs)} documents")
    return EXIT_OK


def cmd_ablate(spec: ExperimentSpec, checkpoint: str, features: list[str],
               repeats: int = 5) -> int:
    if repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {repeats}")
    if not features or len(set(features)) < len(features) \
            or not set(features) <= set(STYLE_FEATURES):
        raise ConfigError(f"--features must name distinct style features "
                          f"of {list(STYLE_FEATURES)}, got {features}")
    model, vocabs, bucketing, train = _load_checkpoint_model(spec, checkpoint)
    docs = _load_corpus(spec)
    enc_docs = [encode_document(d, vocabs, bucketing, strict_labels=False)
                for d in docs]
    gold = [[t.label for t in d.tokens] for d in docs]
    results = permutation_importance(
        model, enc_docs, gold, vocabs.label_names(), features, train,
        repeats, np.random.default_rng([spec.seed, 77]))
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for res in results:
        print(f"{res['feature']:10s} delta F1 {res['delta_mean']:+.4f} "
              f"+/- {res['delta_std']:.4f}")
    _write_json(out / "ablation.json",
                {"importance": results, "repeats": repeats,
                 "manifest": _manifest(spec)})
    return EXIT_OK


def cmd_params(spec: ExperimentSpec) -> int:
    print(parameter_report(spec.model, spec.bucketing.font_top_k,
                           spec.train.max_seq_len))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ielab",
        description="token-representation experiments on styled documents")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("generate", "write a synthetic corpus + rasters"),
                       ("train", "cross-validate a model on a corpus"),
                       ("eval", "score a checkpoint on a corpus"),
                       ("ablate", "permutation feature importance"),
                       ("params", "parameter accounting tables")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--spec", required=True, help="experiment spec JSON")
        p.add_argument("--out", help="output directory override")
        if name in ("eval", "ablate"):
            p.add_argument("--checkpoint", required=True)
        if name == "eval":
            p.add_argument("--corpus", help="corpus override (default: spec)")
        if name == "ablate":
            p.add_argument("--features", default=",".join(STYLE_FEATURES),
                           help="comma-separated style features")
            p.add_argument("--repeats", type=int, default=5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_spec(args.spec, args.out)
        if args.command == "generate":
            return cmd_generate(spec)
        if args.command == "train":
            return cmd_train(spec)
        if args.command == "eval":
            return cmd_eval(spec, args.checkpoint, args.corpus)
        if args.command == "ablate":
            return cmd_ablate(spec, args.checkpoint,
                              [f.strip() for f in args.features.split(",")
                               if f.strip()], args.repeats)
        if args.command == "params":
            return cmd_params(spec)
        raise ContractError(f"unknown command {args.command!r}")
    except (OSError, FileNotFoundError) as exc:
        print(f"ielab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataValidationError as exc:
        print(f"ielab: invalid data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CheckpointMismatchError, ConfigError) as exc:
        print(f"ielab: configuration mismatch: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"ielab: a non-finite value reached the model: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except ContractError as exc:
        print(f"ielab: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    raise SystemExit(main())
