"""Command-line orchestration: generate | train | eval | ablate | params.

Every command takes --spec <path> (a single JSON experiment file) plus an
optional --out <dir> override; all outputs embed a run manifest (spec hash +
package version) and are byte-deterministic for a fixed spec.

Exit codes: 0 success, 2 I/O, 3 data validation, 4 config/checkpoint
mismatch, 5 contract misuse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import ielab
from ielab import pgm, synthdocs
from ielab.docstream import (
    BucketingConfig,
    DocumentRecord,
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
from ielab.evalsuite import (
    count_parameters,
    decode_iob,
    entity_scores,
    format_breakdowns,
    permutation_importance,
    style_sum_fullscale_delta,
    table1_consistency,
)
from ielab.jsonconfig import decode
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, ImagePathConfig, TaggerSpec, TokenTagger
from ielab.trainloop import TrainConfig, cross_validate, predict_tags
from ielab.docstream import Vocabularies, STYLE_FEATURES

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


_ENCODER_KEYS = ("hidden", "layers", "heads", "ff_dim", "max_seq_len",
                 "init_std")


def load_spec(path: str | Path, out_override: str | None = None) -> ExperimentSpec:
    raw = Path(path).read_bytes()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataValidationError(f"{path}: spec is not valid JSON: {exc}") from exc
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


def _load_corpus(spec: ExperimentSpec) -> list[DocumentRecord]:
    corpus_path = spec.paths.get("corpus")
    if not corpus_path:
        raise FileNotFoundError("spec.paths.corpus is not set")
    return parse_documents(Path(corpus_path).read_bytes())


def _load_rasters(spec: ExperimentSpec, docs) -> dict | None:
    if spec.model.fusion is not FusionMode.IMAGE:
        return None
    raster_dir = spec.paths.get("rasters")
    if not raster_dir:
        raise FileNotFoundError("IMAGE fusion needs spec.paths.rasters")
    rasters = {}
    for doc in docs:
        pages = []
        for k in range(len(doc.pages)):
            p = Path(raster_dir) / f"{doc.id}.page{k}.pgm"
            pages.append(pgm.raster_to_input(pgm.read_pgm(p)))
        rasters[doc.id] = pages
    return rasters


def cmd_generate(spec: ExperimentSpec) -> int:
    if spec.generator is None:
        raise DataValidationError("spec has no generator section")
    out = spec.output_dir
    if not out.is_dir():
        raise FileNotFoundError(f"output directory {out} does not exist")
    docs = synthdocs.generate_corpus(spec.generator)
    (out / "corpus.jsonl").write_bytes(serialize_documents(docs))
    raster_dir = out / "rasters"
    raster_dir.mkdir(exist_ok=True)
    for doc in docs:
        for k, page in enumerate(synthdocs.render_pages(doc)):
            pgm.write_pgm(raster_dir / f"{doc.id}.page{k}.pgm", page.grid)
    summary = synthdocs.corpus_summary(docs, spec.generator)
    summary["manifest"] = _manifest(spec)
    _write_json(out / "summary.json", summary)
    print(f"wrote {len(docs)} documents to {out / 'corpus.jsonl'}")
    return EXIT_OK


def cmd_train(spec: ExperimentSpec) -> int:
    docs = _load_corpus(spec)
    rasters = _load_rasters(spec, docs)
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = cross_validate(docs, spec.model, spec.train, spec.bucketing,
                            k=spec.train.folds, rasters=rasters)
    metrics = result.to_metrics_json()
    metrics["manifest"] = _manifest(spec)
    _write_json(out / "metrics.json", metrics)
    for f, fold_res in enumerate(result.fold_results):
        fold_res.model.save(
            out / f"fold{f}.ckpt",
            extra_config={"vocabularies": fold_res.vocabs.to_json(),
                          "fold": f,
                          "best_epoch": fold_res.best_epoch,
                          "best_val_f1": fold_res.best_val_f1,
                          "val_doc_ids": fold_res.val_doc_ids,
                          "train": spec.train.to_json(),
                          "bucketing": spec.bucketing.to_json(),
                          "manifest": _manifest(spec)})
        _write_json(out / f"fold{f}.vocab.json", fold_res.vocabs.to_json())
    print(f"mean weighted F1 {result.mean:.4f} +/- {result.std:.4f} over "
          f"{spec.train.folds} folds; params {result.params}")
    return EXIT_OK


def _load_checkpoint_model(spec: ExperimentSpec, path) -> tuple[
        TokenTagger, Vocabularies, BucketingConfig, TrainConfig]:
    """The model with the vocabularies, bucketing and chunking (`train`) it
    was trained with; eval encodes with these, not with the spec's."""
    model, config = TokenTagger.load(path)
    missing = [k for k in ("vocabularies", "bucketing", "train")
               if k not in config]
    if missing:
        raise CheckpointMismatchError(
            f"{path}: checkpoint config lacks {missing}; retrain to store the "
            "encoding it was trained with")
    if model.spec.fusion is not spec.model.fusion:
        raise CheckpointMismatchError(
            f"checkpoint fusion {model.spec.fusion.value} does not match "
            f"spec fusion {spec.model.fusion.value}")
    if model.spec.encoder.hidden != spec.model.encoder.hidden \
            or model.spec.encoder.layers != spec.model.encoder.layers:
        raise CheckpointMismatchError(
            "checkpoint encoder dimensions do not match the spec")
    try:
        return (model, Vocabularies.from_json(config["vocabularies"]),
                BucketingConfig.from_json(config["bucketing"]),
                TrainConfig.from_json(config["train"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatchError(
            f"{path}: unreadable checkpoint config: {exc}") from exc


def cmd_eval(spec: ExperimentSpec, checkpoint: str,
             corpus_path: str | None) -> int:
    model, vocabs, bucketing, train = _load_checkpoint_model(spec, checkpoint)
    corpus_bytes = Path(corpus_path or spec.paths["corpus"]).read_bytes()
    docs = parse_documents(corpus_bytes)
    rasters = _load_rasters(spec, docs)
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    label_names = vocabs.label_names()
    preds = []
    for doc in docs:
        enc = encode_document(doc, vocabs, bucketing, strict_labels=False)
        doc_rasters = rasters.get(doc.id) if rasters else None
        preds.append(predict_tags(model, enc, train, label_names, doc_rasters))
    gold = [[t.label for t in d.tokens] for d in docs]
    report = entity_scores(preds, gold)
    lines = []
    for doc, tags in zip(docs, preds):
        obj = json.loads(serialize_documents([doc]).decode("utf-8"))
        for tok, tag in zip(obj["tokens"], tags):
            tok["pred_label"] = tag
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    (out / "predictions.jsonl").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    gold_classes = sorted({s.cls for g in gold for s in decode_iob(g)})
    report_obj = {"report": report.to_json(), "manifest": _manifest(spec),
                  "documents": len(docs),
                  "note": ("no gold entities in corpus"
                           if not gold_classes else "")}
    _write_json(out / "eval_report.json", report_obj)
    print(f"weighted F1 {report.weighted_f1:.4f} on {len(docs)} documents")
    return EXIT_OK


def cmd_ablate(spec: ExperimentSpec, checkpoint: str, features: list[str],
               repeats: int = 5) -> int:
    model, vocabs, bucketing, train = _load_checkpoint_model(spec, checkpoint)
    if model.spec.fusion not in (FusionMode.STYLE_SUM, FusionMode.STYLE_CONCAT):
        raise ContractError(
            f"checkpoint is a {model.spec.fusion.value} model; permutation "
            "importance needs a style fusion mode")
    docs = _load_corpus(spec)
    enc_docs = [encode_document(d, vocabs, bucketing, strict_labels=False)
                for d in docs]
    gold = [[t.label for t in d.tokens] for d in docs]
    label_names = vocabs.label_names()
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([spec.seed, 77])
    results = []
    for feature in features:
        res = permutation_importance(model, enc_docs, gold, label_names,
                                     feature, train, repeats=repeats, rng=rng)
        results.append(res.to_json())
        print(f"{feature:10s} delta F1 {res.delta_mean:+.4f} "
              f"+/- {res.delta_std:.4f}")
    _write_json(out / "ablation.json",
                {"importance": results, "repeats": repeats,
                 "manifest": _manifest(spec)})
    return EXIT_OK


def cmd_params(spec: ExperimentSpec) -> int:
    vocab_sizes = (2, spec.bucketing.font_top_k + 1, 3, 2, 2)
    image = spec.model.image or ImagePathConfig()
    full = replace(spec.model,
                   encoder=EncoderConfig(word_vocab=30522, label_count=25,
                                         hidden=768, layers=12, heads=12,
                                         ff_dim=3072, seed=0),
                   style_vocab_sizes=vocab_sizes, image=image)
    desk = replace(spec.model, encoder=replace(spec.model.encoder,
                                               word_vocab=5000, label_count=13),
                   style_vocab_sizes=vocab_sizes, image=image)
    for title, base in (("desk configuration", desk),
                        ("full-scale accounting configuration", full)):
        breakdowns = [count_parameters(replace(base, fusion=m))
                      for m in (FusionMode.BASELINE, FusionMode.STYLE_CONCAT,
                                FusionMode.STYLE_SUM, FusionMode.IMAGE)]
        print(f"# {title} (hidden={base.encoder.hidden})")
        print(format_breakdowns(breakdowns))
        print()
    delta = style_sum_fullscale_delta(vocab_sizes=vocab_sizes)
    print(f"full-scale style-sum delta: +{delta['delta_params']:,} params = "
          f"+{delta['delta_pct']:.3f}% of the published "
          f"{delta['base_params'] / 1e6:.2f}M base")
    consistency = table1_consistency()
    print(f"published image model vs base: +{consistency['image_more_than_base_pct']:.2f}% "
          f"(prose: {consistency['prose_more_pct']}% more)")
    print(f"published concat vs image: -{consistency['concat_less_than_image_pct']:.2f}% "
          f"(prose: {consistency['prose_less_pct']}% less)")
    print(f"published sum minus concat: {consistency['sum_minus_concat_m']:.2f}M")
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
    except ContractError as exc:
        print(f"ielab: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    raise SystemExit(main())
