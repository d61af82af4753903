import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ielab import evalsuite as ev
from ielab import synthdocs
from ielab.docstream import BucketingConfig, build_vocabularies, encode_document
from ielab.errors import ConfigError, ContractError, DataValidationError
from ielab.evalsuite import EntitySpan
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, TaggerSpec, TokenTagger
from ielab.stylefuse.model import with_resolved_sizes
from ielab.trainloop import TrainConfig, cross_validate


def test_decode_basic_span():
    assert ev.decode_iob(["B-X", "I-X", "O"]) == [EntitySpan(0, 2, "X")]


def test_decode_adjacent_entities_stay_separate():
    assert ev.decode_iob(["B-X", "B-X"]) == [EntitySpan(0, 1, "X"),
                                             EntitySpan(1, 2, "X")]


def test_decode_repair_rule():
    assert ev.decode_iob(["O", "I-X"]) == [EntitySpan(1, 2, "X")]
    # class switch inside I- also opens a new span
    assert ev.decode_iob(["B-X", "I-Y"]) == [EntitySpan(0, 1, "X"),
                                             EntitySpan(1, 2, "Y")]


def test_decode_malformed_tag():
    with pytest.raises(DataValidationError, match="index 1"):
        ev.decode_iob(["O", "Q-X"])


def test_iob_roundtrip_random_spans():
    rng = np.random.default_rng(7)
    classes = ["A", "B", "C"]
    for _ in range(200):
        length = int(rng.integers(1, 40))
        spans, tags = [], ["O"] * length
        pos = 0
        while pos < length:
            if rng.random() < 0.4:
                end = int(min(length, pos + rng.integers(1, 4)))
                cls = classes[int(rng.integers(3))]
                spans.append(EntitySpan(pos, end, cls))
                tags[pos:end] = [f"B-{cls}"] + [f"I-{cls}"] * (end - pos - 1)
                pos = end
            else:
                pos += 1
        assert ev.decode_iob(tags) == spans


def test_scores_perfect_prediction():
    gold = [["B-A", "I-A", "O", "B-B"]]
    report = ev.entity_scores(gold, gold)
    assert report.weighted_f1 == 1.0
    assert all(s.f1 == 1.0 for s in report.per_class.values())


def test_scores_no_predictions():
    gold = [["B-A", "I-A", "O"]]
    report = ev.entity_scores([["O", "O", "O"]], gold)
    assert report.weighted_f1 == 0.0


def test_scores_hand_computed_two_thirds():
    gold = [["B-A", "O", "B-B", "O", "B-B", "O", "O", "O"]]
    pred = [["B-A", "O", "B-B", "O", "O", "O", "B-A", "O"]]
    report = ev.entity_scores(pred, gold)
    a, b = report.per_class["A"], report.per_class["B"]
    assert (a.tp, a.fp, a.fn) == (1, 1, 0)
    assert (b.tp, b.fp, b.fn) == (1, 0, 1)
    assert a.f1 == pytest.approx(2 / 3)
    assert b.f1 == pytest.approx(2 / 3)
    assert report.weighted_f1 == pytest.approx(2 / 3)


def test_scores_swap_exchanges_precision_recall():
    rng = np.random.default_rng(5)
    classes = ["A", "B"]

    def random_tags():
        tags = []
        for _ in range(30):
            r = rng.random()
            tags.append("O" if r < 0.5 else
                        f"B-{classes[int(rng.integers(2))]}")
        return tags

    pred, gold = [random_tags() for _ in range(4)], [random_tags() for _ in range(4)]
    fwd = ev.entity_scores(pred, gold)
    rev = ev.entity_scores(gold, pred)
    for cls in set(fwd.per_class) | set(rev.per_class):
        assert fwd.per_class[cls].precision == pytest.approx(
            rev.per_class[cls].recall)
        assert fwd.per_class[cls].recall == pytest.approx(
            rev.per_class[cls].precision)


def test_scores_length_mismatch():
    with pytest.raises(DataValidationError):
        ev.entity_scores([["O"]], [["O", "O"]])


def random_spec(rng, fusion):
    heads = int(rng.choice([1, 2, 4]))
    hidden = int(heads * rng.integers(2, 9))
    enc = EncoderConfig(word_vocab=int(rng.integers(3, 40)),
                        label_count=int(rng.integers(1, 9)),
                        hidden=hidden, layers=int(rng.integers(1, 4)),
                        heads=heads,
                        ff_dim=int(rng.integers(4, 33)),
                        max_seq_len=int(rng.integers(4, 40)), seed=1)
    image = None
    if fusion is FusionMode.IMAGE:
        image = __import__("ielab.stylefuse", fromlist=["ImagePathConfig"]) \
            .ImagePathConfig(raster_size=16,
                             backbone_channels=(2, int(rng.integers(2, 7))),
                             roi_bins=int(rng.integers(1, 4)))
    sizes = tuple(int(rng.integers(2, 11)) for _ in range(5))
    return TaggerSpec(encoder=enc, fusion=fusion, style_vocab_sizes=sizes,
                      style_dim=int(rng.integers(2, 9)), image=image)


@pytest.mark.parametrize("fusion", list(FusionMode))
def test_count_parameters_matches_constructed_models(fusion):
    rng = np.random.default_rng(hash(fusion.value) % 2**32)
    for _ in range(20):
        spec = random_spec(rng, fusion)
        breakdown = ev.count_parameters(spec)
        model = TokenTagger.build(spec)
        actual = sum(t.data.size for t in model.parameters().values())
        assert breakdown.total == actual, spec


def test_count_parameters_single_table():
    # one embedding table of 10 x 4 contributes exactly 40
    enc = EncoderConfig(word_vocab=10, label_count=3, hidden=4, layers=1,
                        heads=1, seed=0)
    spec = TaggerSpec(encoder=enc, fusion=FusionMode.BASELINE)
    assert ev.count_parameters(spec).components["embeddings.word"] == 40


def test_style_sum_delta_full_scale():
    delta = ev.style_sum_fullscale_delta()
    assert delta["delta_params"] == (2 + 9 + 3 + 2 + 2) * 768 == 13824
    assert delta["delta_pct"] == pytest.approx(0.0122, abs=0.0001)
    assert 0.005 <= delta["delta_pct"] <= 0.05


def test_style_concat_deltas_closed_form():
    enc = EncoderConfig(word_vocab=100, label_count=25, hidden=768, layers=1,
                        heads=2, seed=0)
    base = ev.count_parameters(TaggerSpec(encoder=enc, fusion=FusionMode.BASELINE))
    concat = ev.count_parameters(TaggerSpec(
        encoder=enc, fusion=FusionMode.STYLE_CONCAT,
        style_vocab_sizes=(2, 9, 3, 2, 2), style_dim=64))
    delta = concat.total - base.total
    assert delta == (2 + 9 + 3 + 2 + 2) * 64 + 5 * 64 * 25


def test_table1_consistency_percentages():
    rep = ev.table1_consistency()
    assert round(rep["image_more_than_base_pct"], 2) == 44.28
    assert round(rep["concat_less_than_image_pct"], 2) == 30.69
    assert rep["sum_minus_concat_m"] == pytest.approx(0.01)


def trained_style_model(n_docs=10, fusion=FusionMode.STYLE_CONCAT):
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=n_docs, tokens_per_doc=(14, 20), seed=2))
    bucket = BucketingConfig()
    vocabs = build_vocabularies(docs, bucket)
    enc = EncoderConfig(word_vocab=2, label_count=1, hidden=8, layers=1,
                        heads=2, seed=3)
    spec = with_resolved_sizes(
        TaggerSpec(encoder=enc, fusion=fusion, style_dim=4),
        vocabs.word.size, len(vocabs.labels), vocabs.style.size_list())
    model = TokenTagger.build(spec)
    enc_docs = [encode_document(d, vocabs, bucket) for d in docs]
    gold = [[t.label for t in d.tokens] for d in docs]
    return model, enc_docs, gold, vocabs


def test_permute_feature_preserves_multiset():
    _, enc_docs, _, _ = trained_style_model()
    rng = np.random.default_rng(1)
    shuffled = ev.permute_feature(enc_docs, "bold", rng)
    before = np.concatenate([d.style_ids[0] for d in enc_docs])
    after = np.concatenate([d.style_ids[0] for d in shuffled])
    assert sorted(before) == sorted(after)
    assert not np.array_equal(before, after) or len(before) < 3
    # other features untouched
    for m in range(1, 5):
        assert np.array_equal(np.concatenate([d.style_ids[m] for d in enc_docs]),
                              np.concatenate([d.style_ids[m] for d in shuffled]))


def test_permute_feature_deterministic_and_validates():
    _, enc_docs, _, _ = trained_style_model()
    a = ev.permute_feature(enc_docs, "color", np.random.default_rng(5))
    b = ev.permute_feature(enc_docs, "color", np.random.default_rng(5))
    for da, db in zip(a, b):
        assert np.array_equal(da.style_ids, db.style_ids)
    with pytest.raises(ConfigError):
        ev.permute_feature(enc_docs, "weight", np.random.default_rng(0))


def test_permutation_importance_zero_for_constant_table():
    model, enc_docs, gold, vocabs = trained_style_model()
    bold = model.style.tables["bold"]
    bold.data[:] = bold.data[0]  # identical rows: permuting ids changes nothing
    res = ev.permutation_importance(model, enc_docs, gold,
                                    vocabs.label_names(), "bold",
                                    TrainConfig(), repeats=3,
                                    rng=np.random.default_rng(0))
    assert res.delta_mean == 0.0
    assert res.permuted_f1 == [res.intact_f1] * 3


def test_permutation_importance_rejects_baseline():
    model, enc_docs, gold, vocabs = trained_style_model(
        fusion=FusionMode.BASELINE)
    with pytest.raises(ContractError):
        ev.permutation_importance(model, enc_docs, gold, vocabs.label_names(),
                                  "bold", TrainConfig())


def test_feature_subset_head_width():
    enc = EncoderConfig(word_vocab=50, label_count=5, hidden=16, layers=1,
                        heads=2, seed=0)
    spec = TaggerSpec(encoder=enc, fusion=FusionMode.STYLE_CONCAT,
                      style_vocab_sizes=(2, 9, 3, 2, 2), style_dim=4,
                      style_features=("bold",))
    assert spec.head_in_dim == 16 + 4
    full = TaggerSpec(encoder=enc, fusion=FusionMode.STYLE_CONCAT,
                      style_vocab_sizes=(2, 9, 3, 2, 2), style_dim=4)
    assert full.head_in_dim == 16 + 5 * 4
    # parameter count strictly increases with subset size
    totals = []
    for k in range(1, 6):
        sub = TaggerSpec(encoder=enc, fusion=FusionMode.STYLE_CONCAT,
                         style_vocab_sizes=(2, 9, 3, 2, 2), style_dim=4,
                         style_features=tuple(
                             f for f in ("bold", "font", "fontSize",
                                         "inTable", "color")[:k]))
        totals.append(ev.count_parameters(sub).total)
    assert totals == sorted(totals) and len(set(totals)) == 5


def test_feature_subset_run_empty_subset_advises_baseline():
    """A style model restricted to no features is refused when its spec is
    made, pointing to the BASELINE mode."""
    enc = EncoderConfig(word_vocab=2, label_count=1, hidden=8, layers=1,
                        heads=2, seed=0)
    spec = TaggerSpec(encoder=enc, fusion=FusionMode.STYLE_CONCAT, style_dim=4)
    with pytest.raises(ConfigError, match="BASELINE"):
        replace(spec, style_features=())


def test_feature_subset_run_trains_restricted_model():
    """A feature-subset run is cross_validate on a spec whose
    style_features name the subset."""
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=8, tokens_per_doc=(14, 20), seed=2))
    enc = EncoderConfig(word_vocab=2, label_count=1, hidden=8, layers=1,
                        heads=2, seed=0)
    spec = TaggerSpec(encoder=enc, fusion=FusionMode.STYLE_CONCAT, style_dim=4)
    res = cross_validate(docs, replace(spec, style_features=("bold", "inTable")),
                         TrainConfig(lr=1e-3, epochs=1, seed=0),
                         BucketingConfig(), k=2)
    got = res.fold_results[0].model.spec
    assert got.style_features == ("bold", "inTable")
    assert "style.bold" in res.fold_results[0].model.parameters()
    assert "style.color" not in res.fold_results[0].model.parameters()


# Tags of several classes per document: `entity_scores` meets a document's
# classes in the iteration order of a set of spans, which follows the
# process's string hash seed.
_HASH_SEED_SCRIPT = """
import json, random
from ielab.evalsuite.scoring import entity_scores
rng = random.Random(3)
gold, pred = [], []
for _ in range(12):
    g, p = [], []
    for c in ("AMOUNT", "BUYER", "DATE", "SELLER", "PRICE", "QTY", "REF"):
        for _ in range(rng.randint(0, 3)):
            g += ["B-" + c, "I-" + c, "O"]
            r = rng.random()
            p += (["B-" + c, "I-" + c, "O"] if r < 0.6
                  else ["O", "B-" + c, "O"] if r < 0.8 else ["O", "O", "O"])
    gold.append(g)
    pred.append(p)
print(json.dumps(entity_scores(pred, gold).to_json()))
"""


def test_entity_scores_json_is_the_same_under_any_hash_seed():
    """metrics.json holds this report and its weighted F1s: its bytes must
    not depend on the hash seed (seeds 0 and 6 summed the classes in orders
    that differ in the last bit)."""
    src = Path(__file__).resolve().parent.parent / "src"
    outs = [subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT], capture_output=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src),
                         "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "6")]
    assert outs[0] == outs[1]
