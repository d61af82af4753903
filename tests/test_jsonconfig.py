import json

import pytest

from ielab.docstream import (
    BucketingConfig,
    StyleVocabulary,
    Vocabularies,
    WordVocabulary,
)
from ielab.errors import DataValidationError
from ielab.layoutcore import EncoderConfig
from ielab.stylefuse import FusionMode, ImagePathConfig, TaggerSpec
from ielab.synthdocs import GeneratorConfig
from ielab.trainloop import TrainConfig


def test_tagger_spec_json_is_pinned():
    spec = TaggerSpec(
        encoder=EncoderConfig(word_vocab=50, label_count=7, ff_dim=100,
                              init_std=0.5),
        fusion=FusionMode.IMAGE, image=ImagePathConfig(raster_size=64),
        dropout_rate=0.1)
    # checkpoint headers hold this form: it must not drift
    assert json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":")) == (
        '{"dropout_rate":0.1,"encoder":{"ff_dim":100,"heads":2,"hidden":64,'
        '"init_std":0.5,"label_count":7,"layers":2,"max_seq_len":512,"seed":0,'
        '"word_vocab":50},"fusion":"IMAGE","image":{"backbone_channels":'
        '[8,16,32],"kernel_size":3,"raster_channels":1,"raster_size":64,'
        '"roi_bins":3,"stride":2},"style_dim":64,"style_features":["bold",'
        '"font","fontSize","inTable","color"],"style_vocab_sizes":[]}')


def _vocabularies():
    return Vocabularies(word=WordVocabulary(index={"buy": 2, "sell": 3}),
                        style=StyleVocabulary(font_index={"Arial": 0}),
                        labels={"O": 0, "B-BROKER": 1})


def test_vocabularies_json_is_pinned():
    # checkpoint headers and fold<k>.vocab.json hold this form
    assert json.dumps(_vocabularies().to_json(), sort_keys=True,
                      separators=(",", ":")) == (
        '{"labels":{"B-BROKER":1,"O":0},"style":{"font_index":{"Arial":0}},'
        '"word":{"index":{"buy":2,"sell":3}}}')


@pytest.mark.parametrize("config", [
    TaggerSpec(encoder=EncoderConfig(word_vocab=9, label_count=3),
               fusion=FusionMode.STYLE_CONCAT, style_vocab_sizes=(2, 4),
               style_features=("bold", "font"), style_dim=5),
    TrainConfig(lr=0.5, bbox_scale_range=(0.9, 1.1), folds=3),
    GeneratorConfig(tokens_per_doc=(100, 200), n_docs=5, seed=9),
    BucketingConfig(fontsize_cluster_bounds=(1.5, 3.0), font_top_k=4),
    _vocabularies(),
], ids=lambda c: type(c).__name__)
def test_config_json_roundtrip(config):
    back = type(config).from_json(json.loads(json.dumps(config.to_json())))
    assert back == config


def test_from_json_rejects_unknown_key_and_enum_value():
    with pytest.raises(DataValidationError, match=r"bogus.*allowed.*folds"):
        TrainConfig.from_json({"bogus": 1})
    encoder = {"word_vocab": 9, "label_count": 3}
    with pytest.raises(DataValidationError, match=r"'NOPE'.*allowed.*IMAGE"):
        TaggerSpec.from_json({"encoder": encoder, "fusion": "NOPE"})
    with pytest.raises(DataValidationError, match=r"None.*allowed"):
        TaggerSpec.from_json({"encoder": encoder, "fusion": None})
    # null is a value only where the field admits it
    spec = TaggerSpec.from_json({"encoder": encoder, "fusion": "BASELINE",
                                 "image": None})
    assert spec.image is None


def test_from_json_rejects_missing_key_without_default():
    """A dataclass would raise TypeError; decoding names the keys instead."""
    with pytest.raises(DataValidationError,
                       match=r"EncoderConfig lacks keys \['word_vocab'\]"):
        EncoderConfig.from_json({"label_count": 3})
    with pytest.raises(DataValidationError, match=r"lacks keys \['fusion'\]"):
        TaggerSpec.from_json({"encoder": {"word_vocab": 9, "label_count": 3}})


def test_from_json_checks_field_types():
    assert TrainConfig.from_json({"lr": 1}).lr == 1      # an int is a float
    assert TrainConfig.from_json({"bbox_scale_range": [1, 1.5]}) \
        .bbox_scale_range == (1, 1.5)
    for bad in ({"lr": True}, {"lr": "0.1"}, {"epochs": 2.0},
                {"epochs": None}, {"bbox_scale_range": 1.0},
                {"bbox_scale_range": [1.0, 1.1, 1.2]}):
        with pytest.raises(DataValidationError, match="TrainConfig"):
            TrainConfig.from_json(bad)
    with pytest.raises(DataValidationError, match=r"ImagePathConfig\.backbone"):
        ImagePathConfig.from_json({"backbone_channels": [8, "16"]})
    with pytest.raises(DataValidationError, match=r"template: expected str"):
        GeneratorConfig.from_json({"template": 3})


def test_dict_fields_take_an_object_of_fitting_values():
    assert WordVocabulary.from_json({"index": {}}).index == {}
    for ids in ({"buy": "3"}, {"buy": 3.5}, {"buy": True}, {"buy": [3]},
                [["buy", 3]], "buy"):
        with pytest.raises(DataValidationError, match=r"WordVocabulary\.index"):
            WordVocabulary.from_json({"index": ids})
    with pytest.raises(DataValidationError,
                       match=r"Vocabularies\.style: StyleVocabulary\.font_index"
                             r": expected int, got '0'"):
        Vocabularies.from_json({**_vocabularies().to_json(),
                                "style": {"font_index": {"Arial": "0"}}})
