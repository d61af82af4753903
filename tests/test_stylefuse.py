import numpy as np
import pytest
from conftest import bilinear_point_oracle, gradcheck, mul, sum_all

from ielab import pgm
from ielab import stylefuse as sf
from ielab import synthdocs
from ielab.docstream import (
    BucketingConfig,
    ModelInput,
    build_vocabularies,
    encode_document,
)
from ielab.errors import ConfigError, ContractError
from ielab.layoutcore import EncoderConfig
from ielab.tensorcore.ops import embedding_sum, reshape
from ielab.tensorcore import (
    ShapeError,
    Tape,
    Tensor,
    add,
    backward,
    conv2d,
    cross_entropy_masked,
    gelu,
    parameter,
)
from test_layoutcore import tiny_input


def small_spec(fusion, hidden=8, **over):
    enc = EncoderConfig(word_vocab=8, label_count=3, hidden=hidden, layers=1,
                        heads=2, max_seq_len=16, seed=11)
    base = dict(encoder=enc, fusion=fusion,
                style_vocab_sizes=(2, 9, 3, 2, 2), style_dim=4)
    if fusion is sf.FusionMode.IMAGE:
        base["image"] = sf.ImagePathConfig(raster_size=16,
                                           backbone_channels=(4, 8),
                                           roi_bins=2)
    base.update(over)
    return sf.TaggerSpec(**base)


FEATURES = ("bold", "font", "fontSize", "inTable", "color")


def style_tables(dim, seed=0):
    """The `style.<feature>` tables of every feature, all of width `dim`."""
    rng = np.random.default_rng(seed)
    return {f"style.{f}": parameter(rng.normal(size=(v, dim)))
            for f, v in zip(FEATURES, (2, 9, 3, 2, 2))}


def test_fuse_sum_zero_tables_is_identity():
    L = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
    tables = style_tables(8)
    for t in tables.values():
        t.data[:] = 0.0
    ids = np.zeros((5, 4), dtype=np.int64)
    out = sf.fuse_style_sum(L, ids, tables, FEATURES)
    assert np.array_equal(out.data, L.data)


def test_fuse_sum_additivity_per_table():
    rng = np.random.default_rng(1)
    L = Tensor(rng.normal(size=(3, 8)))
    tables = style_tables(8, seed=2)
    ids = rng.integers(0, 2, size=(5, 3))
    base = sf.fuse_style_sum(L, ids, tables, FEATURES).data.copy()
    contrib = tables["style.bold"].data[ids[0]].copy()
    tables["style.bold"].data *= 2.0
    out = sf.fuse_style_sum(L, ids, tables, FEATURES).data
    assert np.allclose(out - base, contrib, atol=1e-12)


def test_fuse_sum_matches_direct_sum_oracle():
    rng = np.random.default_rng(3)
    L = Tensor(rng.normal(size=(6, 8)))
    tables = style_tables(8, seed=4)
    ids = np.vstack([rng.integers(0, v, 6) for v in (2, 9, 3, 2, 2)])
    out = sf.fuse_style_sum(L, ids, tables, FEATURES).data
    for i in range(6):
        expected = L.data[i].copy()
        for m, f in enumerate(FEATURES):
            expected += tables[f"style.{f}"].data[ids[m, i]]
        assert np.allclose(out[i], expected, atol=1e-12)


def test_fuse_sum_bits_match_an_add_chain():
    """The one-node sum gives the bits of L + row_bold + row_font + ...,
    added left to right, and the same gradients for L and every table."""
    rng = np.random.default_rng(5)
    L = parameter(rng.normal(size=(7, 8)))
    tables = style_tables(8, seed=6)
    ids = np.vstack([rng.integers(0, v, 7) for v in (2, 9, 3, 2, 2)])
    w = Tensor(rng.normal(size=(7, 8)))
    leaves = [L, *tables.values()]

    def chain():
        e = L
        for m, f in enumerate(FEATURES):
            e = add(e, embedding_sum([tables[f"style.{f}"]], [ids[m]]))
        return e

    runs = []
    for fuse in (lambda: sf.fuse_style_sum(L, ids, tables, FEATURES), chain):
        tape = Tape()
        with tape:
            e = fuse()
            loss = sum_all(mul(e, w))
        grads = backward(loss, tape)
        runs.append([e.data.tobytes()] + [
            grads[t].tobytes() for t in leaves])
    assert runs[0] == runs[1]


def test_fuse_sum_dim_mismatch():
    L = Tensor(np.zeros((2, 8)))
    with pytest.raises(ShapeError):
        sf.fuse_style_sum(L, np.zeros((5, 2), dtype=int), style_tables(4),
                          FEATURES)


def test_fuse_concat_widths():
    # full-scale arithmetic: hidden 768 + 5*64 = 1088
    L = Tensor(np.zeros((2, 768)))
    tables = style_tables(64)
    out = sf.fuse_style_concat(L, np.zeros((5, 2), dtype=int), tables,
                               FEATURES)
    assert out.data.shape == (2, 768 + 5 * 64)
    # small case: hidden 4 + 5*2 = 14
    out = sf.fuse_style_concat(Tensor(np.zeros((2, 4))),
                               np.zeros((5, 2), dtype=int), style_tables(2),
                               FEATURES)
    assert out.data.shape == (2, 14)


def test_fuse_concat_slice_layout():
    rng = np.random.default_rng(5)
    L = Tensor(rng.normal(size=(4, 8)))
    tables = style_tables(4, seed=6)
    ids = np.vstack([rng.integers(0, v, 4) for v in (2, 9, 3, 2, 2)])
    out = sf.fuse_style_concat(L, ids, tables, FEATURES).data
    for i in range(4):
        assert np.array_equal(out[i, 8:12], tables["style.bold"].data[ids[0, i]])
        assert np.array_equal(out[i, 12:16], tables["style.font"].data[ids[1, i]])
        assert np.array_equal(out[i, 24:28], tables["style.color"].data[ids[4, i]])


def test_predict_probs_rows_sum_to_one_and_deterministic():
    model = sf.TokenTagger.build(small_spec(sf.FusionMode.STYLE_CONCAT))
    rng = np.random.default_rng(7)
    for t in model.parameters().values():     # O(1) weights: peaked rows
        t.data += rng.normal(0.0, 0.5, size=t.data.shape)
    inputs = [tiny_input(T=6, seed=7)]
    p1 = model.predict_probs(inputs)
    p2 = model.predict_probs(inputs)
    assert p1.shape == (6, 3)
    assert np.allclose(p1.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(p1, p2)


def test_predict_probs_zero_head_is_uniform():
    model = sf.TokenTagger.build(small_spec(sf.FusionMode.BASELINE))
    model.fusion_params["head.weight"].data[:] = 0.0
    p = model.predict_probs([tiny_input(T=3, seed=1)])
    assert np.allclose(p, 1 / 3, atol=1e-15)


def test_head_width_mismatch_names_wiring():
    head = {"head.weight": parameter(np.zeros((8, 4))),
            "head.bias": parameter(np.zeros(4))}
    with pytest.raises(ShapeError, match="linear"):
        sf.head_logits(Tensor(np.zeros((3, 12))), head, 0.0)


def test_backbone_output_shape():
    cfg = sf.ImagePathConfig()     # 1x128x128, channels (8, 16, 32)
    spec = small_spec(sf.FusionMode.IMAGE, image=cfg)
    model = sf.TokenTagger.build(spec)
    fmap = sf.backbone_forward(np.zeros((1, 128, 128), np.uint8),
                               model.fusion_params, cfg)
    assert fmap.data.shape == (32, 16, 16)


def test_backbone_zero_raster_zero_biases_gives_zero_map():
    cfg = sf.ImagePathConfig(raster_size=16, backbone_channels=(4, 8))
    spec = small_spec(sf.FusionMode.IMAGE, image=cfg)
    model = sf.TokenTagger.build(spec)
    blank = np.full((1, 16, 16), 255, np.uint8)     # white: zero ink
    fmap = sf.backbone_forward(blank, model.fusion_params, cfg)
    assert not fmap.data.any()


def test_backbone_gradients():
    cfg = sf.ImagePathConfig(raster_size=8, backbone_channels=(2, 3))
    spec = small_spec(sf.FusionMode.IMAGE, image=cfg)
    model = sf.TokenTagger.build(spec)
    raster = np.random.default_rng(8).integers(0, 256, (1, 8, 8), np.uint8)
    named = {n: t for n, t in model.fusion_params.items()
             if n.startswith("image.backbone.")}

    def loss():
        fmap = sf.backbone_forward(raster, model.fusion_params, cfg)
        return sum_all(mul(fmap, fmap))

    gradcheck(loss, named, tol=1e-5, max_samples=8)


def _roi_one(fmap, box, r):
    """One box through roi_align_batch, as a (C, r, r) grid."""
    return sf.roi_align_batch(fmap, np.array([box], dtype=float), r) \
        .data.reshape(-1, r, r)


def test_roi_align_constant_map():
    fmap = Tensor(np.full((3, 6, 6), 2.5))
    out = _roi_one(fmap, (100, 100, 900, 700), 3)
    assert out.shape == (3, 3, 3)
    assert np.allclose(out, 2.5, atol=1e-12)


def test_roi_align_point_box_equals_bilinear_value():
    rng = np.random.default_rng(9)
    fmap = Tensor(rng.normal(size=(2, 5, 7)))
    # zero-area box: every bin equals the bilinear value at that point
    out = _roi_one(fmap, (430, 620, 430, 620), 3)
    expected = bilinear_point_oracle(fmap.data, 620 / 1000 * 5, 430 / 1000 * 7)
    for c in range(2):
        assert np.allclose(out[c], expected[c], atol=1e-12)


def test_roi_align_matches_brute_force_oracle():
    rng = np.random.default_rng(10)
    for trial in range(100):
        C, H, W = 2, int(rng.integers(3, 9)), int(rng.integers(3, 9))
        fmap = rng.normal(size=(C, H, W))
        x1, y1 = rng.uniform(0, 900, 2)
        x2 = rng.uniform(x1, 1000)
        y2 = rng.uniform(y1, 1000)
        r = int(rng.integers(1, 4))
        out = _roi_one(Tensor(fmap), (x1, y1, x2, y2), r)
        fx1, fx2 = x1 * W / 1000, x2 * W / 1000
        fy1, fy2 = y1 * H / 1000, y2 * H / 1000
        bw, bh = (fx2 - fx1) / r, (fy2 - fy1) / r
        for i in range(r):
            for j in range(r):
                acc = np.zeros(C)
                for a in (0.25, 0.75):
                    for b in (0.25, 0.75):
                        acc += bilinear_point_oracle(
                            fmap, fy1 + (i + a) * bh, fx1 + (j + b) * bw)
                assert np.allclose(out[:, i, j], acc / 4.0, atol=1e-10), \
                    f"trial {trial} bin ({i},{j})"


def test_roi_align_gradient():
    rng = np.random.default_rng(12)
    fmap = parameter(rng.normal(size=(2, 6, 6)))
    w = Tensor(rng.normal(size=(1, 2 * 3 * 3)))
    box = np.array([[120, 80, 640, 910]], dtype=float)

    def loss():
        return sum_all(mul(sf.roi_align_batch(fmap, box, 3), w))

    gradcheck(loss, {"fmap": fmap}, tol=1e-6, max_samples=36)


def _roi_oracle(fmap, box, r):
    """(C, r, r) RoIAlign of one box by brute-force point sampling."""
    C, H, W = fmap.shape
    x1, y1, x2, y2 = box
    fx1, fy1 = x1 * W / 1000, y1 * H / 1000
    bw, bh = (x2 - x1) * W / 1000 / r, (y2 - y1) * H / 1000 / r
    out = np.zeros((C, r, r))
    for i in range(r):
        for j in range(r):
            for a in (0.25, 0.75):
                for b in (0.25, 0.75):
                    out[:, i, j] += bilinear_point_oracle(
                        fmap, fy1 + (i + a) * bh, fx1 + (j + b) * bw) / 4.0
    return out


def _multi_page_case(seed):
    """Three (2, 5, 6) page maps and 12 boxes interleaved over them: some
    reach past the page edges, some have zero area."""
    rng = np.random.default_rng(seed)
    maps = [rng.normal(size=(2, 5, 6)) for _ in range(3)]
    pages = np.array([2, 0, 1, 0, 2, 1, 1, 0, 2, 2, 0, 1])
    corner = rng.uniform(0, 800, size=(12, 2))
    boxes = np.concatenate([corner, corner + rng.uniform(5, 300, (12, 2))], 1)
    boxes[1] = (-150, 700, 300, 1250)                  # partly outside
    boxes[4] = (850, -90, 1100, 200)
    boxes[5] = (430, 620, 430, 620)                    # zero area
    boxes[9] = (999, 0, 999, 0)
    return maps, pages, boxes


def test_roi_align_batch_pages_match_oracle():
    maps, pages, boxes = _multi_page_case(15)
    r = 3
    out = sf.roi_align_batch([Tensor(m) for m in maps], boxes, r, pages).data
    for t in range(len(boxes)):
        want = _roi_oracle(maps[pages[t]], boxes[t], r).reshape(-1)
        assert np.allclose(out[t], want, rtol=0, atol=1e-12), f"token {t}"
    with pytest.raises(ShapeError):
        sf.roi_align_batch([Tensor(m) for m in maps], boxes, r, pages + 1)
    with pytest.raises(ShapeError):
        sf.roi_align_batch([Tensor(maps[0]), Tensor(np.zeros((2, 5, 5)))],
                           boxes, r, pages % 2)


def test_roi_align_batch_pages_gradient():
    maps, pages, boxes = _multi_page_case(16)
    named = {f"page{p}": parameter(m) for p, m in enumerate(maps)}
    w = Tensor(np.random.default_rng(17).normal(size=(12, 2 * 2 * 2)))

    def loss():
        return sum_all(mul(sf.roi_align_batch(list(named.values()), boxes, 2,
                                              pages), w))

    gradcheck(loss, named, tol=1e-6, max_samples=60)


def test_roi_align_batch_unreferenced_and_untracked_pages():
    maps, pages, boxes = _multi_page_case(18)
    tracked, constant, unused = parameter(maps[0]), Tensor(maps[1]), \
        parameter(maps[2])
    keep = pages != 2                              # no box reads page 2
    tape = Tape()
    with tape:
        out = sf.roi_align_batch([tracked, constant, unused], boxes[keep], 2,
                                 pages[keep])
        loss = sum_all(out)
    node = tape.nodes[out.node_id]
    need = tuple(pid >= 0 for pid in node.parents)
    assert need == (True, False, True)
    node_grads = node.backward_fn(np.ones_like(out.data), need, *node.saved)
    assert node_grads[1] is None
    grads = backward(loss, tape)
    assert np.array_equal(grads[unused], np.zeros((2, 5, 6)))
    assert constant.node_id is None
    assert np.abs(grads[tracked]).sum() > 0


def test_image_fuse_zero_path_is_identity():
    spec = small_spec(sf.FusionMode.IMAGE)
    model = sf.TokenTagger.build(spec)
    for name, t in model.fusion_params.items():
        if name.startswith("image."):
            t.data[:] = 0.0
    inp = tiny_input(T=4, seed=1)
    L = Tensor(np.random.default_rng(2).normal(size=(4, 8)))
    rasters = [np.random.default_rng(3).integers(0, 256, (1, 16, 16), np.uint8)]
    out = add(L, sf.image_rows([inp], [rasters], model.fusion_params,
                               spec.image))
    assert np.array_equal(out.data, L.data)


def test_image_fuse_linear_in_projection():
    spec = small_spec(sf.FusionMode.IMAGE)
    model = sf.TokenTagger.build(spec)
    inp = tiny_input(T=4, seed=4)
    rasters = [np.random.default_rng(5).integers(0, 256, (1, 16, 16), np.uint8)]
    v1 = sf.image_rows([inp], [rasters], model.fusion_params, spec.image).data
    model.fusion_params["image.proj.weight"].data *= 2.0
    model.fusion_params["image.proj.bias"].data *= 2.0
    v2 = sf.image_rows([inp], [rasters], model.fusion_params, spec.image).data
    assert np.allclose(v2, 2.0 * v1, atol=1e-12)


def _ink(grid):
    """The float64 ink map a uint8 page meant before pages stayed uint8:
    the expression pgm.raster_to_input used to apply."""
    return (255.0 - np.asarray(grid, dtype=np.float64)) / 255.0


def _backbone_on_ink(ink, params, config):
    """The conv+GELU stages run straight on a float64 ink map."""
    x = Tensor(ink)
    for i in range(len(config.backbone_channels)):
        kernel = params[f"image.backbone.{i}.kernel"]
        x = conv2d(x, kernel, config.stride, config.kernel_size // 2)
        bias = params[f"image.backbone.{i}.bias"]
        x = gelu(add(x, reshape(bias, (kernel.data.shape[0], 1, 1))))
    return x


def test_backbone_forms_the_ink_of_every_byte(monkeypatch):
    """Each pixel value 0-255 becomes the float64 bits of (255 - v) / 255."""
    cfg = sf.ImagePathConfig(raster_size=16, backbone_channels=(4, 8))
    model = sf.TokenTagger.build(small_spec(sf.FusionMode.IMAGE, image=cfg))
    grid = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    seen = []
    original = sf.image.ops.conv2d

    def first_input(x, *args, **kwargs):
        seen.append(x.data.copy())
        return original(x, *args, **kwargs)

    monkeypatch.setattr(sf.image.ops, "conv2d", first_input)
    sf.backbone_forward(grid, model.fusion_params, cfg)
    assert seen[0].dtype == np.float64
    assert seen[0].tobytes() == _ink(grid).tobytes()


def test_backbone_refuses_a_float_page():
    model = sf.TokenTagger.build(small_spec(sf.FusionMode.IMAGE))
    with pytest.raises(ContractError, match="uint8"):
        sf.backbone_forward(np.zeros((1, 16, 16)), model.fusion_params,
                            model.spec.image)


def test_uint8_pages_give_the_bits_of_float_ink_maps(monkeypatch):
    """On a multi-page document, image rows and probabilities from uint8
    pages equal those the backbone gave on float64 ink maps."""
    docs = synthdocs.generate_corpus(synthdocs.GeneratorConfig(
        template="TRADECONF", n_docs=2, tokens_per_doc=(300, 400), seed=4))
    doc = max(docs, key=lambda d: len(d.pages))
    assert len(doc.pages) >= 2
    pages = [pgm.raster_to_input(p.grid)
             for p in synthdocs.render_pages(doc, size=32)]
    vocabs = build_vocabularies(docs, BucketingConfig())
    inp = encode_document(doc, vocabs, BucketingConfig())
    spec = sf.with_resolved_sizes(sf.TaggerSpec(
        encoder=EncoderConfig(word_vocab=2, label_count=1, hidden=16,
                              layers=1, heads=2),
        fusion=sf.FusionMode.IMAGE,
        image=sf.ImagePathConfig(raster_size=32, backbone_channels=(4, 8),
                                 roi_bins=2)),
        vocabs.word.size, len(vocabs.labels), vocabs.style.size_list())
    model = sf.TokenTagger.build(spec)
    rng = np.random.default_rng(6)
    for t in model.parameters().values():     # O(1) weights: low bits show
        t.data += rng.normal(0.0, 0.2, size=t.data.shape)

    def outputs(rasters):
        return (sf.image_rows([inp], [rasters], model.fusion_params,
                              spec.image).data.tobytes(),
                model.predict_probs([inp], [rasters]).tobytes())

    want = outputs(pages)
    monkeypatch.setattr(sf.image, "backbone_forward", _backbone_on_ink)
    assert outputs([_ink(p) for p in pages]) == want


def test_image_fuse_composition_oracle():
    spec = small_spec(sf.FusionMode.IMAGE)
    model = sf.TokenTagger.build(spec)
    inp = tiny_input(T=5, seed=6)
    rng = np.random.default_rng(7)
    L = Tensor(rng.normal(size=(5, 8)))
    boxes = inp.coord_ids[:4].T.astype(float)
    rasters = [rng.integers(0, 256, (1, 16, 16), np.uint8)]
    out = add(L, sf.image_rows([inp], [rasters], model.fusion_params,
                               spec.image)).data
    fmap = sf.backbone_forward(rasters[0], model.fusion_params,
                               spec.image).data
    W = model.fusion_params["image.proj.weight"].data
    b = model.fusion_params["image.proj.bias"].data
    for i in range(5):
        pooled = sf.roi_align_batch(Tensor(fmap), boxes[i:i + 1],
                                    spec.image.roi_bins).data[0]
        v = pooled @ W + b
        assert np.allclose(out[i] - L.data[i], v, atol=1e-10)


def test_image_fuse_missing_page_raster():
    spec = small_spec(sf.FusionMode.IMAGE)
    model = sf.TokenTagger.build(spec)
    inp = tiny_input(T=3, seed=8)
    inp.page_ids[:] = 2
    with pytest.raises(ConfigError, match="page 2"):
        sf.image_rows([inp], [[np.zeros((1, 16, 16))]], model.fusion_params,
                      spec.image)


def test_baseline_ignores_styles_and_rasters():
    spec = small_spec(sf.FusionMode.BASELINE)
    model = sf.TokenTagger.build(spec)
    inp = tiny_input(T=4, seed=9)
    p1 = model.predict_probs([inp])
    inp2 = inp.copy()
    inp2.style_ids[:] = 1
    p2 = model.predict_probs([inp2])
    assert np.array_equal(p1, p2)


def test_zero_style_sum_matches_baseline_logits_and_encoder_grads():
    base_spec = small_spec(sf.FusionMode.BASELINE)
    sum_spec = small_spec(sf.FusionMode.STYLE_SUM)
    base = sf.TokenTagger.build(base_spec)
    summ = sf.TokenTagger.build(sum_spec)
    for f in sum_spec.style_features:
        summ.fusion_params[f"style.{f}"].data[:] = 0.0
    inp = tiny_input(T=5, seed=10)
    inp.label_ids = np.asarray(inp.label_ids) % 3

    def grads_of(model):
        tape = Tape()
        with tape:
            logits = model.forward_logits([inp])
            loss = cross_entropy_masked(logits, inp.label_ids,
                                        np.ones(5, bool))
        g = backward(loss, tape)
        return logits.data, {n: g[t] for n, t in model.encoder_params.items()}

    logits_b, g_b = grads_of(base)
    logits_s, g_s = grads_of(summ)
    assert np.array_equal(logits_b, logits_s)
    for name in g_b:
        assert np.array_equal(g_b[name], g_s[name]), name
    # and the style tables receive gradient without any encoder involvement
    tape = Tape()
    with tape:
        loss = cross_entropy_masked(summ.forward_logits([inp]),
                                    inp.label_ids, np.ones(5, bool))
    g = backward(loss, tape)
    bold_grad = g[summ.fusion_params["style.bold"]]
    assert bold_grad.any()


def test_parameter_count_monotonicity():
    specs = {m: small_spec(m) for m in sf.FusionMode}
    counts = {m: sum(t.data.size for t in sf.TokenTagger.build(s).parameters().values())
              for m, s in specs.items()}
    assert counts[sf.FusionMode.IMAGE] > counts[sf.FusionMode.BASELINE]
    # style deltas: sum adds V_m*hidden; concat adds V_m*d plus head widening
    v_total = sum((2, 9, 3, 2, 2))
    assert counts[sf.FusionMode.STYLE_SUM] - counts[sf.FusionMode.BASELINE] \
        == v_total * 8
    d, labels = 4, 3
    assert counts[sf.FusionMode.STYLE_CONCAT] - counts[sf.FusionMode.BASELINE] \
        == v_total * d + 5 * d * labels


def test_checkpoint_roundtrip_restores_predictions(tmp_path):
    spec = small_spec(sf.FusionMode.STYLE_CONCAT)
    model = sf.TokenTagger.build(spec)
    inp = tiny_input(T=4, seed=13)
    before = model.predict_probs([inp])
    path = tmp_path / "tagger.ckpt"
    model.save(path, extra_config={"note": "test"})
    loaded, config = sf.TokenTagger.load(path)
    assert config["note"] == "test"
    assert np.array_equal(loaded.predict_probs([inp]), before)


def test_model_gradients_all_modes():
    # tiny end-to-end differentiability probe for each fusion mode
    for mode in sf.FusionMode:
        spec = small_spec(mode)
        model = sf.TokenTagger.build(spec)
        inp = tiny_input(T=4, seed=14)
        inp.label_ids = np.asarray(inp.label_ids) % 3
        rasters = [np.random.default_rng(15).integers(
            0, 256, (1, 16, 16), np.uint8)] \
            if mode is sf.FusionMode.IMAGE else None

        def loss():
            return cross_entropy_masked(model.forward_logits([inp], [rasters]),
                                        inp.label_ids, np.ones(4, bool))

        named = model.parameters()
        probe = {k: named[k] for k in list(named)[:3] + ["head.weight"]}
        gradcheck(loss, probe, tol=1e-4, max_samples=4)


def _chunk(T, seed, page_ids=None):
    inp = tiny_input(T=T, seed=seed)
    inp.label_ids = np.asarray(inp.label_ids) % 3
    if page_ids is not None:
        inp.page_ids = np.asarray(page_ids, dtype=np.int64)
    return inp


def _logits_and_grads(model, forward):
    """forward() -> (logits, loss) under a tape; grads keyed by name."""
    params = model.parameters()
    tape = Tape()
    with tape:
        tape.watch(*params.values())
        logits, loss = forward()
    g = backward(loss, tape)
    return logits.data, {n: g[t] for n, t in params.items()}


@pytest.mark.parametrize("mode", list(sf.FusionMode))
def test_packed_forward_matches_per_chunk_forwards(mode, monkeypatch):
    spec = small_spec(mode, encoder=EncoderConfig(
        word_vocab=8, label_count=3, hidden=8, layers=2, heads=2,
        max_seq_len=16, seed=11))
    model = sf.TokenTagger.build(spec)
    rng = np.random.default_rng(40)
    # two documents; IMAGE chunks of one document share its page list
    doc_a = [rng.integers(0, 256, (1, 16, 16), np.uint8) for _ in range(2)]
    doc_b = [rng.integers(0, 256, (1, 16, 16), np.uint8) for _ in range(3)]
    inputs = [_chunk(5, 1, [0, 0, 1, 1, 1]),
              _chunk(7, 2, [1] * 7),
              _chunk(16, 3, [0] * 8 + [2] * 8),
              _chunk(3, 4, [2, 2, 2])]
    rasters = [doc_a, doc_a, doc_b, doc_b]
    if mode is not sf.FusionMode.IMAGE:
        rasters = None
    labels = np.concatenate([i.label_ids for i in inputs])
    total = len(labels)

    seen = []
    original = sf.image.backbone_forward

    def counting_backbone(raster, params, config):
        seen.append(raster.tobytes())
        return original(raster, params, config)

    monkeypatch.setattr(sf.image, "backbone_forward", counting_backbone)

    def packed():
        logits = model.forward_logits(inputs, rasters,
                                      rng=np.random.default_rng(5))
        return logits, cross_entropy_masked(logits, labels,
                                            np.ones(total, bool))

    def per_chunk():      # the oracle: one forward per chunk
        drop = np.random.default_rng(5)
        parts, loss = [], None
        for i, inp in enumerate(inputs):
            logits = model.forward_logits([inp], rasters and [rasters[i]],
                                          rng=drop)
            term = mul(cross_entropy_masked(logits, inp.label_ids,
                                            np.ones(inp.length, bool)),
                       Tensor(inp.length / total))
            parts.append(logits.data)
            loss = term if loss is None else add(loss, term)
        return Tensor(np.concatenate(parts)), loss

    logits, grads = _logits_and_grads(model, packed)
    packed_pages = list(seen)
    ref_logits, ref_grads = _logits_and_grads(model, per_chunk)

    assert np.allclose(logits, ref_logits, rtol=1e-12, atol=0)
    for name, ref in ref_grads.items():
        err = np.abs(grads[name] - ref).max()
        if name.endswith("attn.k_bias"):       # zero in theory
            assert err <= 1e-12, name
        else:
            assert err <= 1e-12 * np.abs(ref).max(), name
    probs = model.predict_probs(inputs, rasters)
    ref_probs = np.concatenate([
        model.predict_probs([inp], rasters and [rasters[i]])
        for i, inp in enumerate(inputs)])
    assert np.allclose(probs, ref_probs, rtol=1e-12, atol=0)
    if mode is sf.FusionMode.IMAGE:
        # once per distinct (document, page): pages 0,1 of a and 0,2 of b
        assert sorted(packed_pages) == sorted(
            p.tobytes() for p in (doc_a[0], doc_a[1], doc_b[0], doc_b[2]))
