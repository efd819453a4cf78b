"""Integer FLOPs accounting: reference-count regressions, structural
sum checks, scaling properties, iso-depth search."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chapterbank.config import ModelConfig, preset
from chapterbank.errors import ConfigError
from chapterbank.flops import (
    flops_head_and_loss,
    flops_memory_layer_extra,
    flops_model,
    flops_standard_layer,
    iso_depth_search,
    router_aux_flops,
)

FULL = preset("moc-paper")
AUX = 331_859  # reference per-layer aux total at B=1 (no decomposition given)


class TestStandardLayer:
    def test_total(self):
        assert flops_standard_layer(FULL, 1, 1024).total == 17_424_982_016

    def test_subtotals(self):
        f = flops_standard_layer(FULL, 1, 1024)
        assert f.self_attention.total == 6_530_531_328
        assert f.rope == 3_145_728
        assert f.norms == 6_299_648
        assert f.mlp.total == 10_883_432_448
        assert f.residuals == 1_572_864

    def test_q_projection(self):
        assert flops_standard_layer(FULL, 1, 1024).self_attention.q == 2 * 1024 * 768 * 768 == 1_207_959_552

    def test_tiny_hand_derived(self):
        # L=1, d=2, h=1, kv=1, d_ff=2, B=1, every rule evaluated by hand:
        # attn 8+8+8+8 proj, 8 matmul, 7 softmax; rope 12; norms 24;
        # mlp 8+8+8+10; residuals 4
        cfg = ModelConfig(d_model=2, n_layers=1, n_heads=1, n_kv_heads=1, d_ff=2, vocab=7)
        f = flops_standard_layer(cfg, 1, 1)
        assert (f.self_attention.total, f.rope, f.norms, f.mlp.total, f.residuals) == (47, 12, 24, 34, 4)
        assert f.total == 121

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            flops_standard_layer(FULL, 0, 8)
        with pytest.raises(ConfigError):
            flops_standard_layer(FULL, 1, 0)


class TestMemoryLayerExtra:
    def test_total_with_reference_aux(self):
        assert flops_memory_layer_extra(FULL, 1, 1024, aux_override=AUX).total == 25_702_029_150

    def test_negative_aux_override_rejected(self):
        with pytest.raises(ConfigError, match=r"^aux_override must be >= 0, got -7$"):
            flops_memory_layer_extra(FULL, 1, 1024, aux_override=-7)
        assert flops_memory_layer_extra(FULL, 1, 1024, aux_override=0).router_aux == 0

    def test_negative_aux_override_rejected_without_memory_layers(self):
        dense = replace(FULL, memory_layer_indices=[])
        with pytest.raises(ConfigError, match=r"^aux_override must be >= 0, got -7$"):
            flops_model(dense, 1, 1024, aux_override=-7)
        assert flops_model(dense, 1, 1024, aux_override=0) == flops_model(dense, 1, 1024)

    def test_subtotals(self):
        f = flops_memory_layer_extra(FULL, 1, 1024, aux_override=AUX)
        assert f.router.total == 7_124_491
        assert f.mem_preprocess.total == 15_991_040
        assert f.mem_attention.total == 25_674_645_504
        assert f.extra_norm == 3_149_824
        assert f.extra_residual == 786_432

    def test_adapter_adds_its_gemm_and_add(self):
        # memory_tokens runs x0 @ adapter plus x0 over every selected token
        cfg = preset("micro")
        off = flops_memory_layer_extra(cfg, 3, 16).mem_preprocess
        on = flops_memory_layer_extra(replace(cfg, adapter_enabled=True), 3, 16).mem_preprocess
        d, n_sel = cfg.d_model, cfg.selected_tokens
        assert off.adapter == 0
        assert on.adapter == 3 * n_sel * (2 * d * d + d)
        assert on.total - off.total == on.adapter

    def test_k_projection(self):
        f = flops_memory_layer_extra(FULL, 1, 1024)
        assert f.mem_attention.k == 2 * 4160 * 768 * 768 == 4_907_335_680

    def test_topk_term(self):
        assert flops_memory_layer_extra(FULL, 1, 1024).router.topk == 4097 * 6 == 24_582

    def test_topk_free_when_k_is_one(self):
        assert flops_memory_layer_extra(replace(FULL, top_k=1), 1, 1024).router.topk == 0

    def test_pooling_counts_mean_as_adds_plus_divides(self):
        assert flops_memory_layer_extra(FULL, 1, 1024).router.pool == 768 * 1023 + 768

    def test_dense_config_rejected(self):
        with pytest.raises(ConfigError):
            flops_memory_layer_extra(preset("vanilla-backbone"), 1, 1024)


class TestHeadAndLoss:
    def test_paper_total(self):
        assert flops_head_and_loss(FULL, 1, 1024).total == 77_563_973_632

    def test_lm_head_term(self):
        assert flops_head_and_loss(FULL, 1, 1024).lm_head == 2 * 1024 * 768 * 49152 == 77_309_411_328

    def test_tiny_hand_derived(self):
        # V=2, L=2, d=2: norm 2*(4*2+4), head 2*2*2*2, CE 1*2*5
        f = flops_head_and_loss(ModelConfig(d_model=2, n_layers=1, n_heads=1, n_kv_heads=1, d_ff=1, vocab=2), 1, 2)
        assert (f.norm, f.lm_head, f.ce) == (24, 16, 10)
        assert f.total == 50


class TestModelTotals:
    def test_vanilla_backbone_forward(self):
        assert flops_model(preset("vanilla-backbone"), 1, 1024).forward == 356_363_685_888

    def test_vanilla_iso_forward_and_fwd_bwd(self):
        r = flops_model(preset("vanilla-iso"), 1, 1024)
        assert r.forward == 495_763_542_016
        assert r.fwd_bwd == 1_487_290_626_048

    def test_moc_forward_with_reference_aux(self):
        assert flops_model(FULL, 1, 1024, aux_override=AUX).forward == 459_171_802_488

    def test_backward_is_twice_forward(self):
        r = flops_model(FULL, 1, 1024)
        assert r.backward == 2 * r.forward
        assert r.fwd_bwd == 3 * r.forward

    def test_layer_accounting(self):
        r = flops_model(FULL, 1, 1024, aux_override=AUX)
        assert r.n_standard_layers == 12 and r.n_memory_layers == 4
        want = 16 * r.standard_layer.total + 4 * r.memory_extra.total + r.head.total
        assert r.forward == want

    def test_everything_is_int(self):
        for key, val in flops_model(FULL, 3, 777).flat_items():
            assert type(val) is int, key


class TestStructuralSums:
    """Every total equals the exact sum of its children, checked on the
    serialized tree so the report and the dataclasses cannot drift."""

    @pytest.mark.parametrize("name,b,l", [("moc-paper", 1, 1024), ("micro", 4, 64), ("vanilla-iso", 2, 128)])
    def test_total_equals_sum_of_children(self, name, b, l):
        def check(node):
            if not isinstance(node, dict):
                return
            kids = {k: v for k, v in node.items() if k != "total"}
            for v in kids.values():
                check(v)
            if "total" in node:
                assert node["total"] == sum(v["total"] if isinstance(v, dict) else v for v in kids.values())

        d = flops_model(preset(name), b, l).as_dict()
        for key in ("standard_layer", "head", "memory_layer_extra"):
            if key in d:
                check(d[key])

    def test_memory_layer_total(self):
        r = flops_model(FULL, 1, 1024)
        assert r.memory_layer_total == r.standard_layer.total + r.memory_extra.total
        assert flops_model(preset("vanilla-backbone"), 1, 1024).memory_layer_total == 0

    def test_flat_keys_unique_and_dotted(self):
        items = flops_model(FULL, 1, 1024).flat_items()
        keys = [k for k, _ in items]
        assert len(keys) == len(set(keys))
        assert "standard_layer.self_attention.q" in keys
        assert "memory_layer_extra.router.topk" in keys
        assert "totals.forward" in keys

    def test_flat_keys_pinned(self):
        # bench/tracer.py joins its scopes to these names.
        parts = ["self_attention.q", "self_attention.k", "self_attention.v", "self_attention.o",
                 "self_attention.matmuls", "self_attention.softmax", "self_attention.total", "rope", "norms",
                 "mlp.up", "mlp.gate", "mlp.down", "mlp.activation", "mlp.total", "residuals", "total"]
        extra = ["router.pool", "router.linear", "router.softmax", "router.topk", "router.total", "router_aux",
                 "mem_preprocess.weighting", "mem_preprocess.rmsnorm", "mem_preprocess.adapter",
                 "mem_preprocess.total",
                 "mem_attention.q", "mem_attention.k", "mem_attention.v", "mem_attention.o",
                 "mem_attention.matmuls", "mem_attention.softmax", "mem_attention.total",
                 "extra_norm", "extra_residual", "total"]
        want = (
            ["batch", "seq_len", "n_standard_layers", "n_memory_layers"]
            + [f"standard_layer.{k}" for k in parts]
            + ["head.norm", "head.lm_head", "head.ce", "head.total"]
            + [f"memory_layer_extra.{k}" for k in extra]
            + ["memory_layer_total", "totals.forward", "totals.backward", "totals.fwd_bwd"]
        )
        assert [k for k, _ in flops_model(FULL, 1, 1024).flat_items()] == want

    def test_csv_round_trip(self):
        r = flops_model(FULL, 1, 1024)
        lines = r.to_csv().splitlines()
        assert lines[0] == "component,value"
        parsed = {k: int(v) for k, v in (ln.split(",") for ln in lines[1:])}
        assert parsed == dict(r.flat_items())

    def test_text_report_aligned_with_separators(self):
        text = flops_model(FULL, 1, 1024).to_text()
        line = next(ln for ln in text.splitlines() if ln.startswith("totals.forward"))
        assert "459," in line or "," in line.split()[-1]


class TestScaling:
    def test_batch_nonlinearity_isolated_to_router_aux(self):
        one = dict(flops_model(FULL, 1, 1024).flat_items())
        two = dict(flops_model(FULL, 2, 1024).flat_items())
        meta = {"batch", "seq_len", "n_standard_layers", "n_memory_layers"}
        for key, val in two.items():
            if key in meta:
                continue
            if "router_aux" in key or key.endswith("total") or key.startswith("totals.") or key == "memory_layer_total":
                continue
            assert val == 2 * one[key], f"{key} not linear in batch"
        assert two["memory_layer_extra.router_aux"] != 2 * one["memory_layer_extra.router_aux"]

    def test_aux_override_pins_only_that_line(self):
        base = dict(flops_model(FULL, 1, 1024).flat_items())
        pinned = dict(flops_model(FULL, 1, 1024, aux_override=AUX).flat_items())
        delta = AUX - base["memory_layer_extra.router_aux"]
        for key in base:
            if "router_aux" in key:
                assert pinned[key] == AUX
            elif key in ("memory_layer_extra.total", "memory_layer_total"):
                assert pinned[key] == base[key] + delta
            elif key.startswith("totals."):
                mult = {"totals.forward": 1, "totals.backward": 2, "totals.fwd_bwd": 3}[key]
                assert pinned[key] == base[key] + mult * 4 * delta
            else:
                assert pinned[key] == base[key]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),  # d multiplier (d = 8*a, mem head dim stays even)
        st.integers(2, 6),  # seq len
        st.integers(1, 3),  # chapter_size
        st.integers(5, 9),  # chapters
        st.integers(1, 3),  # top_k
        st.integers(2, 5),  # layers
    )
    def test_strict_monotonicity(self, a, l, t, c, k, n):
        def total(d_model=8 * a, seq=l, chapters=c, top_k=k, size=t, layers=n):
            cfg = replace(
                preset("micro"),
                d_model=d_model,
                n_heads=2,
                n_kv_heads=1,
                mem_heads=2,
                mem_kv_heads=1,
                d_ff=3 * d_model,
                n_layers=layers,
                memory_layer_indices=(0,),
                chapters=chapters,
                shared_chapters=1,
                top_k=top_k,
                chapter_size=size,
                bank_tokens=chapters * size,
            )
            return flops_model(cfg, 1, seq).forward

        base = total()
        assert total(seq=l + 1) > base
        assert total(d_model=8 * a + 8) > base
        assert total(chapters=c + 1) > base
        assert total(top_k=k + 1) > base
        assert total(size=t + 1) > base
        assert total(layers=n + 1) > base

    def test_aux_estimator_batch_terms(self):
        # batch-level reductions are shared: cost(B=2) < 2*cost(B=1)
        assert router_aux_flops(FULL, 2) < 2 * router_aux_flops(FULL, 1)
        assert router_aux_flops(FULL, 2) > router_aux_flops(FULL, 1)


class TestIsoDepthSearch:
    def test_paper_bracket(self):
        r = iso_depth_search(459_171_802_488, preset("vanilla-backbone"), 1, 1024)
        assert r.layers == 22
        assert r.flops == 460_913_577_984
        assert r.lower_layers == 21
        assert r.lower_flops == 443_488_595_968
        assert 0 < r.gap_above < 0.01
        assert 0 < r.gap_below < 0.04

    def test_exact_self_match(self):
        target = flops_model(preset("vanilla-backbone"), 1, 1024).forward
        r = iso_depth_search(target, preset("vanilla-backbone"), 1, 1024)
        assert r.layers == 16
        assert r.flops == target
        assert r.gap_above == 0.0

    def test_head_only_target(self):
        head = flops_head_and_loss(FULL, 1, 1024).total
        r = iso_depth_search(head, FULL, 1, 1024)
        assert r.layers == 0
        assert r.flops == head

    def test_unreachable_target(self):
        head = flops_head_and_loss(FULL, 1, 1024).total
        with pytest.raises(ConfigError):
            iso_depth_search(head - 1, FULL, 1, 1024)
