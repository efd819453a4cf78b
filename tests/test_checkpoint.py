"""Checkpoint format: bit-exact round trips, magic bytes, structured
mismatch diffs, context-length bumping."""

import json
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from chapterbank.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    Checkpoint,
    check_config_match,
    checkpoint_from,
    config_diff,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from chapterbank import ops
from chapterbank.config import preset
from chapterbank.errors import CheckpointMismatch, ConfigError
from chapterbank.model import build_model
from chapterbank.optim import AdamW
from chapterbank.tensor import Parameter, RngState, Tape, Tensor
from conftest import weighted_sum


def micro_model(seed=0, precision="double"):
    return build_model(preset("micro"), RngState(seed), precision=precision)


def stepped_checkpoint(seed=0):
    """Model + optimizer that has genuinely stepped, so moments are nonzero."""
    model = micro_model(seed)
    opt = AdamW(model.params)
    gen = np.random.default_rng(seed)
    for p in model.parameters():
        p.grad = gen.standard_normal(p.shape)
    opt.step({"base": 1e-3, "memory_layers": 1e-3, "memory_bank": 1e-3}, t=1)
    return checkpoint_from(model, step=7, seed=seed, optimizer=opt), model, opt


def _header(raw) -> tuple[int, dict]:
    """The payload base offset and the decoded JSON header of checkpoint bytes."""
    base = 16 + int.from_bytes(raw[8:16], "little")
    return base, json.loads(bytes(raw[16:base]))


def _save_as_version(ckpt, path, version: int) -> None:
    """Save ``ckpt``, then rewrite the header's format_version to ``version``
    (length prefix included)."""
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    base, header = _header(raw)
    header["format_version"] = version
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[base:])


class TestRoundTrip:
    def test_bit_exact_tensors_and_moments(self, tmp_path):
        ckpt, model, opt = stepped_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.step == 7 and back.seed == 0
        assert back.config == model.config
        assert set(back.tensors) == set(model.params)
        for name, p in model.params.items():
            assert back.tensors[name].tobytes() == p.data.tobytes()
        assert set(back.moments) == set(opt.state)
        for name, buf in opt.state.items():
            m, v = back.moments[name]
            assert m.tobytes() == buf["m"].tobytes()
            assert v.tobytes() == buf["v"].tobytes()

    def test_load_then_save_is_byte_identical(self, tmp_path):
        ckpt, _, _ = stepped_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_precision_round_trip(self, tmp_path):
        model = micro_model(precision="single")
        path = tmp_path / "s.ckpt"
        save_checkpoint(checkpoint_from(model), path)
        back = load_checkpoint(path)
        arr = back.tensors["bank.tokens"]
        assert arr.dtype == np.float32
        assert arr.tobytes() == model["bank.tokens"].data.tobytes()

    def test_load_peak_is_one_file(self, tmp_path):
        # each payload is read straight into its array: no whole-file buffer
        path = tmp_path / "m.ckpt"
        save_checkpoint(stepped_checkpoint()[0], path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.moments
        assert peak <= 1.2 * size, f"load peak {peak} B is {peak / size:.2f}x the {size} B file"

    def test_moment_free_checkpoint(self, tmp_path):
        model = micro_model()
        path = tmp_path / "w.ckpt"
        save_checkpoint(checkpoint_from(model, step=3, seed=9), path)
        back = load_checkpoint(path)
        assert back.moments == {}
        assert back.step == 3 and back.seed == 9


class TestZeroMoments:
    """An all-zero moment is snapshot as a shared read-only view; any other
    moment is copied."""

    def test_fresh_optimizer_snapshot_costs_the_weights_only(self):
        model = micro_model(precision="single")
        opt = AdamW(model.params)
        weight_bytes = sum(p.data.nbytes for p in model.params.values())
        tracemalloc.start()
        try:
            ckpt = checkpoint_from(model, optimizer=opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(ckpt.moments) == set(opt.state)
        assert peak < 1.1 * weight_bytes, f"snapshot peak {peak} B is {peak / weight_bytes:.2f}x the weights"

    @pytest.mark.parametrize("one_unstepped", [False, True])
    def test_stepped_moments_are_equal_copies(self, one_unstepped):
        # with one_unstepped, bank.tokens gets no gradient, so its v stays zero
        # and becomes a view beside the stepped moments, which are still copies;
        # its m then gets one non-zero at flat index 1, which lies between the
        # strided sample the snapshot scans first, and is still copied
        model = micro_model()
        opt = AdamW(model.params)
        gen = np.random.default_rng(0)
        for name, p in model.params.items():
            p.grad = None if one_unstepped and name == "bank.tokens" else gen.standard_normal(p.shape)
        opt.step({"base": 1e-3, "memory_layers": 1e-3, "memory_bank": 1e-3}, t=1)
        if one_unstepped:
            opt.state["bank.tokens"]["m"].reshape(-1)[1] = 0.5
        ckpt = checkpoint_from(model, optimizer=opt)
        if one_unstepped:
            assert not ckpt.moments["bank.tokens"][1].flags.writeable
        for name, buf in opt.state.items():
            for kind, arr in zip("mv", ckpt.moments[name]):
                if one_unstepped and name == "bank.tokens" and kind == "v":
                    continue
                assert arr.flags.writeable and arr.tobytes() == buf[kind].tobytes()
                assert not np.shares_memory(arr, buf[kind]), (name, kind)

    def test_a_zero_moment_is_read_only(self):
        model = micro_model()
        ckpt = checkpoint_from(model, optimizer=AdamW(model.params))
        m, v = ckpt.moments["bank.tokens"]
        assert m.shape == v.shape == model["bank.tokens"].shape
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_a_start_snapshot_saves_the_bytes_of_real_zeros(self, tmp_path, precision):
        model = micro_model(precision=precision)
        ckpt = checkpoint_from(model, step=0, seed=4, optimizer=AdamW(model.params))
        zeros = replace(ckpt, moments={name: (np.zeros(m.shape, m.dtype), np.zeros(v.shape, v.dtype))
                                       for name, (m, v) in ckpt.moments.items()})
        save_checkpoint(ckpt, tmp_path / "view.ckpt")
        save_checkpoint(zeros, tmp_path / "zeros.ckpt")
        assert (tmp_path / "view.ckpt").read_bytes() == (tmp_path / "zeros.ckpt").read_bytes()


class TestFileFormat:
    def test_magic_bytes_lead_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(checkpoint_from(micro_model()), path)
        assert path.read_bytes()[:8] == MAGIC == b"MOCCKPT1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v.ckpt"
        _save_as_version(checkpoint_from(micro_model()), path, FORMAT_VERSION + 1)
        with pytest.raises(ConfigError, match="version"):
            load_checkpoint(path)

    def test_version_1_files_are_not_read(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        _save_as_version(checkpoint_from(micro_model()), path, 1)
        with pytest.raises(ConfigError, match="format version 1"):
            load_checkpoint(path)

    def test_a_shape_whose_element_count_wraps_int64_is_rejected(self, tmp_path):
        # 2**32 * 2**32 elements wrap to 0 in int64, which would match an nbytes of 0
        path = tmp_path / "huge.ckpt"
        save_checkpoint(checkpoint_from(micro_model()), path)
        raw = path.read_bytes()
        base, header = _header(raw)
        header["tensors"][0].update(shape=[2**32, 2**32], nbytes=0)
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[base:])
        with pytest.raises(ConfigError, match=r"has 0 bytes for shape \[4294967296, 4294967296\]"):
            load_checkpoint(path)

    def test_each_entry_carries_the_crc32_of_its_payload(self, tmp_path):
        ckpt, _, _ = stepped_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        base, header = _header(raw)
        assert header["format_version"] == FORMAT_VERSION == 2
        for e in header["tensors"]:
            start = base + e["offset"]
            assert e["crc32"] == zlib.crc32(raw[start : start + e["nbytes"]]), e["name"]

    @pytest.mark.parametrize("name", ["bank.tokens", "optim.v.final_norm.gain"])
    def test_a_flipped_payload_byte_fails_the_crc_naming_the_tensor(self, tmp_path, name):
        ckpt, _, _ = stepped_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        base, header = _header(raw)
        entry = next(e for e in header["tensors"] if e["name"] == name)
        raw[base + entry["offset"] + entry["nbytes"] - 1] ^= 0x80
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match=f"tensor {name} fails its CRC-32 check"):
            load_checkpoint(path)

    def test_payloads_are_little_endian_and_offset_addressed(self, tmp_path):
        import json
        import struct

        ckpt, _, _ = stepped_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        entries = {e["name"]: e for e in header["tensors"]}
        assert header["rng"]["seed"] == 0
        e = entries["bank.tokens"]
        start = 16 + hlen + e["offset"]
        again = np.frombuffer(raw[start : start + e["nbytes"]], dtype="<f8").reshape(e["shape"])
        np.testing.assert_array_equal(again, ckpt.tensors["bank.tokens"])
        assert "optim.m.bank.tokens" in entries and "optim.v.bank.tokens" in entries


class TestConfigDiff:
    def test_equal_configs_no_diff(self):
        assert config_diff(preset("micro"), preset("micro")) == {}
        check_config_match(preset("micro"), preset("micro"))

    def test_structured_diff_lists_each_field(self):
        a = preset("micro")
        b = replace(a, top_k=2, d_ff=256)
        diff = config_diff(a, b)
        assert diff == {
            "top_k": {"expected": 4, "checkpoint": 2},
            "d_ff": {"expected": 192, "checkpoint": 256},
        }
        with pytest.raises(CheckpointMismatch) as err:
            check_config_match(a, b)
        assert err.value.diff == diff
        assert "top_k: expected 4, found 2" in str(err.value)

    def test_ignore_set(self):
        a = preset("micro")
        b = replace(a, max_seq_len=128)
        assert config_diff(a, b, ignore={"max_seq_len"}) == {}
        with pytest.raises(CheckpointMismatch):
            check_config_match(a, b)


class TestApply:
    """The restore checks, through the two functions that make them."""

    def test_apply_restores_weights(self):
        ckpt, model, _ = stepped_checkpoint()
        restored = model_from_checkpoint(ckpt)
        for name, p in restored.params.items():
            np.testing.assert_array_equal(p.data, model[name].data)

    def test_mismatched_config_rejected(self):
        ckpt, _, _ = stepped_checkpoint()
        with pytest.raises(CheckpointMismatch) as err:
            check_config_match(replace(preset("micro"), d_ff=256), ckpt.config)
        assert err.value.diff == {"d_ff": {"expected": 256, "checkpoint": 192}}

    def test_tensor_table_mismatch_is_structured(self):
        ckpt, _, _ = stepped_checkpoint()
        dropped = ckpt.tensors.pop("layers.0.attn.wq")
        ckpt.tensors["layers.0.attn.wq_typo"] = dropped
        with pytest.raises(CheckpointMismatch) as err:
            model_from_checkpoint(ckpt)
        table = err.value.diff["tensor_table"]
        assert table["missing"] == ["layers.0.attn.wq"]
        assert table["unexpected"] == ["layers.0.attn.wq_typo"]

    def test_shape_mismatch_names_tensor(self):
        ckpt, _, _ = stepped_checkpoint()
        ckpt.tensors["final_norm.gain"] = np.zeros(65)
        with pytest.raises(CheckpointMismatch) as err:
            model_from_checkpoint(ckpt)
        assert "final_norm.gain" in err.value.diff


class TestModelFromCheckpoint:
    def test_rebuild_preserves_weights_and_precision(self, tmp_path):
        ckpt, model, _ = stepped_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        rebuilt = model_from_checkpoint(load_checkpoint(path))
        for name, p in rebuilt.params.items():
            assert p.precision == "double"
            np.testing.assert_array_equal(p.data, model[name].data)

    def test_max_seq_len_bump(self):
        ckpt, _, _ = stepped_checkpoint()
        longer = model_from_checkpoint(ckpt, max_seq_len=128)
        assert longer.config.max_seq_len == 128
        assert replace(longer.config, max_seq_len=64) == preset("micro")

    def test_max_seq_len_never_shrinks(self):
        ckpt, _, _ = stepped_checkpoint()
        assert model_from_checkpoint(ckpt, max_seq_len=16).config.max_seq_len == 64

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_restore_draws_no_random_init(self, tmp_path, monkeypatch, precision):
        model = micro_model(3, precision)
        path, again = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(checkpoint_from(model, step=2, seed=3), path)

        def no_draws(self, *labels):
            raise AssertionError(f"restore drew from substream {labels}")

        monkeypatch.setattr(RngState, "substream", no_draws)
        rebuilt = model_from_checkpoint(load_checkpoint(path))
        assert list(rebuilt.params) == list(model.params)
        for name, p in rebuilt.params.items():
            assert p.precision == model[name].precision == precision
            np.testing.assert_array_equal(p.data, model[name].data)
            assert p.group == model[name].group and p.grad is None
        save_checkpoint(checkpoint_from(rebuilt, step=2, seed=3), again)
        assert again.read_bytes() == path.read_bytes()

    def test_restore_copies_the_checkpoint_arrays(self):
        ckpt, _, _ = stepped_checkpoint()
        before = ckpt.tensors["bank.tokens"].copy()
        model_from_checkpoint(ckpt)["bank.tokens"].data[...] = 0.0
        np.testing.assert_array_equal(ckpt.tensors["bank.tokens"], before)

    def test_a_parameter_is_a_tensor_and_a_saved_header_holds_the_format_version(self, tmp_path):
        p = Parameter(np.arange(6.0).reshape(3, 2), "w", "base")
        assert isinstance(p, Tensor) and p.requires_grad and p.grad is None
        assert p.value is p  # bench/ reads p.value.data
        with Tape() as tape:
            rows = ops.gather_rows(p, np.array([2, 0, 2]))
            np.testing.assert_array_equal(rows.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
            tape.backward(weighted_sum(ops.add(rows, rows)))
        np.testing.assert_array_equal(p.dense_grad(), [[2.0, 2.0], [0.0, 0.0], [4.0, 4.0]])

        path, again = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(checkpoint_from(micro_model()), path)
        save_checkpoint(load_checkpoint(path), again)
        for saved in (path, again):
            assert _header(saved.read_bytes())[1]["format_version"] == FORMAT_VERSION

    def test_restore_rejects_table_and_shape_mismatch(self):
        ckpt, _, _ = stepped_checkpoint()
        ckpt.tensors["layers.0.attn.wq_typo"] = ckpt.tensors.pop("layers.0.attn.wq")
        with pytest.raises(CheckpointMismatch) as err:
            model_from_checkpoint(ckpt)
        assert err.value.diff["tensor_table"] == {"missing": ["layers.0.attn.wq"], "unexpected": ["layers.0.attn.wq_typo"]}
        ckpt, _, _ = stepped_checkpoint()
        ckpt.tensors["final_norm.gain"] = np.zeros(65)
        with pytest.raises(CheckpointMismatch) as err:
            model_from_checkpoint(ckpt)
        assert err.value.diff == {"final_norm.gain": {"expected": [64], "checkpoint": [65]}}


class FailingWrites:
    """A binary file whose writes raise once ``limit`` bytes have gone through."""

    def __init__(self, f, limit):
        self.f, self.left = f, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        if len(data) > self.left:
            self.f.write(data[: self.left])
            raise OSError(28, "No space left on device")
        self.left -= len(data)
        return self.f.write(data)


class TestAtomicWrite:
    @pytest.mark.parametrize("limit", [0, 5, 100, 20_000])
    def test_failed_write_leaves_destination_and_no_temp(self, tmp_path, monkeypatch, limit):
        import chapterbank.checkpoint as ckpt_module

        path = tmp_path / "final.ckpt"
        save_checkpoint(checkpoint_from(micro_model(1)), path)
        original = path.read_bytes()
        monkeypatch.setattr(ckpt_module, "open", lambda p, mode: FailingWrites(open(p, mode), limit), raising=False)
        with pytest.raises(OSError):
            save_checkpoint(checkpoint_from(micro_model(2)), path)
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == ["final.ckpt"]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        import chapterbank.checkpoint as ckpt_module

        monkeypatch.setattr(ckpt_module, "open", lambda p, mode: FailingWrites(open(p, mode), 50), raising=False)
        with pytest.raises(OSError):
            save_checkpoint(checkpoint_from(micro_model(1)), tmp_path / "new.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "final.ckpt"
        save_checkpoint(checkpoint_from(micro_model(1)), path)
        save_checkpoint(checkpoint_from(micro_model(2), step=5), path)
        assert load_checkpoint(path).step == 5
        assert [p.name for p in tmp_path.iterdir()] == ["final.ckpt"]
