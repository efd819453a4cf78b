"""AdamW trajectory oracles, weight-decay scoping, freezing, clipping."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chapterbank import ops, optim
from chapterbank.config import preset
from chapterbank.errors import ConfigError, NumericError
from chapterbank.model import build_model
from chapterbank.optim import BLOCK, AdamW, AdamWConfig, clip_grad_norm, global_grad_norm
from chapterbank.schedule import cosine
from chapterbank.tensor import Parameter, RngState, RowGrad, Tape
from chapterbank.train import TrainConfig, make_synthetic_corpus, resume_train, train


def make_param(data, name="p", group="base"):
    return Parameter(np.asarray(data, dtype=np.float64), name, group)


def uniform_lrs(lr):
    return {"base": lr, "memory_layers": lr, "memory_bank": lr}


class TestAdamTrajectory:
    def test_two_steps_on_scalar_quadratic_match_hand_oracle(self):
        # f(theta) = theta^2, grad = 2*theta; wd=0 so the trajectory is
        # pure Adam. The oracle below carries out the textbook recurrence
        # in independent scalar arithmetic.
        b1, b2, eps, lr = 0.9, 0.95, 1e-8, 0.1
        theta = 1.3
        m = v = 0.0
        want = []
        for t in (1, 2):
            g = 2.0 * theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
            want.append(theta)

        p = make_param([1.3])
        opt = AdamW({"p": p}, AdamWConfig(betas=(b1, b2), eps=eps, weight_decay=0.0))
        got = []
        for t in (1, 2):
            p.grad = 2.0 * p.data
            opt.step(uniform_lrs(lr), t)
            got.append(float(p.data[0]))
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12

    def test_first_step_is_negative_lr_sign_of_grad(self):
        p = make_param(np.zeros((2, 2)))
        g = np.array([[3.0, -40.0], [1e6, -2e-3]])
        p.grad = g.copy()
        opt = AdamW({"p": p}, AdamWConfig(weight_decay=0.0))
        opt.step(uniform_lrs(0.01), t=1)
        # m_hat/(sqrt(v_hat)+eps) = g/(|g|+eps) ~ sign(g) for |g| >> eps
        np.testing.assert_allclose(p.data, -0.01 * np.sign(g), rtol=1e-5)

    def test_zero_grad_pure_decay(self):
        start = np.array([[2.0, -3.0], [0.5, 8.0]])
        p = make_param(start.copy())
        opt = AdamW({"p": p}, AdamWConfig(weight_decay=0.1))
        opt.step(uniform_lrs(0.2), t=1)
        np.testing.assert_allclose(p.data, start * (1 - 0.2 * 0.1), atol=1e-15)

    def test_decay_skips_vectors(self):
        gain = make_param(np.full(4, 2.0), name="gain")  # ndim 1: exempt
        opt = AdamW({"gain": gain}, AdamWConfig(weight_decay=0.1))
        opt.step(uniform_lrs(0.2), t=1)
        np.testing.assert_array_equal(gain.data, np.full(4, 2.0))

    def test_decay_set_is_matrix_shaped_params_only(self):
        params = {
            "w": make_param(np.zeros((3, 3)), "w"),
            "gain": make_param(np.zeros(3), "gain"),
            "bias": make_param(np.zeros(5), "bias"),
            "bank": make_param(np.zeros((4, 2)), "bank", group="memory_bank"),
        }
        opt = AdamW(params)
        assert opt.decay_names == {"w", "bank"}

    def test_bias_correction_requires_positive_step(self):
        opt = AdamW({"p": make_param([1.0])})
        with pytest.raises(ConfigError):
            opt.step(uniform_lrs(0.1), t=0)


class TestGroupsAndFreezing:
    def _params(self):
        return {
            "w": make_param(np.ones((2, 2)), "w", "base"),
            "mem": make_param(np.ones((2, 2)), "mem", "memory_layers"),
            "bank": make_param(np.ones((8, 4)), "bank", "memory_bank"),
        }

    def test_frozen_group_has_no_state_and_is_never_touched(self):
        params = self._params()
        before = params["bank"].data.copy()
        opt = AdamW(params, frozen_groups={"memory_bank"})
        assert "bank" not in opt.state
        assert not params["bank"].requires_grad and params["bank"].grad is None
        for t in range(1, 4):
            for _, p in opt.trainable():
                p.grad = np.ones(p.shape)
            opt.step(uniform_lrs(0.1), t)
        np.testing.assert_array_equal(params["bank"].data, before)
        assert params["w"].data[0, 0] != 1.0

    def test_state_element_count_shrinks_by_two_per_frozen_element(self):
        params = self._params()
        full = AdamW(params).state_element_count()
        frozen = AdamW(params, frozen_groups={"memory_bank"}).state_element_count()
        assert full - frozen == 2 * params["bank"].size

    def test_audit_records_group_lr(self, applied_lrs):
        params = self._params()
        opt = AdamW(params)
        lrs = {"base": 0.1, "memory_layers": 0.02, "memory_bank": 0.003}
        for p in params.values():
            p.grad = np.full(p.shape, 0.5)
        opt.step(lrs, t=1)
        opt.step({**lrs, "base": 0.05}, t=2)
        assert applied_lrs == [lrs, {**lrs, "base": 0.05}]
        frozen = AdamW(params, frozen_groups={"memory_bank"})
        frozen.step(lrs, t=1)
        assert applied_lrs[2:] == [{"base": 0.1, "memory_layers": 0.02}]

    def test_different_group_lrs_change_update_magnitude(self):
        params = self._params()
        opt = AdamW(params, AdamWConfig(weight_decay=0.0))
        for p in params.values():
            p.grad = np.ones(p.shape)
        opt.step({"base": 0.1, "memory_layers": 0.01, "memory_bank": 0.0}, t=1)
        assert abs(params["w"].data[0, 0] - 0.9) < 1e-6
        assert abs(params["mem"].data[0, 0] - 0.99) < 1e-6
        np.testing.assert_array_equal(params["bank"].data, np.ones((8, 4)))

    def test_unknown_frozen_group_rejected(self):
        with pytest.raises(ConfigError):
            AdamW(self._params(), frozen_groups={"bank"})

    def test_load_moments_round_trip_and_rejections(self):
        params = self._params()
        opt = AdamW(params, frozen_groups={"memory_bank"})
        for _, p in opt.trainable():
            p.grad = np.full(p.shape, 0.3)
        opt.step(uniform_lrs(0.1), t=1)
        saved = {n: (buf["m"].copy(), buf["v"].copy()) for n, buf in opt.state.items()}

        fresh = AdamW(self._params(), frozen_groups={"memory_bank"})
        fresh.load_moments(saved)
        for n in saved:
            np.testing.assert_array_equal(fresh.state[n]["m"], opt.state[n]["m"])
            np.testing.assert_array_equal(fresh.state[n]["v"], opt.state[n]["v"])

        with pytest.raises(ConfigError):
            fresh.load_moments({"bank": (np.zeros((8, 4)), np.zeros((8, 4)))})  # frozen
        with pytest.raises(ConfigError):
            fresh.load_moments({"ghost": (np.zeros(1), np.zeros(1))})
        with pytest.raises(ConfigError):
            fresh.load_moments({"w": (np.zeros(3), np.zeros(3))})  # wrong shape


def old_formula_step(params, state, lrs, t, cfg, frozen):
    """The update as written with a full-size temporary per operation."""
    b1, b2 = cfg.betas
    for name, p in params.items():
        if p.group in frozen:
            continue
        g, m, v = p.grad, state[name]["m"], state[name]["v"]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m * (1.0 / (1.0 - b1**t))) / (np.sqrt(v * (1.0 / (1.0 - b2**t))) + cfg.eps)
        if p.ndim >= 2:
            update = update + cfg.weight_decay * p.data
        p.data -= lrs[p.group] * update


class TestInPlaceStep:
    def _params(self, dtype, seed):
        gen = np.random.default_rng(seed)
        shapes = {"w": ((5, 3), "base"), "gain": ((3,), "base"), "mem": ((4, 4), "memory_layers"),
                  "bank": ((16, 3), "memory_bank")}
        return {
            name: Parameter(gen.standard_normal(shape).astype(dtype), name, group)
            for name, (shape, group) in shapes.items()
        }

    @staticmethod
    def _five_steps_match(opt, params, ref, lrs, frozen, seed):
        """Step ``opt`` and the old formula over ``ref`` five times on the same
        random grads; weights and moments must agree bit for bit."""
        dtype = next(iter(params.values())).data.dtype
        state = {n: {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
                 for n, p in ref.items() if p.group not in frozen}
        gen = np.random.default_rng(seed)
        for t in range(1, 6):
            for name in params:
                g = np.asarray(gen.standard_normal(params[name].shape)).astype(dtype)
                if name in opt.state:  # a frozen parameter has no grad
                    params[name].grad = g.copy()
                ref[name].grad = g
            opt.step(lrs, t)
            old_formula_step(ref, state, lrs, t, opt.cfg, frozen)
        for name, p in params.items():
            assert p.data.dtype == dtype
            np.testing.assert_array_equal(p.data, ref[name].data)
            if name in state:
                np.testing.assert_array_equal(opt.state[name]["m"], state[name]["m"])
                np.testing.assert_array_equal(opt.state[name]["v"], state[name]["v"])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_five_steps_match_the_old_formula_bit_for_bit(self, dtype):
        frozen = {"memory_bank"}
        params, ref = self._params(dtype, 0), self._params(dtype, 0)
        opt = AdamW(params, AdamWConfig(weight_decay=0.1), frozen_groups=frozen)
        self._five_steps_match(opt, params, ref, {"base": 0.01, "memory_layers": 0.003, "memory_bank": 0.5}, frozen, 1)
        np.testing.assert_array_equal(params["bank"].data, self._params(dtype, 0)["bank"].data)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_segments_spanning_params_of_mixed_decay_match_bit_for_bit(self, dtype):
        # one group holds matrices and vectors, so it splits into a decay and
        # a no-decay segment of several parameters each; the largest matrix
        # alone spans more than one block
        gen = np.random.default_rng(3)
        shapes = (("w1", (5, 3)), ("gain1", (3,)), ("big", (BLOCK // 64 + 7, 64)), ("bias", (17,)),
                  ("w2", (4, 6)), ("gain2", (6,)), ("scalar", ()))
        init = {name: np.asarray(gen.standard_normal(shape)).astype(dtype) for name, shape in shapes}
        params, ref = ({name: Parameter(a.copy(), name, "base") for name, a in init.items()} for _ in range(2))
        opt = AdamW(params, AdamWConfig(weight_decay=0.1))
        assert [seg.names for seg in opt.segments] == [("w1", "big", "w2"), ("gain1", "bias", "gain2", "scalar")]
        assert opt.segments[0].data.size > BLOCK
        self._five_steps_match(opt, params, ref, uniform_lrs(0.02), set(), 4)

    def test_step_peak_is_two_scratch_buffers(self):
        gen = np.random.default_rng(2)
        params = {
            name: Parameter(gen.standard_normal(shape), name, "base")
            for name, shape in (("big", (256, 128)), ("mid", (64, 64)), ("gain", (128,)))
        }
        for p in params.values():
            p.grad = gen.standard_normal(p.shape)
        opt = AdamW(params)
        tracemalloc.start()
        try:
            opt.step(uniform_lrs(1e-3), t=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = params["big"].data.nbytes
        assert peak <= 2.5 * largest, f"step peak {peak} B is {peak / largest:.2f}x the largest parameter"


def segment_of(opt, name):
    return next(seg for seg in opt.segments if name in seg.names)


def assert_adopted(model, opt):
    """Every trainable parameter's data and moments view its segment, and
    it holds no grad."""
    trainable = dict(opt.trainable())
    assert trainable
    for name, p in trainable.items():
        seg = segment_of(opt, name)
        assert np.shares_memory(p.data, seg.data), name
        assert p.grad is None, name
        assert np.shares_memory(opt.state[name]["m"], seg.m), name
        assert np.shares_memory(opt.state[name]["v"], seg.v), name
        assert model.params[name] is p


class TestFlatSegments:
    CORPUS = make_synthetic_corpus(vocab=256, length=4096, seed=1)

    def _cfg(self, **over):
        return TrainConfig(**{**dict(steps=4, batch_size=2, seq_len=16, schedule=cosine(1), eval_every=2, seed=5), **over})

    def test_one_segment_per_dtype_group_and_decay_class(self):
        model = build_model(preset("micro"), RngState(0))
        before = {name: p.data.copy() for name, p in model.params.items()}
        opt = AdamW(model.params)
        keys = [(seg.data.dtype, seg.group, seg.decay) for seg in opt.segments]
        assert len(keys) == len(set(keys))
        assert sorted(n for seg in opt.segments for n in seg.names) == sorted(model.params)
        for seg in opt.segments:
            assert seg.data.ndim == 1 and seg.data.size == sum(model.params[n].size for n in seg.names)
            assert {model.params[n].group for n in seg.names} == {seg.group}
            assert {n in opt.decay_names for n in seg.names} == {seg.decay}
        assert_adopted(model, opt)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name])
            assert p.data.flags.c_contiguous

    def test_views_survive_zero_grads_train_and_resume(self):
        model = build_model(preset("micro"), RngState(0))
        opt = AdamW(model.params)
        for p in model.params.values():
            p.grad = np.ones_like(p.data)
        model.zero_grads()
        assert_adopted(model, opt)
        cfg = self._cfg()
        result = train(model, self.CORPUS, cfg, optimizer=opt)
        assert result.optimizer is opt
        assert_adopted(result.model, opt)
        half_cfg = self._cfg(steps=2, schedule=cfg.schedule.with_total_steps(cfg.steps))
        half = train(build_model(preset("micro"), RngState(0)), self.CORPUS, half_cfg)
        resumed = resume_train(half.checkpoint, self.CORPUS, cfg)
        assert_adopted(resumed.model, resumed.optimizer)
        for name, p in resumed.model.params.items():
            np.testing.assert_array_equal(p.data, result.model.params[name].data)

    def test_zero_grads_allocates_nothing(self):
        model = build_model(preset("micro"), RngState(0))
        AdamW(model.params)
        model.zero_grads()
        tracemalloc.start()
        try:
            model.zero_grads()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024, f"zero_grads allocated {peak} B"

    def test_frozen_bank_is_not_adopted_and_never_changes(self):
        model = build_model(preset("micro"), RngState(0))
        bank = model.params["bank.tokens"]
        data, before = bank.data, bank.data.copy()
        opt = AdamW(model.params, frozen_groups={"memory_bank"})
        assert bank.data is data
        assert all("bank.tokens" not in seg.names and not np.shares_memory(data, seg.data) for seg in opt.segments)
        assert "bank.tokens" not in opt.state
        result = train(model, self.CORPUS, self._cfg(bank_mode="frozen"), optimizer=opt)
        assert result.model.params["bank.tokens"].data is data
        np.testing.assert_array_equal(data, before)

    def test_a_parameter_belongs_to_the_last_optimizer_built_over_it(self):
        params = {"w": make_param(np.ones((2, 2)), "w")}
        first, second = AdamW(params), AdamW(params)
        assert np.shares_memory(params["w"].data, second.segments[0].data)
        assert not np.shares_memory(params["w"].data, first.segments[0].data)

    def test_nan_in_the_middle_of_a_segment_names_it_and_changes_nothing(self):
        params = {name: make_param(np.full((3, 2), 1.0 + i), name) for i, name in enumerate(("a", "mid", "c"))}
        for p in params.values():
            p.grad = np.full((3, 2), 0.5)
        opt = AdamW(params)
        assert len(opt.segments) == 1 and opt.segments[0].names == ("a", "mid", "c")
        params["mid"].grad[1, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite gradient in mid"):
            opt.step(uniform_lrs(0.1), t=1)
        for i, (name, p) in enumerate(params.items()):
            np.testing.assert_array_equal(p.data, np.full((3, 2), 1.0 + i))
            np.testing.assert_array_equal(opt.state[name]["m"], np.zeros((3, 2)))
            np.testing.assert_array_equal(opt.state[name]["v"], np.zeros((3, 2)))
            assert p.grad is not None  # an aborted step consumes no gradient

    def test_first_bad_parameter_in_parameter_order_is_named(self):
        params = {name: make_param(np.ones(shape), name) for name, shape in (("w1", (2, 2)), ("gain", 2), ("w2", (2, 2)))}
        opt = AdamW(params)
        assert [seg.names for seg in opt.segments] == [("w1", "w2"), ("gain",)]
        params["gain"].grad = np.array([np.nan, 1.0])
        params["w2"].grad = np.array([[np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericError, match="in gain;"):
            opt.step(uniform_lrs(0.1), t=1)

    def test_load_moments_writes_into_the_segments(self):
        params = {"w": make_param(np.ones((2, 2)), "w"), "gain": make_param(np.ones(2), "gain")}
        opt = AdamW(params)
        m, v = np.full((2, 2), 0.25), np.full((2, 2), 0.5)
        opt.load_moments({"w": (m, v)})
        seg = segment_of(opt, "w")
        np.testing.assert_array_equal(seg.m, m.ravel())
        np.testing.assert_array_equal(seg.v, v.ravel())
        assert np.shares_memory(opt.state["w"]["m"], seg.m) and opt.state["w"]["m"] is not m

    @pytest.mark.parametrize("bad_v", [np.zeros(4), np.zeros((1,)), np.zeros((2, 1))])
    def test_load_moments_rejects_a_v_of_another_shape(self, bad_v):
        params = {"w": make_param(np.ones((2, 2)), "w")}
        opt = AdamW(params)
        with pytest.raises(ConfigError, match="moment v shape"):
            opt.load_moments({"w": (np.full((2, 2), 0.25), bad_v)})
        np.testing.assert_array_equal(opt.segments[0].m, np.zeros(4))  # nothing written

    def test_load_moments_rejects_moments_of_another_dtype(self):
        # float64 moments would otherwise be rounded into float32 segments
        params = {"w": Parameter(np.ones((2, 2), np.float32), "w", "base"),
                  "b": Parameter(np.ones(2, np.float32), "b", "base")}
        opt = AdamW(params)
        good = (np.full((2, 2), 0.25, np.float32), np.full((2, 2), 0.5, np.float32))
        with pytest.raises(ConfigError, match=r"moment v dtype float64 does not match parameter 'b' \(float32\)"):
            opt.load_moments({"w": good, "b": (np.zeros(2, np.float32), np.full(2, 0.1))})
        for seg in opt.segments:  # nothing written, not even w's
            assert not seg.m.any() and not seg.v.any()


class TestGradLifetime:
    """A parameter holds a gradient only from the backward that reaches it
    to the step that applies it."""

    def test_a_fresh_parameter_holds_no_grad(self):
        assert make_param(np.ones((2, 3))).grad is None

    def test_zero_grads_frees_the_gradient_bytes(self):
        model = build_model(preset("micro"), RngState(0))
        AdamW(model.params)
        tracemalloc.start()
        try:
            for p in model.params.values():
                p.grad = np.ones_like(p.data)
            held = tracemalloc.get_traced_memory()[0]
            model.zero_grads()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        nbytes = sum(p.data.nbytes for p in model.params.values())
        assert all(p.grad is None for p in model.params.values())
        assert freed >= nbytes, f"zero_grads freed {freed} of {nbytes} B"

    def test_step_consumes_every_trainable_grad(self):
        params = {"w": make_param(np.ones((2, 2)), "w"), "gain": make_param(np.ones(3), "gain"),
                  "bank": make_param(np.ones((4, 2)), "bank", "memory_bank")}
        opt = AdamW(params, frozen_groups={"memory_bank"})
        for _, p in opt.trainable():
            p.grad = np.ones(p.shape)
        opt.step(uniform_lrs(0.1), t=1)
        assert all(p.grad is None for p in params.values())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_an_unreached_parameter_steps_as_an_explicit_zero_grad(self, dtype):
        # "big" spans blocks that lie inside it and "gain" sits in a block
        # assembled from several parameters; after a first step that gives
        # them moments, no backward reaches them in the next two
        gen = np.random.default_rng(5)
        shapes = (("big", (BLOCK // 64 + 7, 64)), ("w", (4, 6)), ("gain", (6,)), ("bias", (9,)))
        init = {name: np.asarray(gen.standard_normal(shape)).astype(dtype) for name, shape in shapes}
        unreached, zeroed = ({name: Parameter(a.copy(), name, "base") for name, a in init.items()} for _ in range(2))
        opts = [AdamW(params, AdamWConfig(weight_decay=0.1)) for params in (unreached, zeroed)]
        for t in range(1, 4):
            for name, shape in shapes:
                g = np.asarray(gen.standard_normal(shape)).astype(dtype)
                skipped = t > 1 and name in ("big", "gain")
                if not skipped:
                    unreached[name].grad = g.copy()
                zeroed[name].grad = np.zeros_like(g) if skipped else g
            for opt in opts:
                opt.step(uniform_lrs(0.02), t)
        for name, _ in shapes:
            assert unreached[name].data.tobytes() == zeroed[name].data.tobytes(), name
            for kind in "mv":
                assert opts[0].state[name][kind].tobytes() == opts[1].state[name][kind].tobytes(), name
        assert (unreached["big"].data != init["big"] * (1 - 0.02 * 0.1)).any()  # moments moved it, not decay alone

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_first_gradient_is_stored_as_handed_over(self, dtype):
        p = Parameter(np.ones(3, dtype), "p", "base")
        g = np.array([-0.0, 2.0, -0.0], dtype)
        p.accumulate_grad(g)
        assert p.grad is g  # not copied, and its -0.0 kept
        assert np.signbit(p.grad).tolist() == [True, False, True]
        p.accumulate_grad(np.array([-0.0, -2.0, 1.0], dtype))
        assert p.grad.tobytes() == np.array([-0.0, 0.0, 1.0], dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_the_sign_of_a_zero_gradient_changes_no_step(self, dtype):
        # two runs whose gradients differ only in the sign of their exact zeros;
        # "big" spans whole blocks, "w" and "gain" share one, and "gain" gets an
        # all-zero gradient at step 1
        gen = np.random.default_rng(2)
        shapes = (("big", (BLOCK // 64 + 7, 64)), ("w", (4, 6)), ("gain", (6,)))
        init = {name: gen.standard_normal(shape).astype(dtype) for name, shape in shapes}
        runs = [{name: Parameter(a.copy(), name, "base") for name, a in init.items()} for _ in range(2)]
        opts = [AdamW(params, AdamWConfig(weight_decay=0.1)) for params in runs]
        for t in range(1, 4):
            for name, shape in shapes:
                g = gen.standard_normal(shape).astype(dtype)
                g[gen.random(shape) < (1.0 if t == 1 and name == "gain" else 0.5)] = 0.0
                negative = g.copy()
                negative[g == 0.0] = -0.0
                assert np.signbit(negative[g == 0.0]).all() and not np.signbit(g[g == 0.0]).any()
                runs[0][name].accumulate_grad(g)
                runs[1][name].accumulate_grad(negative)
            for opt in opts:
                opt.step(uniform_lrs(0.02), t)
        for name, _ in shapes:
            assert runs[0][name].data.tobytes() == runs[1][name].data.tobytes(), name
            for kind in "mv":
                assert opts[0].state[name][kind].tobytes() == opts[1].state[name][kind].tobytes(), (name, kind)

    @pytest.mark.parametrize("over", [{}, {"tied_embeddings": False, "adapter_enabled": True}],
                             ids=["tied", "untied-adapter"])
    def test_every_gradient_of_a_micro_backward_is_row_major(self, over):
        # the optimizer reads each gradient through flat views
        model = build_model(replace(preset("micro"), **over), RngState(0))
        tokens = np.random.default_rng(0).integers(0, 256, (3, 13))
        with Tape() as tape:
            trace = model.forward(tokens, tokens)
        tape.backward(trace.loss)
        grads = {name: p.stored_grad() for name, p in model.params.items()}
        assert all(g is not None and g.flags.c_contiguous for g in grads.values()), \
            [name for name, g in grads.items() if g is None or not g.flags.c_contiguous]


class TestNonFiniteGuard:
    def test_nan_grad_aborts_naming_param_without_partial_update(self):
        params = {
            "a": make_param(np.ones(3), "a"),
            "bad": make_param(np.ones(3), "bad"),
        }
        params["a"].grad = np.ones(3)
        params["bad"].grad = np.array([0.0, np.nan, 0.0])
        opt = AdamW(params)
        with pytest.raises(NumericError, match="bad"):
            opt.step(uniform_lrs(0.1), t=1)
        np.testing.assert_array_equal(params["a"].data, np.ones(3))
        np.testing.assert_array_equal(opt.state["a"]["m"], np.zeros(3))

    @pytest.mark.parametrize("bad", ["final_norm.gain", "big"])
    def test_a_non_finite_grad_leaves_every_byte_of_a_stepped_optimizer(self, bad):
        # every micro parameter is smaller than a block, so its gains share
        # blocks with other parameters; "big" owns whole blocks of its segment
        params = dict(build_model(preset("micro"), RngState(3)).params)
        params["big"] = Parameter(np.ones((2, BLOCK), params["final_norm.gain"].data.dtype), "big", "base")
        opt = AdamW(params)
        gen = np.random.default_rng(3)

        def fill_grads():
            for p in params.values():
                p.grad = gen.standard_normal(p.shape).astype(p.data.dtype)

        fill_grads()
        opt.step(uniform_lrs(0.1), t=1)  # so the moments are not zero
        fill_grads()
        blocks = [pieces for seg in opt.segments for pieces in seg.blocks
                  if any(p is params[bad] for p, _, _ in pieces)]
        owned = [pieces[0] for pieces in blocks if len(pieces) == 1]
        assert bool(owned) == (bad == "big")
        _, start, _ = owned[0] if owned else next(piece for piece in blocks[0] if piece[0] is params[bad])
        params[bad].grad.reshape(-1)[start] = np.nan
        bufs = [buf for seg in opt.segments for buf in (seg.data, seg.m, seg.v)]
        before = [buf.tobytes() for buf in bufs]
        with pytest.raises(NumericError, match=rf"^non-finite gradient in {bad}; step aborted$"):
            opt.step(uniform_lrs(0.1), t=2)
        assert [buf.tobytes() for buf in bufs] == before
        assert all(p.grad is not None for p in params.values())  # an aborted step consumes no gradient

    def test_inf_grad_also_aborts(self):
        p = make_param(np.ones(2))
        p.grad = np.array([np.inf, 0.0])
        with pytest.raises(NumericError):
            AdamW({"p": p}).step(uniform_lrs(0.1), t=1)

    def test_frozen_group_grads_are_not_checked(self):
        params = {
            "w": make_param(np.ones(2), "w"),
            "bank": make_param(np.ones(2), "bank", "memory_bank"),
        }
        params["bank"].grad = np.full(2, np.nan)
        AdamW(params, frozen_groups={"memory_bank"}).step(uniform_lrs(0.1), t=1)


class TestAdamWConfig:
    @pytest.mark.parametrize("name, value", [
        ("betas", (1.0, 0.95)), ("betas", (0.9, 1.0)), ("betas", (-0.1, 0.95)), ("betas", (math.nan, 0.95)),
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan), ("eps", math.inf),
        ("weight_decay", -1e-9), ("weight_decay", math.nan), ("weight_decay", math.inf),
    ])
    def test_bad_settings_fail_when_built(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must"):
            AdamWConfig(**{name: value})

    def test_edges_pass(self):
        AdamWConfig(betas=(0.0, 0.0), eps=1e-30, weight_decay=0.0)


class TestClipping:
    def test_norm_two_clipped_to_half(self):
        p = make_param(np.zeros(4))
        p.grad = np.ones(4)  # norm 2
        opt = AdamW({"p": p})
        assert abs(clip_grad_norm(opt, 1.0, global_grad_norm(opt)) - 0.5) < 1e-12
        assert abs(global_grad_norm(AdamW({"p": p})) - 1.0) < 1e-12

    def test_given_norm_is_used_as_is(self):
        p = make_param(np.zeros(4))
        p.grad = np.ones(4)  # norm 2, but the caller's norm decides
        assert abs(clip_grad_norm(AdamW({"p": p}), 1.0, norm=4.0) - 0.25) < 1e-12
        np.testing.assert_array_equal(p.grad, np.full(4, 0.25))

    def test_small_norm_untouched(self):
        p = make_param(np.zeros(1))
        p.grad = np.full(1, 0.5)
        opt = AdamW({"p": p})
        assert clip_grad_norm(opt, 1.0, global_grad_norm(opt)) == 1.0
        assert p.grad[0] == 0.5

    def test_zero_grads_noop(self):
        opt = AdamW({"p": make_param(np.zeros(3))})
        assert clip_grad_norm(opt, 1.0, global_grad_norm(opt)) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_post_clip_norm_bounded(self, seed):
        gen = np.random.default_rng(seed)
        params = {
            f"p{i}": make_param(np.zeros((4, 4)), f"p{i}") for i in range(3)
        }
        for p in params.values():
            p.grad = gen.standard_normal((4, 4)) * 10
        opt = AdamW(params)
        clip_grad_norm(opt, 1.0, global_grad_norm(opt))
        assert global_grad_norm(opt) <= 1.0 + 1e-9

    def test_norm_spans_all_params_jointly(self):
        a, b = make_param(np.zeros(1), "a"), make_param(np.zeros(1), "b")
        a.grad = np.full(1, 3.0)
        b.grad = np.full(1, 4.0)
        assert abs(global_grad_norm(AdamW({"a": a, "b": b})) - 5.0) < 1e-12

    def test_frozen_groups_excluded_from_norm_and_scaling(self):
        w = make_param(np.zeros(1), "w")
        bank = make_param(np.zeros(1), "bank", "memory_bank")
        w.grad = np.full(1, 2.0)
        bank.grad = np.full(1, 100.0)
        opt = AdamW({"w": w, "bank": bank}, frozen_groups={"memory_bank"})
        scale = clip_grad_norm(opt, 1.0, global_grad_norm(opt))
        assert abs(scale - 0.5) < 1e-12
        assert bank.grad is None  # the frozen bank's grad is dropped, not scaled
        assert abs(w.grad[0] - 1.0) < 1e-12

    def test_norm_sums_blocks_in_float64_through_one_scratch_block(self):
        gen = np.random.default_rng(7)
        shapes = (("big", (BLOCK // 32 + 5, 32)), ("gain", (40,)), ("w", (3, 3)))
        params = {name: Parameter(np.zeros(shape, np.float32), name, "base") for name, shape in shapes}
        for p in params.values():
            p.grad = (gen.standard_normal(p.shape) * 3.0).astype(np.float32)
        want = math.sqrt(sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params.values()))
        opt = AdamW(params)
        assert opt.segments[0].data.size > BLOCK
        tracemalloc.start()
        try:
            norm = global_grad_norm(opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(norm - want) <= 1e-12 * want
        assert peak < BLOCK * 8 + 4096, f"norm peak {peak} B"

    def test_clip_scales_each_segment_in_place(self):
        gen = np.random.default_rng(8)
        params = {name: Parameter(np.zeros(shape, np.float32), name, "base")
                  for name, shape in (("w", (4, 5)), ("gain", (5,)))}
        for p in params.values():
            p.grad = (gen.standard_normal(p.shape) * 10.0).astype(np.float32)
        opt = AdamW(params)
        held = {name: p.grad for name, p in params.items()}
        before = {name: p.grad.copy() for name, p in params.items()}
        scale = clip_grad_norm(opt, 1.0, global_grad_norm(opt))
        assert scale < 1.0
        for name, p in params.items():
            assert p.grad is held[name]
            np.testing.assert_array_equal(p.grad, before[name] * np.float32(scale))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_norm_names_the_first_non_finite_parameter(self, bad):
        params = {name: make_param(np.zeros(shape), name) for name, shape in (("w", (2, 2)), ("gain", 2), ("bias", 3))}
        opt = AdamW(params)
        params["bias"].grad = np.array([bad, 0.0, 0.0])
        params["gain"].grad = np.array([0.0, bad])
        with pytest.raises(NumericError, match=r"^non-finite gradient in gain; step aborted$"):
            global_grad_norm(opt)

    def test_norm_that_overflows_float64_aborts(self):
        p = make_param(np.zeros(2))
        p.grad = np.full(2, 1e300)
        with pytest.raises(NumericError, match="overflows"), np.errstate(over="ignore"):
            global_grad_norm(AdamW({"p": p}))


class TestRowSparseGrads:
    """A ``RowGrad`` reads exactly as its densified array in the norm, the
    clip and the step. The table spans several ``BLOCK``s, one of which holds
    no stored row, and shares its segment with a dense (7, d) matrix, so one
    block spans both: with d = 64 and the table first, every block starts and
    stops on a row boundary; with d = 50 and the table second, none does.
    Each step takes fresh grads."""

    @staticmethod
    def _params(dtype, d, bank_first):
        gen = np.random.default_rng(11)
        shapes = {"bank": (3 * BLOCK // d - 7, d), "w": (7, d)}  # three blocks, the last one short for d = 50
        names = ["bank", "w"] if bank_first else ["w", "bank"]
        return {n: Parameter(gen.standard_normal(shapes[n]).astype(dtype), n, "memory_bank") for n in names}

    @staticmethod
    def _grads(gen, dtype, rows, d):
        # rows in the first and last blocks only, with repeats within and across the two gathers
        lo, hi = gen.integers(0, 400, 24), gen.integers(rows - 300, rows, 24)
        calls = [np.concatenate([lo[:12], hi[:12], lo[:4]]), np.concatenate([hi[12:], lo[12:], hi[:3]])]
        scale = 10.0 ** gen.integers(-4, 4, (28, d))
        return [(ids, (gen.standard_normal((ids.size, d)) * scale[: ids.size]).astype(dtype)) for ids in calls], \
            gen.standard_normal((7, d)).astype(dtype)

    @pytest.mark.parametrize("d, bank_first", [(64, True), (50, False)], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_clip_and_steps_equal_the_dense_grad(self, dtype, d, bank_first):
        sparse, dense = self._params(dtype, d, bank_first), self._params(dtype, d, bank_first)
        opt_s, opt_d = AdamW(sparse), AdamW(dense)
        assert [len(pieces) for pieces in opt_s.segments[0].blocks] == ([1, 1, 2] if bank_first else [2, 1, 1])
        gen = np.random.default_rng(12)
        for t in (1, 2, 3):
            calls, gw = self._grads(gen, dtype, sparse["bank"].shape[0], d)
            for ids, g in calls:
                sparse["bank"].add_rows(ids, g)
            assert isinstance(sparse["bank"].grad, RowGrad)
            dense["bank"].grad = sparse["bank"].dense_grad()
            sparse["w"].grad, dense["w"].grad = gw.copy(), gw.copy()
            first_element = sparse["bank"].grad.ids * d + (0 if bank_first else 7 * d)
            assert set(first_element // BLOCK) == {0, 2}  # block 1 holds no stored row
            norm_s, norm_d = global_grad_norm(opt_s), global_grad_norm(opt_d)
            assert norm_s == norm_d and norm_s > 1.0
            assert clip_grad_norm(opt_s, 1.0, norm_s) == clip_grad_norm(opt_d, 1.0, norm_d) < 1.0
            assert sparse["bank"].dense_grad().tobytes() == dense["bank"].grad.tobytes()
            opt_s.step(uniform_lrs(1e-2), t)
            opt_d.step(uniform_lrs(1e-2), t)
            for name in sparse:
                assert sparse[name].grad is None
                assert sparse[name].data.tobytes() == dense[name].data.tobytes(), (t, name)
                for kind in "mv":
                    assert opt_s.state[name][kind].tobytes() == opt_d.state[name][kind].tobytes(), (t, name, kind)

    def test_an_empty_block_is_skipped_and_a_bad_row_is_found(self):
        rows, d = 3 * BLOCK // 64, 64
        bank = Parameter(np.zeros((rows, d)), "bank", "memory_bank")
        opt = AdamW({"bank": bank})
        bank.add_rows(np.array([2, rows - 1]), np.ones((2, d)))
        scratch = np.empty(BLOCK)
        assert [optim._block_grad(pieces, scratch, view=False) is None for pieces in opt.segments[0].blocks] == \
            [False, True, False]
        assert global_grad_norm(opt) == math.sqrt(2 * d)
        bank.grad.rows[1, 3] = np.inf
        with pytest.raises(NumericError, match="bank"):
            opt.check_finite()
