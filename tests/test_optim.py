"""AdamW trajectory oracles, weight-decay scoping, freezing, clipping."""

import math
import tracemalloc

import numpy as np
import pytest

from chapterbank.errors import ConfigError, NumericError
from chapterbank.optim import AdamW, AdamWConfig, clip_grad_norm, global_grad_norm
from chapterbank.tensor import Parameter, Tensor


def make_param(data, name="p", group="base"):
    return Parameter(Tensor(np.asarray(data, dtype=np.float64)), name, group)


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
            p.value.grad[:] = 2.0 * p.value.data
            opt.step(uniform_lrs(lr), t)
            got.append(float(p.value.data[0]))
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12

    def test_first_step_is_negative_lr_sign_of_grad(self):
        p = make_param(np.zeros((2, 2)))
        p.value.grad[:] = np.array([[3.0, -40.0], [1e6, -2e-3]])
        opt = AdamW({"p": p}, AdamWConfig(weight_decay=0.0))
        opt.step(uniform_lrs(0.01), t=1)
        # m_hat/(sqrt(v_hat)+eps) = g/(|g|+eps) ~ sign(g) for |g| >> eps
        np.testing.assert_allclose(p.value.data, -0.01 * np.sign(p.value.grad), rtol=1e-5)

    def test_zero_grad_pure_decay(self):
        start = np.array([[2.0, -3.0], [0.5, 8.0]])
        p = make_param(start.copy())
        opt = AdamW({"p": p}, AdamWConfig(weight_decay=0.1))
        opt.step(uniform_lrs(0.2), t=1)
        np.testing.assert_allclose(p.value.data, start * (1 - 0.2 * 0.1), atol=1e-15)

    def test_decay_skips_vectors(self):
        gain = make_param(np.full(4, 2.0), name="gain")  # ndim 1: exempt
        opt = AdamW({"gain": gain}, AdamWConfig(weight_decay=0.1))
        opt.step(uniform_lrs(0.2), t=1)
        np.testing.assert_array_equal(gain.value.data, np.full(4, 2.0))

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
        before = params["bank"].value.data.copy()
        opt = AdamW(params, frozen_groups={"memory_bank"})
        assert "bank" not in opt.state
        for t in range(1, 4):
            for p in params.values():
                p.value.grad[:] = 1.0
            opt.step(uniform_lrs(0.1), t)
        np.testing.assert_array_equal(params["bank"].value.data, before)
        assert params["w"].value.data[0, 0] != 1.0

    def test_state_element_count_shrinks_by_two_per_frozen_element(self):
        params = self._params()
        full = AdamW(params).state_element_count()
        frozen = AdamW(params, frozen_groups={"memory_bank"}).state_element_count()
        assert full - frozen == 2 * params["bank"].size

    def test_audit_records_group_lr(self):
        params = self._params()
        opt = AdamW(params)
        lrs = {"base": 0.1, "memory_layers": 0.02, "memory_bank": 0.003}
        for p in params.values():
            p.value.grad[:] = 0.5
        opt.step(lrs, t=1)
        opt.step({**lrs, "base": 0.05}, t=2)
        assert opt.audit == [lrs, {**lrs, "base": 0.05}]
        frozen = AdamW(params, frozen_groups={"memory_bank"})
        frozen.step(lrs, t=1)
        assert frozen.audit == [{"base": 0.1, "memory_layers": 0.02}]

    def test_different_group_lrs_change_update_magnitude(self):
        params = self._params()
        opt = AdamW(params, AdamWConfig(weight_decay=0.0))
        for p in params.values():
            p.value.grad[:] = 1.0
        opt.step({"base": 0.1, "memory_layers": 0.01, "memory_bank": 0.0}, t=1)
        assert abs(params["w"].value.data[0, 0] - 0.9) < 1e-6
        assert abs(params["mem"].value.data[0, 0] - 0.99) < 1e-6
        np.testing.assert_array_equal(params["bank"].value.data, np.ones((8, 4)))

    def test_unknown_frozen_group_rejected(self):
        with pytest.raises(ConfigError):
            AdamW(self._params(), frozen_groups={"bank"})

    def test_load_moments_round_trip_and_rejections(self):
        params = self._params()
        opt = AdamW(params, frozen_groups={"memory_bank"})
        for p in params.values():
            p.value.grad[:] = 0.3
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
        g, m, v = p.value.grad, state[name]["m"], state[name]["v"]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m * (1.0 / (1.0 - b1**t))) / (np.sqrt(v * (1.0 / (1.0 - b2**t))) + cfg.eps)
        if p.value.ndim >= 2:
            update = update + cfg.weight_decay * p.value.data
        p.value.data -= lrs[p.group] * update


class TestInPlaceStep:
    def _params(self, dtype, seed):
        gen = np.random.default_rng(seed)
        shapes = {"w": ((5, 3), "base"), "gain": ((3,), "base"), "mem": ((4, 4), "memory_layers"),
                  "bank": ((16, 3), "memory_bank")}
        return {
            name: Parameter(Tensor(gen.standard_normal(shape).astype(dtype)), name, group)
            for name, (shape, group) in shapes.items()
        }

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_five_steps_match_the_old_formula_bit_for_bit(self, dtype):
        cfg, frozen = AdamWConfig(weight_decay=0.1), {"memory_bank"}
        params, ref = self._params(dtype, 0), self._params(dtype, 0)
        opt = AdamW(params, cfg, frozen_groups=frozen)
        state = {n: {"m": np.zeros_like(p.value.data), "v": np.zeros_like(p.value.data)}
                 for n, p in ref.items() if p.group not in frozen}
        gen = np.random.default_rng(1)
        lrs = {"base": 0.01, "memory_layers": 0.003, "memory_bank": 0.5}
        for t in range(1, 6):
            for name in params:
                g = gen.standard_normal(params[name].shape).astype(dtype)
                params[name].value.grad[...] = g
                ref[name].value.grad[...] = g
            opt.step(lrs, t)
            old_formula_step(ref, state, lrs, t, cfg, frozen)
        for name, p in params.items():
            assert p.value.data.dtype == dtype
            np.testing.assert_array_equal(p.value.data, ref[name].value.data)
            if name in state:
                np.testing.assert_array_equal(opt.state[name]["m"], state[name]["m"])
                np.testing.assert_array_equal(opt.state[name]["v"], state[name]["v"])
        np.testing.assert_array_equal(params["bank"].value.data, self._params(dtype, 0)["bank"].value.data)

    def test_step_peak_is_two_scratch_buffers(self):
        gen = np.random.default_rng(2)
        params = {
            name: Parameter(Tensor(gen.standard_normal(shape)), name, "base")
            for name, shape in (("big", (256, 128)), ("mid", (64, 64)), ("gain", (128,)))
        }
        for p in params.values():
            p.value.grad[...] = gen.standard_normal(p.shape)
        opt = AdamW(params)
        tracemalloc.start()
        try:
            opt.step(uniform_lrs(1e-3), t=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = params["big"].value.data.nbytes
        assert peak <= 2.5 * largest, f"step peak {peak} B is {peak / largest:.2f}x the largest parameter"


class TestNonFiniteGuard:
    def test_nan_grad_aborts_naming_param_without_partial_update(self):
        params = {
            "a": make_param(np.ones(3), "a"),
            "bad": make_param(np.ones(3), "bad"),
        }
        params["a"].value.grad[:] = 1.0
        params["bad"].value.grad[1] = np.nan
        opt = AdamW(params)
        with pytest.raises(NumericError, match="bad"):
            opt.step(uniform_lrs(0.1), t=1)
        np.testing.assert_array_equal(params["a"].value.data, np.ones(3))
        np.testing.assert_array_equal(opt.state["a"]["m"], np.zeros(3))

    def test_inf_grad_also_aborts(self):
        p = make_param(np.ones(2))
        p.value.grad[0] = np.inf
        with pytest.raises(NumericError):
            AdamW({"p": p}).step(uniform_lrs(0.1), t=1)

    def test_frozen_group_grads_are_not_checked(self):
        params = {
            "w": make_param(np.ones(2), "w"),
            "bank": make_param(np.ones(2), "bank", "memory_bank"),
        }
        params["bank"].value.grad[:] = np.nan
        AdamW(params, frozen_groups={"memory_bank"}).step(uniform_lrs(0.1), t=1)


class TestClipping:
    def test_norm_two_clipped_to_half(self):
        p = make_param(np.zeros(4))
        p.value.grad[:] = 1.0  # norm 2
        assert abs(clip_grad_norm({"p": p}, 1.0) - 0.5) < 1e-12
        assert abs(global_grad_norm({"p": p}) - 1.0) < 1e-12

    def test_given_norm_is_used_as_is(self):
        p = make_param(np.zeros(4))
        p.value.grad[:] = 1.0  # norm 2, but the caller's norm decides
        assert abs(clip_grad_norm({"p": p}, 1.0, norm=4.0) - 0.25) < 1e-12
        np.testing.assert_array_equal(p.value.grad, np.full(4, 0.25))

    def test_small_norm_untouched(self):
        p = make_param(np.zeros(1))
        p.value.grad[:] = 0.5
        assert clip_grad_norm({"p": p}, 1.0) == 1.0
        assert p.value.grad[0] == 0.5

    def test_zero_grads_noop(self):
        p = make_param(np.zeros(3))
        assert clip_grad_norm({"p": p}, 1.0) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_post_clip_norm_bounded(self, seed):
        gen = np.random.default_rng(seed)
        params = {
            f"p{i}": make_param(np.zeros((4, 4)), f"p{i}") for i in range(3)
        }
        for p in params.values():
            p.value.grad[:] = gen.standard_normal((4, 4)) * 10
        clip_grad_norm(params, 1.0)
        assert global_grad_norm(params) <= 1.0 + 1e-9

    def test_norm_spans_all_params_jointly(self):
        a, b = make_param(np.zeros(1), "a"), make_param(np.zeros(1), "b")
        a.value.grad[:] = 3.0
        b.value.grad[:] = 4.0
        assert abs(global_grad_norm({"a": a, "b": b}) - 5.0) < 1e-12

    def test_frozen_groups_excluded_from_norm_and_scaling(self):
        w = make_param(np.zeros(1), "w")
        bank = make_param(np.zeros(1), "bank", "memory_bank")
        w.value.grad[:] = 2.0
        bank.value.grad[:] = 100.0
        scale = clip_grad_norm({"w": w, "bank": bank}, 1.0, frozen_groups={"memory_bank"})
        assert abs(scale - 0.5) < 1e-12
        assert bank.value.grad[0] == 100.0
        assert abs(w.value.grad[0] - 1.0) < 1e-12
