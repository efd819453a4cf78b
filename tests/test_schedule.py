"""Learning-rate schedule fixtures and piecewise-shape properties."""

import math

import pytest

from chapterbank.errors import ConfigError
from chapterbank.schedule import Schedule, cosine, lr_at_step, wsd

BASE = 3e-4
WSD = wsd(250, 8160, 0.1, total_steps=9600)
COS = cosine(250, total_steps=9600)
TOL = 1e-12


class TestWsd:
    def test_warmup_start_is_zero(self):
        assert lr_at_step(WSD, 0, BASE) == 0.0

    def test_warmup_midpoint(self):
        assert abs(lr_at_step(WSD, 125, BASE) - BASE / 2) < TOL

    def test_warmup_end_hits_base_exactly(self):
        assert lr_at_step(WSD, 250, BASE) == BASE

    @pytest.mark.parametrize("step", [251, 1000, 5000, 8160])
    def test_plateau(self, step):
        assert lr_at_step(WSD, step, BASE) == BASE

    def test_decay_midpoint(self):
        # halfway through [8160, 9600]: 1 - 0.9 * 0.5 = 0.55 of base
        assert abs(lr_at_step(WSD, 8880, BASE) - 0.55 * BASE) < TOL

    def test_final_step_is_min_ratio(self):
        assert abs(lr_at_step(WSD, 9600, BASE) - 0.1 * BASE) < TOL

    def test_clamps_past_end(self):
        assert lr_at_step(WSD, 12000, BASE) == lr_at_step(WSD, 9600, BASE)

    @pytest.mark.parametrize(
        "lo,hi",
        [(0, 250), (250, 8160), (8160, 9600)],
    )
    def test_piecewise_linear_segments(self, lo, hi):
        y0, y1 = lr_at_step(WSD, lo, BASE), lr_at_step(WSD, hi, BASE)
        for step in range(lo, hi + 1, max(1, (hi - lo) // 40)):
            want = y0 + (y1 - y0) * (step - lo) / (hi - lo)
            assert abs(lr_at_step(WSD, step, BASE) - want) < TOL

    def test_monotone_nonincreasing_after_warmup(self):
        vals = [lr_at_step(WSD, s, BASE) for s in range(250, 9601, 7)]
        assert all(a >= b - TOL for a, b in zip(vals, vals[1:]))


class TestCosine:
    def test_warmup_end(self):
        assert lr_at_step(COS, 250, BASE) == BASE

    def test_midpoint_is_half_base(self):
        mid = (250 + 9600) // 2
        assert abs(lr_at_step(COS, mid, BASE) - BASE / 2) < TOL

    def test_quarter_point(self):
        step = 250 + (9600 - 250) // 4
        # span is 9350, not divisible by 4: evaluate the exact fraction
        frac = (step - 250) / (9600 - 250)
        want = BASE * 0.5 * (1 + math.cos(math.pi * frac))
        assert abs(lr_at_step(COS, step, BASE) - want) < TOL

    def test_end_is_zero(self):
        assert lr_at_step(COS, 9600, BASE) == 0.0
        assert lr_at_step(COS, 99999, BASE) == 0.0

    def test_strictly_decreasing_after_warmup(self):
        vals = [lr_at_step(COS, s, BASE) for s in range(250, 9601, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestValidation:
    def test_wsd_requires_decay_start(self):
        with pytest.raises(ConfigError):
            Schedule("wsd", 250)

    def test_decay_start_before_warmup_rejected(self):
        with pytest.raises(ConfigError):
            wsd(250, 100, total_steps=500)

    def test_decay_start_must_precede_total(self):
        with pytest.raises(ConfigError):
            wsd(10, 500, total_steps=500)

    def test_total_steps_must_exceed_warmup(self):
        with pytest.raises(ConfigError):
            cosine(250, total_steps=250)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            Schedule("linear", 10)

    def test_min_ratio_range(self):
        with pytest.raises(ConfigError):
            wsd(10, 20, min_ratio=1.5, total_steps=100)

    def test_negative_step(self):
        with pytest.raises(ConfigError):
            lr_at_step(WSD, -1, BASE)

    def test_lr_needs_total_steps(self):
        with pytest.raises(ConfigError):
            lr_at_step(wsd(250, 8160), 100, BASE)

    def test_with_total_steps_validates(self):
        sched = wsd(10, 50)
        assert lr_at_step(sched.with_total_steps(100), 50, 1.0) == 1.0
        with pytest.raises(ConfigError):
            sched.with_total_steps(40)


class TestSerialization:
    def test_wsd_round_trip(self):
        d = WSD.to_dict()
        assert d == {"kind": "wsd", "warmup": 250, "decay_start": 8160, "min_ratio": 0.1, "total_steps": 9600}
        assert Schedule.from_dict(d) == WSD

    def test_cosine_round_trip(self):
        d = COS.to_dict()
        assert d == {"kind": "cosine", "warmup": 250, "decay_start": None, "min_ratio": 0.1, "total_steps": 9600}
        assert Schedule.from_dict(d) == COS

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            Schedule.from_dict({"kind": "wsd", "warmup": 1, "decay_start": 2, "gamma": 0.9})
