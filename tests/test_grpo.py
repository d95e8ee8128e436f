import math
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscore import (
    GroupTooSmallError,
    KlMode,
    LengthMismatchError,
    LogProbRecord,
    NonFiniteInputError,
    group_advantages,
    grpo_objective,
    kl_estimate,
)
from locscore.grpo import grpo_objective_detailed, sequence_log_ratio

from oracles import mean_std, tuple_kl, tuple_log_ratio


def record(policy, old=None, ref=None):
    old = policy if old is None else old
    ref = policy if ref is None else ref
    return LogProbRecord.from_lists(policy, old, ref)


def _logprob_lists(rng, n_tokens):
    return [rng.uniform(-5.0, 0.0) for _ in range(n_tokens)]


class TestGroupAdvantages:
    def test_three_point_example(self):
        adv = group_advantages([1.0, 2.0, 3.0], epsilon=1e-12)
        assert adv[0] == pytest.approx(-1.2247, abs=1e-3)
        assert adv[1] == pytest.approx(0.0, abs=1e-9)
        assert adv[2] == pytest.approx(1.2247, abs=1e-3)

    def test_constant_group_is_exactly_zero(self):
        assert group_advantages([2.0, 2.0, 2.0, 2.0]) == [0.0, 0.0, 0.0, 0.0]
        assert group_advantages([0.1, 0.1, 0.1]) == [0.0, 0.0, 0.0]

    def test_two_point_example(self):
        adv = group_advantages([0.0, 3.0], epsilon=1e-9)
        assert adv[0] == pytest.approx(-1.0, abs=1e-6)
        assert adv[1] == pytest.approx(1.0, abs=1e-6)

    def test_matches_independent_mean_std(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(2, 16)
            rewards = [rng.uniform(0, 3) for _ in range(n)]
            if len(set(rewards)) == 1:
                continue
            mean, std = mean_std(rewards)
            expected = [(r - mean) / (std + 1e-4) for r in rewards]
            assert group_advantages(rewards) == pytest.approx(expected, abs=1e-9)

    def test_too_small_group_rejected(self):
        with pytest.raises(GroupTooSmallError):
            group_advantages([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            group_advantages([1.0, math.nan])

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError) as raised:
            group_advantages([1.0, 2.0], epsilon=0)
        assert str(raised.value) == "epsilon must be positive, got 0"

    @given(st.lists(st.floats(0, 3, allow_nan=False), min_size=2, max_size=16),
           st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=200)
    def test_shift_invariance(self, rewards, shift):
        base = group_advantages(rewards)
        shifted = group_advantages([r + shift for r in rewards])
        assert shifted == pytest.approx(base, abs=1e-9)

    @given(st.lists(st.floats(0, 3, allow_nan=False), min_size=2, max_size=16))
    @settings(max_examples=200)
    def test_argmax_preserved(self, rewards):
        adv = group_advantages(rewards)
        assert adv.index(max(adv)) == rewards.index(max(rewards))

    def test_scale_invariance_up_to_stabilizer(self):
        # scaling rewards by c > 0 only shifts the epsilon term: for groups
        # with healthy spread the advantages stay put within ~100*epsilon
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randrange(2, 16)
            rewards = [rng.uniform(0, 3) for _ in range(n)]
            _, std = mean_std(rewards)
            if std < 0.2:
                continue
            base = group_advantages(rewards)
            for c in (0.5, 2.0, 4.0):
                scaled = group_advantages([c * r for r in rewards])
                assert scaled == pytest.approx(base, abs=1e-2)


class TestKlEstimate:
    def test_identical_k3_is_zero(self):
        assert kl_estimate(record([-1.0, -2.0]), KlMode.K3) == 0.0

    def test_single_token_k3(self):
        rec = record([-1.0], ref=[-2.0])
        assert kl_estimate(rec, KlMode.K3) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_identical_sequence_mode_is_zero(self):
        assert kl_estimate(record([-0.5, -0.25]), KlMode.SEQUENCE) == 0.0

    def test_sequence_mode_is_log_ratio(self):
        rec = record([-1.0, -1.5], ref=[-2.0, -0.25])
        assert kl_estimate(rec, KlMode.SEQUENCE) == pytest.approx((-2.5) - (-2.25))

    @given(st.data())
    @settings(max_examples=300)
    def test_k3_nonnegative(self, data):
        n = data.draw(st.integers(1, 12))
        pol = data.draw(st.lists(st.floats(-30, 0, allow_nan=False), min_size=n, max_size=n))
        ref = data.draw(st.lists(st.floats(-30, 0, allow_nan=False), min_size=n, max_size=n))
        assert kl_estimate(record(pol, ref=ref), KlMode.K3) >= 0.0

    def test_record_validation(self):
        with pytest.raises(LengthMismatchError):
            LogProbRecord.from_lists([-1.0], [-1.0, -2.0], [-1.0])
        with pytest.raises(NonFiniteInputError):
            LogProbRecord.from_lists([-math.inf], [-1.0], [-1.0])
        with pytest.raises(ValueError):
            LogProbRecord.from_lists([0.5], [-1.0], [-1.0])


class TestLogProbRecord:
    SERIES = ((-1.0, -2.0), (-1.0, -2.5), (-0.0, -3.0))

    def test_equality_hash_and_repr_are_those_of_the_tuples(self):
        rec = LogProbRecord(*self.SERIES)
        assert repr(rec) == "LogProbRecord(policy=(-1.0, -2.0), old=(-1.0, -2.5), ref=(-0.0, -3.0))"
        assert hash(rec) == hash(self.SERIES)
        assert rec == LogProbRecord.from_lists([-1, -2], [-1, -2.5], [0, -3])  # -0.0 == 0.0, as in tuples
        assert hash(rec) == hash(LogProbRecord.from_lists([-1, -2], [-1, -2.5], [0, -3]))
        assert rec != LogProbRecord.from_lists([-1.0], [-1.0], [-0.0])
        assert rec != LogProbRecord.from_lists([-1.0, -2.0], [-1.0, -2.5], [-0.5, -3.0])
        assert rec != self.SERIES
        assert len({rec, LogProbRecord(*self.SERIES)}) == 1

    def test_immutable(self):
        rec = LogProbRecord(*self.SERIES)
        with pytest.raises(FrozenInstanceError):
            rec.policy = np.zeros(2)
        with pytest.raises(FrozenInstanceError):
            del rec.ref
        for series in (rec.policy, rec.old, rec.ref):
            assert series.dtype == np.float64 and not series.flags.writeable
            with pytest.raises(ValueError):
                series[0] = -5.0
            with pytest.raises(ValueError):
                series.flags.writeable = True

    def test_rows_are_held_as_given(self):
        rows = np.array(self.SERIES)
        rec = LogProbRecord.from_rows(rows)
        assert rec == LogProbRecord(*self.SERIES)
        assert np.shares_memory(rec.policy, rows) and not rows.flags.writeable
        for shape in [(2, 2), (3, 0), (4, 1), (3,), (3, 1, 1)]:
            with pytest.raises(LengthMismatchError):
                LogProbRecord.from_rows(np.full(shape, -1.0))

    @pytest.mark.parametrize(
        "series, error, text",
        [
            (([-1.0, 0.25], [0.5], [math.nan]), LengthMismatchError, "policy/old/ref must have equal length >= 1"),
            (([-1.0, 0.25], [0.5, -1.0], [math.nan, -1.0]), ValueError, "log-probabilities must be <= 0, got 0.25"),
            (([-1.0, -1.0], [0.5, math.inf], [-1.0, -1.0]), ValueError, "log-probabilities must be <= 0, got 0.5"),
            (([-1.0, -1.0], [-math.inf, 0.5], [-1.0, -1.0]), NonFiniteInputError, "log-probabilities must be finite"),
            (([-1.0], [-1.0], [5e-324]), ValueError, "log-probabilities must be <= 0, got 5e-324"),
        ],
        ids=["lengths-first", "policy-first", "old-in-order", "old-non-finite-first", "subnormal"],
    )
    def test_first_bad_value_is_named_series_by_series(self, series, error, text):
        with pytest.raises(error) as raised:
            LogProbRecord(*series)
        assert type(raised.value) is error and str(raised.value) == text

    def test_an_overflowing_sum_of_finite_values_is_accepted(self):
        rec = LogProbRecord.from_lists([-1e308, -1e308], [-1e308, -1e308], [-1.0, -1.0])
        assert rec.policy.tolist() == [-1e308, -1e308]

    @given(st.data())
    @settings(max_examples=300)
    def test_kl_and_log_ratio_equal_the_tuple_formulas(self, data):
        n = data.draw(st.integers(1, 40))
        series = [data.draw(st.lists(st.floats(-60, 0), min_size=n, max_size=n)) for _ in range(3)]
        policy, old, ref = map(tuple, series)
        rec = LogProbRecord(policy, old, ref)
        for mode, sequence in [(KlMode.K3, False), (KlMode.SEQUENCE, True)]:
            assert kl_estimate(rec, mode).hex() == tuple_kl(policy, ref, sequence).hex()
        raw = tuple_log_ratio(policy, old)
        assert sequence_log_ratio(rec)[0].hex() == (raw if abs(raw) <= 50 else math.copysign(50.0, raw)).hex()


class TestObjective:
    def test_neutral_group_is_exactly_zero(self):
        records = [record([-1.0, -2.0]), record([-0.5])]
        assert grpo_objective(records, [0.0, 0.0], beta=0.7) == 0.0

    def test_two_point_substitution(self):
        records = [record([-1.0]), record([-2.0])]
        assert grpo_objective(records, [-1.0, 1.0], beta=0.2) == 0.0

    def test_ratio_weighting(self):
        # policy twice as likely as old on completion 0
        rec0 = LogProbRecord.from_lists([-1.0], [-1.0 - math.log(2)], [-1.0])
        rec1 = record([-1.0])
        value = grpo_objective([rec0, rec1], [1.0, 1.0], beta=0.0)
        assert value == pytest.approx((2.0 * 1.0 + 1.0) / 2)

    def test_beta_scales_kl(self):
        records = [record([-1.0], ref=[-2.0]), record([-1.0], ref=[-3.0])]
        j0 = grpo_objective(records, [0.0, 0.0], beta=0.0)
        j1 = grpo_objective(records, [0.0, 0.0], beta=1.0)
        mean_kl = (kl_estimate(records[0]) + kl_estimate(records[1])) / 2
        assert j0 == 0.0
        assert j1 == pytest.approx(-mean_kl)

    def test_affine_in_beta(self):
        rng = random.Random(23)
        records = [
            record(_logprob_lists(rng, 5), old=_logprob_lists(rng, 5), ref=_logprob_lists(rng, 5))
            for _ in range(4)
        ]
        advantages = [rng.uniform(-2, 2) for _ in range(4)]
        j0 = grpo_objective(records, advantages, beta=0.0)
        j1 = grpo_objective(records, advantages, beta=1.0)
        jmid = grpo_objective(records, advantages, beta=0.5)
        assert abs(jmid - (j0 + j1) / 2) < 1e-9

    def test_clip_option(self):
        rec_hot = LogProbRecord.from_lists([-0.5], [-3.0], [-0.5])  # ratio e^2.5
        rec_cold = record([-1.0])
        unclipped = grpo_objective([rec_hot, rec_cold], [1.0, -1.0], beta=0.0)
        clipped = grpo_objective([rec_hot, rec_cold], [1.0, -1.0], beta=0.0, clip_range=0.2)
        assert unclipped == pytest.approx((math.exp(2.5) - 1.0) / 2)
        assert clipped == pytest.approx((1.2 - 1.0) / 2)

    def test_log_ratio_clamped(self):
        rec = LogProbRecord.from_lists([-1.0] * 80, [-2.0] * 80, [-1.0] * 80)
        log_ratio, clamped = sequence_log_ratio(rec)
        assert clamped and log_ratio == 50.0
        detailed = grpo_objective_detailed([rec, rec], [1.0, -1.0])
        assert detailed.clamped_ratios == 2
        assert math.isfinite(detailed.objective)

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            grpo_objective([record([-1.0])], [1.0, -1.0])

    def test_one_record_rejected(self):
        with pytest.raises(GroupTooSmallError) as raised:
            grpo_objective_detailed([record([-1.0])], [1.0])
        assert str(raised.value) == "objective evaluation needs a group of at least two"

    def test_nonfinite_advantage_rejected(self):
        with pytest.raises(NonFiniteInputError):
            grpo_objective([record([-1.0]), record([-1.0])], [math.inf, 0.0])

    @pytest.mark.parametrize(
        "rec, kl_mode, beta",
        [
            (record([-1000.0], ref=[0.0]), KlMode.K3, 0.2),  # expm1(1000) overflows
            (record([-1e308] * 2, ref=[0.0] * 2), KlMode.SEQUENCE, 0.2),
            # both sequence sums overflow to -inf, so their difference is NaN
            (record([-1e308] * 2), KlMode.K3, 0.2),
            (record([-700.0], ref=[0.0]), KlMode.K3, 1e300),
            (record([-1000.0], ref=[0.0]), KlMode.K3, 0.0),  # 0 * inf is NaN
        ],
        ids=["k3-expm1", "seq-sum", "log-ratio-nan", "beta-times-kl", "zero-beta"],
    )
    def test_overflow_raises_instead_of_infinity(self, rec, kl_mode, beta):
        with pytest.raises(NonFiniteInputError, match="KL estimate or objective overflows float64"):
            grpo_objective_detailed([rec, record([-1.0])], [1.0, -1.0], beta, kl_mode)
