"""AdamW update rule and the warmup/decay schedule."""
import numpy as np
import pytest

from cmcrank.errors import InvalidShape, StateError
from cmcrank.nn import OptimizerState, adamw_step, warmup_schedule


class TestSchedule:
    def test_starts_at_zero(self):
        assert warmup_schedule(0, 100) == 0.0

    def test_linear_rise_and_fall(self):
        assert warmup_schedule(5, 100) == pytest.approx(0.5)
        assert warmup_schedule(10, 100) == pytest.approx(1.0)
        assert warmup_schedule(55, 100) == pytest.approx(0.5)
        assert warmup_schedule(100, 100) == pytest.approx(0.0)

    def test_constant_when_untotaled(self):
        assert warmup_schedule(123, 0) == 1.0


class TestAdamW:
    def test_zero_gradients_leave_parameters_unchanged(self):
        rng = np.random.default_rng(0)
        theta = {"w": rng.standard_normal((3, 3)).astype(np.float32)}
        before = theta["w"].copy()
        state = OptimizerState.for_arrays(theta, learning_rate=1e-2)
        adamw_step(theta, {"w": np.zeros_like(before)}, state)
        assert theta["w"].tobytes() == before.tobytes()

    def test_warmup_step_zero_is_a_no_op(self):
        rng = np.random.default_rng(1)
        theta = {"w": rng.standard_normal(4).astype(np.float32)}
        before = theta["w"].copy()
        state = OptimizerState.for_arrays(theta, learning_rate=1e-2,
                                          total_steps=50)
        adamw_step(theta, {"w": np.ones(4, dtype=np.float32)}, state)
        assert theta["w"].tobytes() == before.tobytes()
        assert state.step == 1

    def test_single_scalar_step_matches_hand_formula(self):
        """One step with g = 1, lr = 1e-2, no decay, constant schedule."""
        theta = {"w": np.array([0.25], dtype=np.float32)}
        state = OptimizerState.for_arrays(theta, learning_rate=1e-2)
        adamw_step(theta, {"w": np.array([1.0], dtype=np.float32)}, state)
        # hand evaluation: m-hat = v-hat = 1 after bias correction
        m_hat = (0.1 * 1.0) / (1 - 0.9)
        v_hat = (0.001 * 1.0) / (1 - 0.999)
        expected = 0.25 - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(theta["w"], [expected], rtol=1e-6)

    def test_missing_gradient_rejected(self):
        theta = {"w": np.zeros(3, dtype=np.float32)}
        state = OptimizerState.for_arrays(theta, learning_rate=1e-2)
        with pytest.raises(KeyError, match="w"):
            adamw_step(theta, {}, state)

    def test_shape_mismatch_rejected(self):
        theta = {"w": np.zeros(3, dtype=np.float32)}
        state = OptimizerState.for_arrays(theta, learning_rate=1e-2)
        with pytest.raises(InvalidShape):
            adamw_step(theta, {"w": np.zeros(4, dtype=np.float32)}, state)

    def test_stepping_past_total_raises(self):
        theta = {"w": np.zeros(2, dtype=np.float32)}
        state = OptimizerState.for_arrays(theta, learning_rate=1e-2, total_steps=1)
        adamw_step(theta, {"w": np.zeros(2, dtype=np.float32)}, state)
        with pytest.raises(StateError):
            adamw_step(theta, {"w": np.zeros(2, dtype=np.float32)}, state)

    def test_moments_track_two_steps(self):
        """m and v follow the exponential-average recurrences exactly."""
        theta = {"w": np.array([0.0], dtype=np.float32)}
        state = OptimizerState.for_arrays(theta, learning_rate=0.0)
        adamw_step(theta, {"w": np.array([2.0], dtype=np.float32)}, state)
        adamw_step(theta, {"w": np.array([-1.0], dtype=np.float32)}, state)
        np.testing.assert_allclose(state.m["w"],
                                   [0.9 * (0.1 * 2.0) + 0.1 * (-1.0)], rtol=1e-6)
        np.testing.assert_allclose(state.v["w"],
                                   [0.999 * (0.001 * 4.0) + 0.001 * 1.0], rtol=1e-5)
