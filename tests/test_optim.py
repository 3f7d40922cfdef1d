"""AdamW update rule and the warmup/decay schedule."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcrank.errors import InvalidConfig, InvalidShape, StateError
from cmcrank.nn import OptimizerState, adamw_step, warmup_schedule
from cmcrank.nn.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


class TestSchedule:
    def test_starts_at_zero(self):
        assert warmup_schedule(0, 100) == 0.0

    def test_linear_rise_and_fall(self):
        assert warmup_schedule(5, 100) == pytest.approx(0.5)
        assert warmup_schedule(10, 100) == pytest.approx(1.0)
        assert warmup_schedule(55, 100) == pytest.approx(0.5)
        assert warmup_schedule(100, 100) == pytest.approx(0.0)
        # A one-step run: step 0 is all warmup and the schedule ends at 0.
        assert warmup_schedule(0, 1) == 0.0
        assert warmup_schedule(1, 1) == 0.0


def per_array_adamw_step(arrays, grads, state):
    """The update as one pass per named array: the reference that the
    flat ``adamw_step`` must match bit for bit."""
    lr = state.effective_lr()
    t = state.step + 1
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for name, theta in arrays.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / bias1
        v_hat = v / bias2
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        theta -= (lr * update).astype(theta.dtype, copy=False)
    state.step += 1


class TestAdamW:
    @pytest.mark.parametrize("total_steps", [0, -2, 2.5, "3"])
    def test_total_steps_not_a_positive_integer_rejected(self, total_steps):
        """A schedule has at least one step.  Unchecked, a total of 0 fails
        only at the first step, saying the optimizer already ran its 0."""
        with pytest.raises(InvalidConfig, match="total_steps"):
            OptimizerState(learning_rate=1e-3, total_steps=total_steps)

    def test_zero_gradients_leave_parameters_unchanged(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(9).astype(np.float32)
        before = theta.copy()
        state = OptimizerState(learning_rate=1e-2, total_steps=10)
        for _ in range(3):
            adamw_step(theta, np.zeros_like(before), state)
        assert theta.tobytes() == before.tobytes()

    def test_warmup_step_zero_is_a_no_op(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(4).astype(np.float32)
        before = theta.copy()
        state = OptimizerState(learning_rate=1e-2, total_steps=50)
        adamw_step(theta, np.ones(4, dtype=np.float32), state)
        assert theta.tobytes() == before.tobytes()
        assert state.step == 1

    def test_single_scalar_step_matches_hand_formula(self):
        """Two steps with g = 1, lr = 1e-2, no decay, on a 10-step schedule:
        step 0 is warmup's no-op and step 1 runs at the full rate."""
        theta = np.array([0.25], dtype=np.float32)
        state = OptimizerState(learning_rate=1e-2, total_steps=10)
        for _ in range(2):
            adamw_step(theta, np.array([1.0], dtype=np.float32), state)
        # hand evaluation at t = 2: m-hat = v-hat = 1 after bias correction
        m_hat = (0.1 * 0.9 + 0.1) / (1 - 0.9 ** 2)
        v_hat = (0.001 * 0.999 + 0.001) / (1 - 0.999 ** 2)
        expected = 0.25 - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(theta, [expected], rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        theta = np.zeros(3, dtype=np.float32)
        state = OptimizerState(learning_rate=1e-2, total_steps=10)
        with pytest.raises(InvalidShape):
            adamw_step(theta, np.zeros(4, dtype=np.float32), state)
        assert state.step == 0

    def test_stepping_past_total_raises(self):
        theta = np.zeros(2, dtype=np.float32)
        state = OptimizerState(learning_rate=1e-2, total_steps=1)
        adamw_step(theta, np.zeros(2, dtype=np.float32), state)
        with pytest.raises(StateError):
            adamw_step(theta, np.zeros(2, dtype=np.float32), state)

    def test_moments_track_two_steps(self):
        """m and v follow the exponential-average recurrences exactly."""
        theta = np.array([0.0], dtype=np.float32)
        state = OptimizerState(learning_rate=0.0, total_steps=10)
        adamw_step(theta, np.array([2.0], dtype=np.float32), state)
        adamw_step(theta, np.array([-1.0], dtype=np.float32), state)
        np.testing.assert_allclose(state.m, [0.9 * (0.1 * 2.0) + 0.1 * (-1.0)],
                                   rtol=1e-6)
        np.testing.assert_allclose(state.v, [0.999 * (0.001 * 4.0) + 0.001 * 1.0],
                                   rtol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                           min_size=1, max_size=6),
           steps=st.integers(3, 6), total_steps=st.sampled_from([6, 20]),
           lr=st.sampled_from([0.0, 1e-5, 1e-3, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_flat_step_matches_per_array_loop_bit_for_bit(
            self, shapes, steps, total_steps, lr, seed):
        """Views of one vector stepped as a whole land on the same bits as
        the arrays stepped one at a time; the first step is warmup step 0."""
        rng = np.random.default_rng(seed)
        sizes = [math.prod(shape) for shape in shapes]
        theta = rng.standard_normal(sum(sizes)).astype(np.float32)
        ends = np.cumsum(sizes)
        names = [f"a{i}" for i in range(len(shapes))]
        arrays = {name: theta[end - size:end].reshape(shape).copy()
                  for name, size, end, shape in zip(names, sizes, ends, shapes)}
        flat_state = OptimizerState(learning_rate=lr, total_steps=total_steps)
        ref_state = OptimizerState(learning_rate=lr, total_steps=total_steps)
        ref_state.m = {n: np.zeros_like(a) for n, a in arrays.items()}
        ref_state.v = {n: np.zeros_like(a) for n, a in arrays.items()}
        for _ in range(steps):
            grad = (rng.standard_normal(theta.size)
                    * 10.0 ** rng.integers(-6, 3)).astype(np.float32)
            grads = {name: grad[end - size:end].reshape(shape)
                     for name, size, end, shape in zip(names, sizes, ends, shapes)}
            adamw_step(theta, grad, flat_state)
            per_array_adamw_step(arrays, grads, ref_state)
        assert flat_state.step == ref_state.step == steps
        packed = np.concatenate([a.reshape(-1) for a in arrays.values()])
        assert theta.tobytes() == packed.tobytes()
        for got, name in ((flat_state.m, "m"), (flat_state.v, "v")):
            expected = np.concatenate(
                [a.reshape(-1) for a in getattr(ref_state, name).values()])
            assert got.tobytes() == expected.tobytes(), name
