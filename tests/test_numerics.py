import gc
import math
import weakref

import numpy as np
import pytest

from oracles import finite_diff_grad, max_rel_err
from pmrope import numerics as nm
from pmrope.numerics import ShapeError, Tape, Tensor


def rand(shape, seed, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, shape), requires_grad=True)


class TestTensor:
    def test_grad_buffer_matches_shape(self):
        t = Tensor(np.ones((3, 4)), requires_grad=True)
        assert t.grad.shape == (3, 4)
        assert np.all(t.grad == 0.0)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 0)))

    def test_integer_input_becomes_float(self):
        t = Tensor([[1, 2], [3, 4]])
        assert np.issubdtype(t.data.dtype, np.floating)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nm.matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = nm.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        a = rand((3, 4), seed=0)
        b = rand((4, 2), seed=1)

        def loss_fn():
            return nm.sum_all(nm.matmul(a, b)).item()

        with Tape() as tape:
            loss = nm.sum_all(nm.matmul(a, b))
        tape.backward(loss)
        assert max_rel_err(a.grad, finite_diff_grad(loss_fn, a)) <= 1e-4
        assert max_rel_err(b.grad, finite_diff_grad(loss_fn, b)) <= 1e-4


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_large_logit_is_stable(self):
        out = nm.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        x = rand((7, 5), seed=2, scale=3.0)
        sums = nm.softmax(x).data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)

    def test_random_vector_sums_to_one_tightly(self):
        x = Tensor(np.random.default_rng(3).normal(0, 2, 5))
        assert abs(nm.softmax(x).data.sum() - 1.0) <= 1e-9

    def test_permutation_equivariance(self):
        x = np.random.default_rng(4).normal(0, 1, 6)
        perm = np.random.default_rng(5).permutation(6)
        direct = nm.softmax(Tensor(x[perm])).data
        permuted = nm.softmax(Tensor(x)).data[perm]
        assert np.allclose(direct, permuted, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        x = rand((2, 4), seed=6)
        w = np.random.default_rng(7).normal(0, 1, (2, 4))  # weights make the grad nontrivial

        def loss_fn():
            return float((nm.softmax(x).data * w).sum())

        with Tape() as tape:
            loss = nm.sum_all(nm.mul(nm.softmax(x), Tensor(w)))
        tape.backward(loss)
        assert max_rel_err(x.grad, finite_diff_grad(loss_fn, x)) <= 1e-4


class TestRmsNorm:
    def test_all_ones_fixed_point(self):
        x = Tensor(np.ones((2, 4)))
        gain = Tensor(np.ones(4))
        assert np.allclose(nm.rms_norm(x, gain).data, 1.0, atol=1e-5)

    def test_zero_vector_stays_zero(self):
        out = nm.rms_norm(Tensor(np.zeros((1, 4))), Tensor(np.ones(4)))
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_gain_length_mismatch(self):
        with pytest.raises(ShapeError):
            nm.rms_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)))

    def test_gradient_matches_finite_differences(self):
        x = rand((3, 5), seed=8)
        gain = rand((5,), seed=9)

        def loss_fn():
            return nm.sum_all(nm.mul(nm.rms_norm(x, gain), nm.rms_norm(x, gain))).item()

        with Tape() as tape:
            y = nm.rms_norm(x, gain)
            loss = nm.sum_all(nm.mul(y, y))
        tape.backward(loss)
        assert max_rel_err(x.grad, finite_diff_grad(loss_fn, x)) <= 1e-4
        assert max_rel_err(gain.grad, finite_diff_grad(loss_fn, gain)) <= 1e-4


class TestGelu:
    def test_zero_maps_to_zero(self):
        assert nm.gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        assert nm.gelu(Tensor([8.0])).data[0] == pytest.approx(8.0, rel=1e-6)
        assert nm.gelu(Tensor([-8.0])).data[0] == pytest.approx(0.0, abs=1e-6)

    def test_monotone_on_tested_range(self):
        xs = np.linspace(-0.5, 3.0, 101)
        ys = nm.gelu(Tensor(xs)).data
        assert np.all(np.diff(ys) > 0)

    @pytest.mark.parametrize("point", [-2.0, -1.0, 0.0, 1.0, 2.0])
    def test_gradient_at_point(self, point):
        x = Tensor(np.array([point]), requires_grad=True)

        def loss_fn():
            return nm.sum_all(nm.gelu(x)).item()

        with Tape() as tape:
            loss = nm.sum_all(nm.gelu(x))
        tape.backward(loss)
        assert max_rel_err(x.grad, finite_diff_grad(loss_fn, x)) <= 1e-4


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = nm.cross_entropy(logits, [0, 1, 2])
        assert loss.item() == pytest.approx(math.log(4.0), rel=1e-9)

    def test_confident_logits_give_near_zero(self):
        z = np.zeros((2, 5))
        z[0, 3] = 20.0
        z[1, 1] = 20.0
        assert nm.cross_entropy(Tensor(z), [3, 1]).item() < 1e-6

    def test_all_masked_out_is_an_error(self):
        with pytest.raises(ValueError, match="masked"):
            nm.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], [False, False])

    def test_target_out_of_range_is_an_error(self):
        with pytest.raises(ValueError, match="target"):
            nm.cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(10)
        z = rng.normal(0, 2, (4, 6))
        targets = [1, 5, 0, 2]
        mask = np.array([True, False, True, True])
        logits = Tensor(z, requires_grad=True)
        with Tape() as tape:
            loss = nm.cross_entropy(logits, targets, mask)
        tape.backward(loss)

        p = np.exp(z - z.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        expected = p.copy()
        expected[np.arange(4), targets] -= 1.0
        expected *= mask[:, None] / mask.sum()
        assert np.allclose(logits.grad, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        logits = rand((3, 5), seed=11, scale=2.0)
        targets = [4, 0, 2]

        def loss_fn():
            z = logits.data
            m = z.max(axis=-1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
            return float((lse - z[np.arange(3), targets]).mean())

        with Tape() as tape:
            loss = nm.cross_entropy(logits, targets)
        tape.backward(loss)
        assert max_rel_err(logits.grad, finite_diff_grad(loss_fn, logits)) <= 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        x = rand((3, 2), seed=12)
        with Tape() as tape:
            loss = nm.sum_all(x)
        tape.backward(loss)
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_sum_of_squares_gives_two_x(self):
        x = rand((4,), seed=13)
        with Tape() as tape:
            loss = nm.sum_all(nm.mul(x, x))
        tape.backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-12)

    def test_fanout_accumulates_both_paths(self):
        rng = np.random.default_rng(14)
        a_mat = rng.normal(0, 1, (3, 3))
        b_mat = rng.normal(0, 1, (3, 3))
        shared = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = nm.sum_all(nm.add(nm.matmul(shared, Tensor(a_mat)),
                                     nm.matmul(shared, Tensor(b_mat))))
        tape.backward(loss)

        # single-path duplication: two identical tensors, one path each
        left = Tensor(shared.data.copy(), requires_grad=True)
        right = Tensor(shared.data.copy(), requires_grad=True)
        with Tape() as tape2:
            loss2 = nm.sum_all(nm.add(nm.matmul(left, Tensor(a_mat)),
                                      nm.matmul(right, Tensor(b_mat))))
        tape2.backward(loss2)
        assert np.allclose(shared.grad, left.grad + right.grad, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = rand((2, 2), seed=15)
        with Tape() as tape:
            y = nm.add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_unrecorded_loss_rejected(self):
        with pytest.raises(ValueError, match="recorded"):
            Tape().backward(Tensor(np.asarray(1.0)))

    def test_unused_parameter_keeps_zero_grad(self):
        used = rand((2, 2), seed=16)
        unused = rand((2, 2), seed=17)
        with Tape() as tape:
            loss = nm.sum_all(used)
        tape.backward(loss)
        assert np.array_equal(unused.grad, np.zeros((2, 2)))

    def test_no_tape_means_no_recording(self):
        x = rand((2, 2), seed=18)
        out = nm.add(x, x)
        assert not out.requires_grad
        with pytest.raises(ValueError, match="recorded"):
            Tape().backward(nm.sum_all(out))

    def test_second_backward_on_a_consumed_tape_raises(self):
        x = rand((2, 2), seed=21)
        with Tape() as tape:
            loss = nm.sum_all(nm.mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        with pytest.raises(ValueError, match="consumed"):
            tape.backward(loss)
        assert np.array_equal(x.grad, first)

    @pytest.mark.parametrize("twice", ["add_x_x", "add_a_reshape_a"])
    def test_aliased_first_gradients_match_finite_differences(self, twice):
        # add hands its output's gradient g to both inputs, and reshape a view
        # of it; the inputs here are intermediates, which keep a first gradient
        # as it is, and each later gets another gradient added in place
        p = rand((2, 3), seed=24)
        q = rand((2, 3), seed=25)
        w1, w2 = np.random.default_rng(26).normal(0, 1, (2, 2, 3))

        def forward():
            a = nm.scale(p, 1.5)
            c = nm.scale(q, -2.0)
            u = nm.mul(a, Tensor(w1))  # a's other consumer, reached last in backward
            y = nm.add(a, a) if twice == "add_x_x" else nm.add(a, nm.reshape(a, (2, 3)))
            return nm.sum_all(nm.add(nm.mul(nm.add(y, c), Tensor(w2)), u))

        def loss_fn():
            return float(forward().data)

        with Tape() as tape:
            loss = forward()
        tape.backward(loss)
        assert max_rel_err(p.grad, finite_diff_grad(loss_fn, p)) <= 1e-6
        assert max_rel_err(q.grad, finite_diff_grad(loss_fn, q)) <= 1e-6

    def test_intermediate_gradients_are_released(self):
        x = rand((2, 2), seed=27)
        with Tape() as tape:
            hidden = nm.mul(x, x)
            loss = nm.sum_all(hidden)
        tape.backward(loss)
        assert hidden.grad is None and loss.grad is None
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-12)

    def test_activations_freed_without_the_cycle_collector(self):
        x = rand((3, 4), seed=22)
        w = rand((4, 5), seed=23)
        gc.disable()
        try:
            with Tape() as tape:
                hidden = nm.matmul(x, w)
                loss = nm.sum_all(nm.gelu(hidden))
            alive = weakref.ref(hidden.data)
            tape.backward(loss)
            del hidden, loss
            assert alive() is None
        finally:
            gc.enable()


class TestFiniteness:
    def test_chained_ops_stay_finite(self):
        x = rand((5, 6), seed=19, scale=10.0)
        gain = Tensor(np.ones(6))
        out = nm.softmax(nm.gelu(nm.rms_norm(x, gain)))
        assert np.all(np.isfinite(out.data))


class TestConcurrency:
    def test_independent_tapes_on_separate_threads(self):
        # read-only shared weights; one tape per thread
        import threading

        weights = Tensor(np.random.default_rng(20).normal(0, 1, (6, 6)))
        failures = []

        def worker(seed):
            try:
                x = rand((4, 6), seed=seed)
                with Tape() as tape:
                    loss = nm.sum_all(nm.mul(nm.matmul(x, weights), nm.matmul(x, weights)))
                tape.backward(loss)
                x2 = Tensor(x.data.copy(), requires_grad=True)
                with Tape() as tape2:
                    loss2 = nm.sum_all(nm.mul(nm.matmul(x2, weights), nm.matmul(x2, weights)))
                tape2.backward(loss2)
                if not np.allclose(x.grad, x2.grad):
                    failures.append(seed)
            except Exception as exc:  # noqa: BLE001 - surface to the main thread
                failures.append((seed, exc))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
