import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_diff_grad, max_rel_err, rope_complex_reference, rotate_pairs_reference
from pmrope import numerics as nm
from pmrope.numerics import ShapeError, Tape, Tensor
from pmrope.positional import RopeParams, progress_ids, rope_table, rotate_heads


def rotate(v, positions, params):
    """v, one [head_dim] vector or [n, head_dim] rows, rotated at positions
    ([n]) as the model rotates: one rope_table, then rotate_heads over a
    single head. Keeps v's dtype."""
    positions = np.asarray(positions, dtype=np.float64)
    rows = np.broadcast_to(v, positions.shape + (params.head_dim,))
    return rotate_heads(Tensor(rows), rope_table(positions, params, 1, rows.dtype)).data


class TestRopeParams:
    def test_frequencies_decreasing_in_unit_interval(self):
        params = RopeParams(head_dim=16)
        f = params.frequencies
        assert f[0] == 1.0
        assert np.all(f > 0) and np.all(f <= 1.0)
        assert np.all(np.diff(f) < 0)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            RopeParams(head_dim=5)

    def test_base_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="base"):
            RopeParams(head_dim=4, base=1.0)


class TestProgressSchedule:
    """The progress IDs of one sequence: one row of progress_ids."""

    def test_left_endpoint(self):
        assert progress_ids([100], 100, 2000.0)[0, 0] == 0.0

    def test_right_endpoint_hits_scale(self):
        assert progress_ids([100], 100, 2000.0)[0, 99] == 2000.0

    def test_midpoint(self):
        assert progress_ids([101], 101, 2000.0)[0, 50] == 1000.0

    def test_single_token_maps_to_zero(self):
        assert np.array_equal(progress_ids([1], 1, 2000.0), [[0.0]])

    @pytest.mark.parametrize("total_len", [2, 3, 17, 400])
    def test_endpoint_pinning_for_any_length(self, total_len):
        ids = progress_ids([total_len], total_len, 2000.0)[0]
        assert ids.shape == (total_len,) and ids[-1] == 2000.0
        assert np.all(np.diff(ids) > 0)
        # affine: constant second difference
        if total_len >= 3:
            assert np.allclose(np.diff(ids, n=2), 0.0, atol=1e-9)

    def test_overflow_extrapolates_past_scale(self):
        ids = progress_ids([5], 7, 2000.0)[0]
        assert ids[-1] > 2000.0
        assert np.allclose(np.diff(ids), 500.0)

    def test_zero_scale_pins_everything_at_zero(self):
        assert np.array_equal(progress_ids([9], 9, 0.0), np.zeros((1, 9)))


class TestProgressIds:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 500), min_size=1, max_size=6), st.integers(0, 700),
           st.sampled_from([0.0, 1.0, 7.5, 2000.0, 1e6]))
    def test_rows_equal_the_per_row_formula_bitwise(self, total_lens, n, scale):
        # L == 1 and n > L are both in the drawn range
        ids = progress_ids(np.array(total_lens), n, scale)
        assert ids.shape == (len(total_lens), n) and ids.dtype == np.float64
        for row, total_len in zip(ids, total_lens):
            if total_len == 1:
                expected = np.zeros(n)
            else:
                expected = np.arange(n, dtype=np.float64) / (total_len - 1) * scale
            assert np.array_equal(row, expected)
            assert np.array_equal(progress_ids([total_len], n, scale)[0], expected)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=4), st.integers(0, 80),
           st.integers(0, 80), st.sampled_from([0.0, 7.5, 2000.0]))
    def test_a_start_gives_those_columns_of_the_full_array_bitwise(self, total_lens, start, n,
                                                                    scale):
        # L == 1, and columns past L, are both in the drawn range
        full = progress_ids(total_lens, start + n, scale)
        assert np.array_equal(progress_ids(total_lens, n, scale, start=start), full[:, start:])

    def test_a_start_on_a_single_token_stream_stays_at_zero(self):
        assert np.array_equal(progress_ids([1, 3], 2, 2000.0, start=4),
                              [[0.0, 0.0], [4000.0, 5000.0]])


class TestApplyRope:
    """Rotating single vectors, through rope_table and rotate_heads."""

    def test_position_zero_is_identity(self):
        v = np.random.default_rng(0).normal(0, 1, 8)
        out = rotate(v, [0.0], RopeParams(head_dim=8))
        assert np.array_equal(out[0], v)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(0, 1, (50, 16))
        out = rotate(rows, rng.uniform(-3000, 3000, 50), RopeParams(head_dim=16))
        assert np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(rows, axis=1)).max() <= 1e-9

    def test_length_mismatch(self):
        table = rope_table(np.array([1.0]), RopeParams(head_dim=8), 1, np.float64)
        with pytest.raises(ShapeError, match="does not match"):
            rotate_heads(Tensor(np.ones((1, 6))), table)

    @pytest.mark.parametrize("position", [0, 1, 7, 100, 1999])
    def test_matches_complex_reference_at_integer_positions(self, position):
        params = RopeParams(head_dim=12)
        v = np.random.default_rng(position).normal(0, 1, 12)
        expected = rope_complex_reference(v, position, params.frequencies)
        assert np.allclose(rotate(v, [position], params)[0], expected, atol=1e-12)

    def test_fractional_positions_accepted(self):
        out = rotate(np.ones(8), [13.37], RopeParams(head_dim=8))[0]
        assert np.all(np.isfinite(out))
        assert not np.allclose(out, np.ones(8))


def _shift_gap(dtype, n_trials, rng):
    """Worst |score(a,b) - score(a+c,b+c)| over random tuples."""
    params = RopeParams(head_dim=16)
    worst = 0.0
    for _ in range(n_trials):
        q = rng.normal(0, 1, 16).astype(dtype)
        k = rng.normal(0, 1, 16).astype(dtype)
        a, b = rng.uniform(0, 2000, 2)
        c = rng.uniform(-1000, 1000)
        # attention logits q.k / sqrt(head_dim), taken in float64
        qa, qc = rotate(q, [a, a + c], params).astype(np.float64)
        kb, kc = rotate(k, [b, b + c], params).astype(np.float64)
        worst = max(worst, abs(qa @ kb / np.sqrt(16) - qc @ kc / np.sqrt(16)))
    return worst


class TestRelativeProgressInvariance:
    def test_float32_within_1e_6(self):
        assert _shift_gap(np.float32, 200, np.random.default_rng(2)) <= 1e-6

    def test_float64_within_1e_10(self):
        assert _shift_gap(np.float64, 200, np.random.default_rng(3)) <= 1e-10


class TestCrossAttentionScores:
    def test_zero_rotation_equals_unrotated_baseline_bitwise(self):
        rng = np.random.default_rng(4)
        params = RopeParams(head_dim=8)
        q = rng.normal(0, 1, (3, 8))
        k = rng.normal(0, 1, (5, 8))
        q_rot = rotate(q, np.zeros(3), params)
        k_rot = rotate(k, np.zeros(5), params)
        assert np.array_equal(q_rot @ k_rot.T / np.sqrt(8), q @ k.T / np.sqrt(8))

    def test_same_progress_maximizes_self_score(self):
        # enumerate rotated copies of one key over a progress grid
        params = RopeParams(head_dim=16)
        q = np.random.default_rng(5).normal(0, 1, 16)
        q_progress = 700.0
        q_rot = rotate(q, [q_progress], params)[0]
        grid = np.linspace(0, 2000, 401)
        scores = rotate(q, grid, params) @ q_rot / np.sqrt(16)
        assert grid[int(np.argmax(scores))] == pytest.approx(q_progress, abs=grid[1] - grid[0])

    def test_score_depends_only_on_progress_difference(self):
        rng = np.random.default_rng(6)
        params = RopeParams(head_dim=16)
        q = rng.normal(0, 1, 16)
        k = rng.normal(0, 1, 16)
        a, b, c = 123.4, 987.6, 333.3
        (qa, qc), (kb, kc) = rotate(q, [a, a + c], params), rotate(k, [b, b + c], params)
        s1 = qa @ kb / np.sqrt(16)
        s2 = qc @ kc / np.sqrt(16)
        assert s1 == pytest.approx(s2, abs=1e-10)


def table_for(positions, params, n_heads, dtype=np.float64):
    return rope_table(np.asarray(positions, dtype=np.float64), params, n_heads, dtype)


class TestRotateHeads:
    def test_rows_match_vector_rope_per_head(self):
        rng = np.random.default_rng(7)
        params = RopeParams(head_dim=4)
        x = rng.normal(0, 1, (5, 8))  # 2 heads of dim 4
        positions = rng.uniform(0, 2000, 5)
        out = rotate_heads(Tensor(x), table_for(positions, params, 2)).data
        for i in range(5):
            for h in range(2):
                expected = rope_complex_reference(x[i, 4 * h:4 * h + 4], positions[i],
                                                  params.frequencies)
                assert np.allclose(out[i, 4 * h:4 * h + 4], expected, atol=1e-12)

    def test_zero_positions_identity(self):
        x = np.random.default_rng(8).normal(0, 1, (4, 8)).astype(np.float32)
        out = rotate_heads(Tensor(x), table_for(np.zeros(4), RopeParams(head_dim=4), 2,
                                                np.float32))
        assert np.all(out.data == x)

    def test_gradient_matches_finite_differences(self):
        params = RopeParams(head_dim=4)
        x = Tensor(np.random.default_rng(9).normal(0, 1, (3, 8)), requires_grad=True)
        table = table_for([0.0, 700.5, 2000.0], params, 2)
        w = np.random.default_rng(10).normal(0, 1, (3, 8))

        def loss_fn():
            return float((rotate_heads(x, table).data * w).sum())

        with Tape() as tape:
            loss = nm.sum_all(nm.mul(rotate_heads(x, table), Tensor(w)))
        tape.backward(loss)
        assert max_rel_err(x.grad, finite_diff_grad(loss_fn, x)) <= 1e-4

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            rotate_heads(Tensor(np.ones((2, 6))), table_for(np.zeros(2), RopeParams(head_dim=4), 2))


class TestRopeTable:
    """One table shared by several rotations, as a forward pass shares it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_table_is_bitwise_a_fresh_table_and_the_pairwise_form(self, dtype):
        rng = np.random.default_rng(11)
        params = RopeParams(head_dim=8)
        positions = rng.uniform(-50, 2500, (3, 5))
        table = rope_table(positions, params, 4, dtype)
        for seed in range(4):  # q, k, ... of one pass
            x = rng.normal(0, 1, (3, 5, 32)).astype(dtype)
            g = rng.normal(0, 1, (3, 5, 32)).astype(dtype)
            fresh = rope_table(positions.copy(), params, 4, dtype)
            want, want_grad = rotate_pairs_reference(x, g, positions, params.frequencies, 4)
            for tab in (table, fresh):
                xt = Tensor(x.copy(), requires_grad=True)
                with Tape() as tape:
                    loss = nm.sum_all(nm.mul(rotate_heads(xt, tab), Tensor(g)))
                out = rotate_heads(Tensor(x), tab).data
                tape.backward(loss)
                assert out.dtype == dtype and np.array_equal(out, want)
                assert np.array_equal(xt.grad, want_grad)

    def test_shared_table_matches_the_complex_reference(self):
        rng = np.random.default_rng(12)
        params = RopeParams(head_dim=6)
        positions = rng.uniform(0, 2000, 4)
        table = rope_table(positions, params, 3, np.float64)
        for _ in range(3):
            x = rng.normal(0, 1, (4, 18))
            out = rotate_heads(Tensor(x), table).data
            for i in range(4):
                for h in range(3):
                    expected = rope_complex_reference(x[i, 6 * h:6 * h + 6], positions[i],
                                                      params.frequencies)
                    assert np.allclose(out[i, 6 * h:6 * h + 6], expected, atol=1e-12)

    def test_gradient_through_a_shared_table(self):
        params = RopeParams(head_dim=4)
        rng = np.random.default_rng(13)
        q = Tensor(rng.normal(0, 1, (2, 3, 8)), requires_grad=True)
        k = Tensor(rng.normal(0, 1, (2, 3, 8)), requires_grad=True)
        table = table_for(rng.uniform(0, 2000, (2, 3)), params, 2)

        def loss_fn():
            return float((rotate_heads(q, table).data * rotate_heads(k, table).data).sum())

        with Tape() as tape:
            loss = nm.sum_all(nm.mul(rotate_heads(q, table), rotate_heads(k, table)))
        tape.backward(loss)
        assert max_rel_err(q.grad, finite_diff_grad(loss_fn, q)) <= 1e-4
        assert max_rel_err(k.grad, finite_diff_grad(loss_fn, k)) <= 1e-4

    @pytest.mark.parametrize("positions_shape, dtype", [((2, 4), np.float32), ((3,), np.float32),
                                                        ((2, 3), np.float64)],
                             ids=["rows", "unbatched", "dtype"])
    def test_table_must_match_the_rows(self, positions_shape, dtype):
        table = rope_table(np.zeros(positions_shape), RopeParams(head_dim=4), 2, dtype)
        with pytest.raises(ShapeError, match="does not match"):
            rotate_heads(Tensor(np.ones((2, 3, 8), dtype=np.float32)), table)
