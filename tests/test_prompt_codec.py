"""Prompt codec tests: compose/interpolate oracles, quantizer bounds, bitrates."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptstream import prompt_codec as pc
from promptstream.numerics import ShapeMismatchError

RNG = np.random.default_rng(7)


def rand_prompt(rank=8, d=64):
    return pc.random_prompt(rank, d, RNG)


class TestCompose:
    def test_rank_one_all_ones(self):
        p = pc.LowRankPrompt(np.ones((77, 1), np.float32), np.ones((1, 16), np.float32))
        assert np.array_equal(pc.compose(p), np.ones((77, 16), np.float32))

    def test_zero_factors(self):
        p = pc.LowRankPrompt(np.zeros((77, 4), np.float32), RNG.normal(size=(4, 16)).astype(np.float32))
        assert np.array_equal(pc.compose(p), np.zeros((77, 16), np.float32))

    def test_matches_triple_loop_oracle(self):
        p = rand_prompt(rank=8, d=32)
        want = np.empty((77, 32), np.float32)
        for i in range(77):
            for j in range(32):
                s = np.float32(0.0)
                for k in range(8):
                    s = np.float32(s + np.float32(p.U[i, k] * p.V[k, j]))
                want[i, j] = s
        assert np.array_equal(pc.compose(p), want)

    def test_rank_bound_enforced(self):
        with pytest.raises(ValueError, match="rank"):
            pc.LowRankPrompt(np.zeros((77, 20), np.float32), np.zeros((20, 8), np.float32))

    @pytest.mark.parametrize("u_shape, v_shape", [((76, 2), (2, 8)), ((77, 2), (3, 8)), ((77,), (1, 8)),
                                                  ((77, 2), (2, 8, 1))])
    def test_factor_shapes_enforced(self, u_shape, v_shape):
        with pytest.raises(ShapeMismatchError, match="LowRankPrompt"):
            pc.LowRankPrompt(np.zeros(u_shape, np.float32), np.zeros(v_shape, np.float32))


class TestInterpolate:
    def setup_method(self):
        self.group = pc.PromptGroup(rand_prompt(), rand_prompt(), group_len=5)

    def test_endpoints_exact(self):
        assert np.array_equal(pc.interpolate(self.group, 0), pc.compose(self.group.keyframe_a))
        assert np.array_equal(pc.interpolate(self.group, 4), pc.compose(self.group.keyframe_b))

    def test_midpoint_is_elementwise_mean(self):
        mid = pc.interpolate(self.group, 2)
        want = 0.5 * (pc.compose(self.group.keyframe_a) + pc.compose(self.group.keyframe_b))
        assert np.abs(mid - want).max() < 1e-6

    def test_affine_in_alpha(self):
        a = pc.compose(self.group.keyframe_a) + pc.compose(self.group.keyframe_b)
        for i in range(5):
            j = 4 - i  # alphas are symmetric for uniform spacing
            s = pc.interpolate(self.group, i) + pc.interpolate(self.group, j)
            assert np.abs(s - a).max() < 1e-5

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            pc.interpolate(self.group, 5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            pc.PromptGroup(rand_prompt(), rand_prompt(), 4, alphas=(0.0, 0.7, 0.7, 1.0))
        with pytest.raises(ValueError, match="start at 0"):
            pc.PromptGroup(rand_prompt(), rand_prompt(), 3, alphas=(0.1, 0.5, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            pc.PromptGroup(self.group.keyframe_a, self.group.keyframe_b, 3, alphas=(0.0, float("nan"), 1.0))

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_uniform_alphas_needs_two_frames(self, n):
        with pytest.raises(ValueError, match="n >= 2"):
            pc.uniform_alphas(n)

    def test_mismatched_keyframes(self):
        with pytest.raises(ShapeMismatchError):
            pc.PromptGroup(rand_prompt(rank=4), rand_prompt(rank=8), 5)

    @pytest.mark.parametrize("group_len", [1, 0, -3])
    def test_group_len_below_two_rejected(self, group_len):
        kf = pc.random_prompt(2, 8, np.random.default_rng(84))  # its own generator, not RNG
        with pytest.raises(ValueError, match="group_len must be >= 2"):
            pc.PromptGroup(kf, kf, group_len)

    @pytest.mark.parametrize("alphas", [(0.0, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0)])
    def test_alpha_count_must_equal_group_len(self, alphas):
        kf = pc.random_prompt(2, 8, np.random.default_rng(85))
        with pytest.raises(ValueError, match=f"{len(alphas)} alphas for group_len 3"):
            pc.PromptGroup(kf, kf, 3, alphas=alphas)


class TestFrameIndex:
    """interpolate's frame index; the groups come from their own generators, not RNG."""

    @staticmethod
    def group(seed):
        rng = np.random.default_rng(seed)
        return pc.PromptGroup(pc.random_prompt(2, 8, rng), pc.random_prompt(2, 8, rng), group_len=5)

    @pytest.mark.parametrize("i", [True, False, 1.0, 2.5])
    def test_non_integer_index_rejected(self, i):
        with pytest.raises(TypeError, match="frame index must be|cannot be interpreted as an integer"):
            pc.interpolate(self.group(81), i)

    def test_numpy_integer_index_accepted(self):
        group = self.group(82)
        assert pc.interpolate(group, np.int64(3)).tobytes() == pc.interpolate(group, 3).tobytes()
        with pytest.raises(IndexError):
            pc.interpolate(group, np.int32(5))


class TestKeyframeCache:
    def test_compose_runs_once_per_keyframe(self, monkeypatch):
        calls = []
        real = pc.compose
        monkeypatch.setattr(pc, "compose", lambda p: calls.append(p) or real(p))
        kfs = [rand_prompt() for _ in range(3)]
        for g in (pc.PromptGroup(kfs[0], kfs[1], 5), pc.PromptGroup(kfs[1], kfs[2], 5)):
            for i in range(5):
                pc.interpolate(g, i)
        assert [id(p) for p in calls] == [id(p) for p in kfs]

    @pytest.mark.parametrize("alphas", [None, (0.0, 0.1, 1 / 3, 0.9, 1.0)])
    def test_frames_are_float32_lerp_of_composed_keyframes(self, alphas):
        g = pc.PromptGroup(rand_prompt(rank=16, d=128), rand_prompt(rank=16, d=128), 5, alphas=alphas)
        a, b = pc.compose(g.keyframe_a), pc.compose(g.keyframe_b)
        for i, alpha in enumerate(g.alphas):
            al = np.float32(alpha)
            want = a * (np.float32(1.0) - al) + b * al
            assert pc.interpolate(g, i).tobytes() == want.tobytes()

    def test_cache_is_read_only_and_frames_are_fresh(self):
        g = pc.PromptGroup(rand_prompt(), rand_prompt(), 5)
        kf = g.keyframe_a
        first = pc.interpolate(g, 0)
        for arr in (kf.matrix, kf.U, kf.V):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            kf.matrix[0, 0] = 1.0
        for i in range(5):
            frame = pc.interpolate(g, i)
            assert frame.flags.writeable
            assert not np.shares_memory(frame, g.keyframe_a.matrix)
            assert not np.shares_memory(frame, g.keyframe_b.matrix)
            frame[:] = 0.0
        assert np.array_equal(pc.interpolate(g, 0), first)

    def test_caller_mutating_factors_leaves_frames_unchanged(self):
        u, v = rand_prompt().U.copy(), rand_prompt().V.copy()
        want = pc.compose(pc.LowRankPrompt(u.copy(), v.copy()))
        g = pc.PromptGroup(pc.LowRankPrompt(u, v), rand_prompt(), 3)
        u[:] = 0.0  # before the keyframe is first composed
        assert pc.interpolate(g, 0).tobytes() == want.tobytes()
        v *= 2.0  # after
        assert pc.interpolate(g, 0).tobytes() == want.tobytes()


class TestIdentity:
    def test_prompt_equality_is_identity(self):
        a = rand_prompt()
        twin = pc.LowRankPrompt(a.U, a.V)
        assert a == a and a != twin
        assert a in [a] and twin not in [a]

    def test_prompts_and_groups_key_a_dict(self):
        a, b = rand_prompt(), rand_prompt()
        g = pc.PromptGroup(a, b, 3)
        seen = {a: "a", b: "b", g: "g"}
        assert seen[a] == "a" and seen[b] == "b" and seen[g] == "g"
        assert len({a, pc.LowRankPrompt(a.U, a.V)}) == 2
        assert g == g and g != pc.PromptGroup(a, b, 3)


class TestQuantizer:
    def test_zeros_roundtrip(self):
        qm = pc.quantize(np.zeros((5, 4), np.float32))
        assert qm.scale == 0.0
        assert (qm.codes == 1 << 11).all()
        out = pc.dequantize(qm)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.zeros((5, 4), np.float32))

    @pytest.mark.parametrize("q", [1, 12, pc.MAX_Q])
    def test_zero_matrix_dequantizes_to_positive_zero(self, q):
        out = pc.dequantize(pc.quantize(np.zeros((5, 4), np.float32), q))
        assert out.tobytes() == np.zeros((5, 4), np.float64).tobytes()

    def test_three_level_bound(self):
        m = np.array([[-1.0, 0.0, 1.0]], np.float32)
        qm = pc.quantize(m, q=12)
        err = np.abs(pc.dequantize(qm) - m).max()
        assert err <= 2.0 / (2 ** 12 - 1) / 2 + 1e-9

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_random_roundtrip_bound(self, seed):
        m = np.random.default_rng(seed).uniform(-3, 3, size=(77, 64)).astype(np.float32)
        qm = pc.quantize(m, q=12)
        out = pc.dequantize(qm)
        assert out.dtype == np.float64
        err = np.abs(out - m).max()
        assert err <= qm.scale / 2 * (1 + 1e-5)

    @given(st.integers(2, 14), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_requantize_is_idempotent(self, q, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(0, 1, size=(9, 7)).astype(np.float32)
        qm = pc.quantize(m, q=q)
        qm2 = pc.quantize(pc.dequantize(qm), q=q)
        assert np.array_equal(qm.codes, qm2.codes)

    def test_codes_within_width(self):
        m = RNG.normal(size=(20, 20)).astype(np.float32)
        qm = pc.quantize(m, q=6)
        assert qm.codes.max() <= 63 and qm.codes.min() >= 0

    @pytest.mark.parametrize("q", [0, pc.MAX_Q + 1, 33])
    def test_quantize_rejects_width_out_of_range(self, q):
        with pytest.raises(ValueError, match="q must lie"):
            pc.quantize(np.array([[-1.0, 0.0, 1.0]], np.float32), q=q)

    @pytest.mark.parametrize("m,q", [([[1e-45, 0.0, -1e-45]], 12), ([[3e38, -1.0, 0.0]], 1)],
                             ids=["scale_rounds_to_zero", "scale_overflows"])
    def test_quantize_rejects_scale_not_finite_and_positive(self, m, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and positive"):
                pc.quantize(np.array(m, np.float32), q=q)

    def test_dequantize_rejects_code_above_width(self):
        qm = pc.quantize(np.array([[-1.0, 0.0, 1.0]], np.float32), q=4)
        bad = pc.QuantizedMatrix(qm.q, qm.scale, np.array([0, 15, 16], np.uint32), qm.shape)
        with pytest.raises(ValueError, match="codes outside"):
            pc.dequantize(bad)

    @pytest.mark.parametrize("codes", [np.array([1.5, 2.0]), np.array([True, False]), [1, 2], None],
                             ids=["float", "bool", "list", "None"])
    def test_dequantize_rejects_codes_that_are_not_integers(self, codes):
        with pytest.raises(ValueError, match="^dequantize: codes must be integers"):
            pc.dequantize(pc.QuantizedMatrix(12, 0.1, codes, (2,)))

    # A scale must be a float32 value, finite and >= 0: numpy would warn of
    # overflow at 1e308 and give infinite levels.
    @pytest.mark.parametrize("scale", [np.nan, -1.0, np.inf, 1e308, 0.1, "0.5", 1j])
    def test_dequantize_rejects_bad_scale(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^dequantize: scale must be finite and >= 0"):
                pc.dequantize(pc.QuantizedMatrix(12, scale, np.array([1, 2], np.uint32), (2,)))

    def test_dequantize_rejects_shape_that_is_not_a_sequence(self):
        with pytest.raises(TypeError, match="^dequantize: shape must be a sequence, got 2$"):
            pc.dequantize(pc.QuantizedMatrix(12, 0.1, np.array([1, 2], np.uint32), 2))

    @pytest.mark.parametrize("shape", [(2, 2), (-1, -3)])
    def test_dequantize_rejects_shape_that_does_not_hold_the_codes(self, shape):
        with pytest.raises(ValueError, match="^dequantize: shape .* does not hold 3 codes$"):
            pc.dequantize(pc.QuantizedMatrix(12, 0.1, np.array([1, 2, 3], np.uint32), shape))

    @pytest.mark.parametrize("shape", [(3.0,), (True, 3)])
    def test_dequantize_rejects_shape_entry_that_is_not_an_integer(self, shape):
        with pytest.raises(TypeError, match="^dequantize: shape entry must be an integer"):
            pc.dequantize(pc.QuantizedMatrix(12, 0.1, np.array([1, 2, 3], np.uint32), shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_quantize_rejects_non_finite_entries(self, bad):
        m = np.random.default_rng(86).uniform(-1, 1, (3, 4)).astype(np.float32)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pc.quantize(m)

    def test_dequantize_rejects_width_out_of_range(self):
        qm = pc.QuantizedMatrix(pc.MAX_Q + 1, 1.0, np.zeros(3, np.uint32), (1, 3))
        with pytest.raises(ValueError, match="q must lie"):
            pc.dequantize(qm)

    @given(st.integers(1, 8), st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_compose_of_dequantized_levels_matches_float32_factors(self, rank, seed):
        p = pc.random_prompt(rank, 32, np.random.default_rng(seed))
        u, v = pc.dequantize(pc.quantize(p.U)), pc.dequantize(pc.quantize(p.V))
        got = pc.compose(pc.LowRankPrompt(u, v))
        want = pc.compose(pc.LowRankPrompt(u.astype(np.float32), v.astype(np.float32)))
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


class TestBitrate:
    def test_paper_operating_point(self):
        assert pc.bitrate_estimate(1024, 1, 12, 1) == 13212

    def test_zero_rank(self):
        assert pc.bitrate_estimate(1024, 0, 12, 1) == 0

    def test_rank_sixteen(self):
        assert pc.bitrate_estimate(1024, 16, 12, 1) == 211392

    def test_linear_in_each_factor(self):
        base = pc.bitrate_estimate(64, 3, 10, 2)
        assert pc.bitrate_estimate(64, 6, 10, 2) == 2 * base
        assert pc.bitrate_estimate(64, 3, 20, 2) == 2 * base
        assert pc.bitrate_estimate(64, 3, 10, 4) == 2 * base

    def test_exact_with_fractional_rate(self):
        r = pc.bitrate_estimate(1024, 1, 12, Fraction(3, 2))
        assert r == 19818 and isinstance(r, int)

    @pytest.mark.parametrize("q", [0, pc.MAX_Q + 1, 33])
    def test_rejects_q_out_of_range(self, q):
        with pytest.raises(ValueError, match="q must lie"):
            pc.bitrate_estimate(1024, 1, q, 1)

    @pytest.mark.parametrize("d, rank", [(1024, 78), (1024, 100), (16, 17), (1024, -1)])
    def test_rejects_rank_out_of_range(self, d, rank):
        with pytest.raises(ValueError, match="rank"):
            pc.bitrate_estimate(d, rank, 12, 1)

    @pytest.mark.parametrize("d", [0, -64])
    def test_rejects_width_not_positive(self, d):
        with pytest.raises(ValueError, match="d must be positive"):
            pc.bitrate_estimate(d, 0, 12, 1)

    @pytest.mark.parametrize("rate", [-1, -0.5, Fraction(-1, 2), float("nan"), float("inf"), -float("inf")],
                             ids=["-1", "-0.5", "-1/2", "nan", "inf", "-inf"])
    def test_rejects_keyframe_rate_negative_or_not_finite(self, rate):
        with pytest.raises(ValueError, match="keyframes_per_second must be finite and >= 0"):
            pc.bitrate_estimate(1024, 8, 12, rate)

    def test_zero_keyframe_rate_is_zero_bits(self):
        assert pc.bitrate_estimate(1024, 8, 12, 0) == 0
        assert pc.bitrate_estimate(1024, 8, 12, Fraction(0)) == 0

    def test_limits_are_accepted(self):
        assert pc.bitrate_estimate(1024, 77, pc.MAX_Q, 1) == (77 + 1024) * 77 * pc.MAX_Q
        assert pc.bitrate_estimate(16, 16, 1, 1) == (77 + 16) * 16


class TestCodecIntegers:
    """The codec's integer arguments go through nm.index_arg: a bool or a float is a TypeError naming it."""

    M = np.array([[-1.0, 0.0, 1.0]], np.float32)
    KF = pc.random_prompt(2, 8, np.random.default_rng(83))  # its own generator, not RNG

    @pytest.mark.parametrize("name, call", [
        ("q", lambda: pc.quantize(TestCodecIntegers.M, q=True)),
        ("q", lambda: pc.quantize(TestCodecIntegers.M, q=12.0)),
        ("q", lambda: pc.dequantize(pc.QuantizedMatrix(True, 1.0, np.zeros(3, np.uint32), (1, 3)))),
        ("q", lambda: pc.bitrate_estimate(1024, 8, 12.5, 1)),
        ("d", lambda: pc.bitrate_estimate(1024.5, 8, 12, 1)),
        ("rank", lambda: pc.bitrate_estimate(1024, 8.5, 12, 1)),
        ("rank", lambda: pc.bitrate_estimate(1024, True, 12, 1)),
        ("group_len", lambda: pc.PromptGroup(TestCodecIntegers.KF, TestCodecIntegers.KF, 5.0)),
        ("group_len", lambda: pc.PromptGroup(TestCodecIntegers.KF, TestCodecIntegers.KF, True)),
        ("uniform_alphas: n", lambda: pc.uniform_alphas(2.5)),
        ("uniform_alphas: n", lambda: pc.uniform_alphas(True)),
    ], ids=["quantize-bool", "quantize-float", "dequantize-bool", "bitrate-q", "bitrate-d", "bitrate-rank",
            "bitrate-rank-bool", "group_len-float", "group_len-bool", "uniform_alphas-float", "uniform_alphas-bool"])
    def test_non_integer_rejected(self, name, call):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        assert pc.bitrate_estimate(np.int64(1024), np.int32(8), np.uint8(12), 1) == 105696
        assert pc.quantize(self.M, q=np.int64(4)).codes.tolist() == pc.quantize(self.M, q=4).codes.tolist()
