"""Prompt codec tests: compose/interpolate oracles, quantizer bounds, bitrates, and every rejection."""

import ast
import traceback
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptstream import prompt_codec as pc
from promptstream.numerics import ShapeMismatchError

RNG = np.random.default_rng(7)
F32_MAX = float(np.finfo(np.float32).max)


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


class TestFrameIndex:
    def test_numpy_integer_index_accepted(self):
        rng = np.random.default_rng(82)  # its own generator, not RNG
        group = pc.PromptGroup(pc.random_prompt(2, 8, rng), pc.random_prompt(2, 8, rng), group_len=5)
        assert pc.interpolate(group, np.int64(3)).tobytes() == pc.interpolate(group, 3).tobytes()


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

    @pytest.mark.parametrize("q", [2, 12, pc.MAX_Q])
    def test_roundtrip_at_the_float32_limit(self, q):
        m = np.resize(np.array([F32_MAX, -F32_MAX, 1.0, 0.0], np.float32), (77, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow: the top level rounds to a finite float32
            qm = pc.quantize(m, q)
            out = pc.dequantize(qm)
            got = pc.compose(pc.LowRankPrompt(out, np.eye(2)))
        assert np.abs(out - m).max() <= qm.scale / 2
        assert got.tobytes() == out.astype(np.float32).tobytes()

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

    def test_zero_keyframe_rate_is_zero_bits(self):
        assert pc.bitrate_estimate(1024, 8, 12, 0) == 0
        assert pc.bitrate_estimate(1024, 8, 12, Fraction(0)) == 0

    def test_limits_are_accepted(self):
        assert pc.bitrate_estimate(1024, 77, pc.MAX_Q, 1) == (77 + 1024) * 77 * pc.MAX_Q
        assert pc.bitrate_estimate(16, 16, 1, 1) == (77 + 16) * 16


class TestCodecArguments:
    """Integer arguments go through nm.index_arg, and a keyframe rate or an alpha must be a real number."""

    M = np.array([[-1.0, 0.0, 1.0]], np.float32)

    def test_numpy_integers_accepted(self):
        assert pc.bitrate_estimate(np.int64(1024), np.int32(8), np.uint8(12), 1) == 105696
        assert pc.quantize(self.M, q=np.int64(4)).codes.tolist() == pc.quantize(self.M, q=4).codes.tolist()

    def test_numpy_reals_and_fractions_accepted(self):
        assert pc.bitrate_estimate(1024, 8, 12, np.int64(2)) == 4 * pc.bitrate_estimate(1024, 8, 12, np.float32(0.5))
        kf = pc.random_prompt(2, 8, np.random.default_rng(83))
        assert pc.PromptGroup(kf, kf, 3, alphas=(0, Fraction(1, 2), np.float32(1))).alphas == (0.0, 0.5, 1.0)
        levels = pc.dequantize(pc.QuantizedMatrix(4, Fraction(1, 2), np.array([0, 15]), (2,)))
        assert levels.dtype == np.float64 and levels.tolist() == [-3.75, 3.75]

    def test_rank_zero_random_prompt(self):
        p = pc.random_prompt(0, 8, np.random.default_rng(84))
        assert p.U.shape == (77, 0) and p.V.shape == (0, 8) and pc.compose(p).tobytes() == bytes(77 * 8 * 4)


def bad_codec_calls():
    """Each bad input the codec rejects, by name: the call, its arguments and keywords, error and anchored pattern."""
    rng = np.random.default_rng(88)  # the rows' own generator, not RNG
    kf, kf2 = pc.random_prompt(2, 8, rng), pc.random_prompt(2, 8, rng)
    group, m = pc.PromptGroup(kf, kf2, 5), np.array([[-1.0, 0.0, 1.0]], np.float32)

    def row(fn, case, args, error, message, kwargs={}, name=None):  # anchored at the rejecter, fn unless named
        return f"{fn.__name__} {case}", fn, args, kwargs, error, f"^{name or fn.__name__}: {message}"

    def qmat(q=12, scale=0.1, codes=np.array([1, 2, 3], np.uint32), shape=(3,)):
        return (pc.QuantizedMatrix(q, scale, codes, shape),)

    for u, v in [((76, 2), (2, 8)), ((77, 2), (3, 8)), ((77,), (1, 8)), ((77, 2), (2, 8, 1))]:
        yield row(pc.LowRankPrompt, f"of U {u}, V {v}", (np.zeros(u), np.zeros(v)), ShapeMismatchError, "U .* vs V ")
    numbers = "must hold bool, integer or float entries, got dtype "
    for name, bad in [("U", np.full((77, 2), None)), ("U", np.ones((77, 2), complex)), ("V", np.full((2, 8), "a")),
                      ("V", np.full((2, 8), b"a"))]:
        args = (bad, np.zeros((2, 8))) if name == "U" else (np.zeros((77, 2)), bad)
        yield row(pc.LowRankPrompt, f"of {name} of dtype {bad.dtype}", args, TypeError, f"{name} {numbers}{bad.dtype}$")
    for fn, args in [(pc.LowRankPrompt, (np.zeros((77, 20)), np.zeros((20, 8)))), (pc.random_prompt, (20, 8, rng))]:
        yield row(fn, "of rank 20 at d 8", args, ValueError, r"rank 20 exceeds min\(77, d=8\)$", name="LowRankPrompt")
    for rank, d in [(-1, 8), (2, -8)]:
        yield row(pc.random_prompt, f"of rank {rank} at d {d}", (rank, d, rng), ValueError,
                  f"rank and d must be >= 0, got rank={rank}, d={d}$")
    for name, rank, d in [("rank", 2.0, 8), ("rank", True, 8), ("d", 2, 8.0), ("d", 2, None)]:
        yield row(pc.random_prompt, f"of {rank!r}, {d!r}", (rank, d, rng), TypeError, f"{name} must be an integer")

    for a, b, got in [("a", kf, "str and LowRankPrompt"), (kf, None, "LowRankPrompt and NoneType")]:
        yield row(pc.PromptGroup, f"of keyframes of {got}", (a, b, 3), TypeError,
                  f"keyframes must be LowRankPrompts, got {got}$")
    for name, other in [("rank", pc.random_prompt(4, 8, rng)), ("d", pc.random_prompt(2, 16, rng))]:
        yield row(pc.PromptGroup, f"of keyframes of two {name}s", (kf, other, 5), ShapeMismatchError,
                  r"keyframes disagree: \(77, 2\)x\(2, 8\) vs ")
    for n, error, rule in [(1, ValueError, ">= 2, got 1$"), (0, ValueError, ">= 2, got 0$"),
                           (-3, ValueError, ">= 2, got -3$"), (5.0, TypeError, "an integer"),
                           (True, TypeError, "an integer")]:
        yield row(pc.PromptGroup, f"of length {n!r}", (kf, kf2, n), error, f"group_len must be {rule}")
    ends, rises = r"alphas must start at 0 and end at 1 \(shared keyframes\)$", "alphas must be strictly increasing$"
    for n, alphas, message in [(3, (0.0, 1.0), "2 alphas for group_len 3$"), (3, (0, 0.25, 0.5, 0.75, 1), "5 alphas "
                               "for group_len 3$"), (3, (0.1, 0.5, 1.0), ends), (3, (0.0, 0.5, 0.9), ends),
                               (4, (0.0, 0.7, 0.7, 1.0), rises), (3, (0.0, np.nan, 1.0), rises)]:
        yield row(pc.PromptGroup, f"of length {n} at {alphas}", (kf, kf2, n), ValueError, message, {"alphas": alphas})
    for sign in (1, -1):  # past the float range: the infinity of its sign
        yield row(pc.PromptGroup, f"at an alpha of {sign} * 10**400", (kf, kf2, 3), ValueError, rises,
                  {"alphas": (0, sign * 10 ** 400, 1)})
    for alphas in [("0", "0.5", "1"), (False, True, True), (0.0, None, 1.0), (0.0, 0.5j, 1.0), (0.0, np.True_, 1.0)]:
        yield row(pc.PromptGroup, f"at {alphas}", (kf, kf2, 3), TypeError, "an alpha must be a real number, got ",
                  {"alphas": alphas})
    yield row(pc.PromptGroup, "at 5", (kf, kf2, 3), TypeError, "alphas must be a sequence, got 5$", {"alphas": 5})

    for n in [1, 0, -1]:
        yield row(pc.uniform_alphas, f"of {n}", (n,), ValueError, f"needs n >= 2, got {n}$")
    for n in [2.5, True]:
        yield row(pc.uniform_alphas, f"of {n!r}", (n,), TypeError, "n must be an integer")
    for i in [5, -1, np.int32(5)]:
        yield row(pc.interpolate, f"at {i!r}", (group, i), IndexError, f"frame index {i} outside group of length 5$")
    for i in [True, False, 1.0, 2.5]:
        yield row(pc.interpolate, f"at {i!r}", (group, i), TypeError, f"frame index must be an integer, got {i!r}$")
    for bad in [None, kf]:
        yield row(pc.interpolate, f"of a {type(bad).__name__}", (bad, 0), TypeError,
                  f"group must be a PromptGroup, got {type(bad).__name__}$")

    for fn, args in [(pc.quantize, lambda q: (m, q)), (pc.dequantize, lambda q: qmat(q=q)),
                     (pc.bitrate_estimate, lambda q: (1024, 1, q, 1))]:
        for q in [0, pc.MAX_Q + 1, 33]:
            yield row(fn, f"at q {q}", args(q), ValueError, rf"q must lie in \[1, {pc.MAX_Q}\], got {q}$")
        for q in [True, 12.0, 12.5]:
            yield row(fn, f"at q {q!r}", args(q), TypeError, f"q must be an integer, got {q!r}$")
    for bad in [np.nan, np.inf, -np.inf]:
        drawn = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        drawn[1, 2] = bad
        yield row(pc.quantize, f"of a matrix holding {bad}", (drawn,), ValueError, "matrix contains non-finite values$")
    yield row(pc.quantize, "of a float64 matrix holding 1e39", (np.array([[1e39, 0.0]]),), ValueError,
              "matrix contains non-finite values$")  # inf as a float32, with no numpy warning first
    for bad in [[["a"]], np.full((2, 2), None), np.array([[1j]]), [[b"a"]]]:
        dtype = np.asarray(bad).dtype
        yield row(pc.quantize, f"of a matrix of dtype {dtype}", (bad,), TypeError, f"m {numbers}{dtype}$")
    for case, big, q in [("whose scale rounds to 0", 1e-45, 12), ("whose scale overflows", 3e38, 1),
                         ("whose top level overflows", F32_MAX, 5), ("whose top level overflows", F32_MAX, 13)]:
        yield row(pc.quantize, f"of a matrix {case} at q {q}", (np.array([[big, 0.0, -big]], np.float32), q),
                  ValueError, rf"max\|m\| = .* at q={q}; it must be finite and positive, with a top level that rounds")

    for bad in [None, (12, 0.1, np.array([1, 2, 3], np.uint32), (3,))]:
        yield row(pc.dequantize, f"of a {type(bad).__name__}", (bad,), TypeError,
                  f"qm must be a QuantizedMatrix, got {type(bad).__name__}$")
    for codes in [np.array([0, 15, 16]), np.array([-1, 2, 3])]:
        yield row(pc.dequantize, f"of codes {codes.tolist()} at q 4", qmat(4, 0.1, codes), ValueError,
                  r"codes outside \[0, 15\] for q=4$")
    for codes in [np.array([1.5, 2.0]), np.array([True, False]), [1, 2], None]:
        yield row(pc.dequantize, f"of codes {codes!r}", qmat(codes=codes), ValueError, "codes must be integers in a")
    # A scale must be a float32 value, finite and >= 0, whose top level (2^q - 1)/2 * scale rounds to a
    # finite float32: numpy would warn of overflow at 1e308, and compose at the levels past the float32 range.
    rule = "scale must be finite and >= 0, a float32 value, and give a top level that rounds to a finite float32 at q="
    for scale in [np.nan, -1.0, np.inf, 1e308, 0.1]:
        yield row(pc.dequantize, f"at scale {scale!r}", qmat(scale=scale), ValueError, f"{rule}12, got ")
    for scale in ["0.5", 1j, True, np.True_, None]:
        yield row(pc.dequantize, f"at scale {scale!r}", qmat(scale=scale), TypeError,
                  f"scale must be a real number, got {scale!r}$")
    for q, scale in [(4, float(np.float32(3e38))), (4, np.float32(3e38)), (2, F32_MAX)]:
        codes = np.tile([0, 2 ** q - 1], 77)  # the lowest and the top level
        yield row(pc.dequantize, f"at scale {scale!r}, q {q}", qmat(q, scale, codes, (77, 2)), ValueError, f"{rule}{q}")
    yield row(pc.dequantize, "at shape 2", qmat(shape=2), TypeError, "shape must be a sequence, got 2$")
    for shape in [(2, 2), (-1, -3)]:
        yield row(pc.dequantize, f"at shape {shape}", qmat(shape=shape), ValueError, r"shape .* does not hold 3 codes$")
    for shape in [(3.0,), (True, 3)]:
        yield row(pc.dequantize, f"at shape {shape}", qmat(shape=shape), TypeError, "shape entry must be an integer")

    for name, args in [("d", (1024.5, 8, 12, 1)), ("rank", (1024, 8.5, 12, 1)), ("rank", (1024, True, 12, 1))]:
        yield row(pc.bitrate_estimate, f"of {args}", args, TypeError, f"{name} must be an integer")
    for d, rank in [(1024, 78), (1024, 100), (16, 17), (1024, -1)]:
        yield row(pc.bitrate_estimate, f"at d {d}, rank {rank}", (d, rank, 12, 1), ValueError,
                  rf"rank must lie in \[0, min\(77, d={d}\)\], got {rank}$")
    for d in [0, -64]:
        yield row(pc.bitrate_estimate, f"at d {d}", (d, 0, 12, 1), ValueError, f"d must be positive, got {d}$")
    for rate in [-1, -0.5, Fraction(-1, 2), np.nan, np.inf, -np.inf]:
        yield row(pc.bitrate_estimate, f"at {rate!r}/s", (1024, 8, 12, rate), ValueError,
                  "keyframes_per_second must be finite and >= 0, got ")
    for rate in ["1", None, 1j, True, np.True_]:
        yield row(pc.bitrate_estimate, f"at {rate!r}/s", (1024, 8, 12, rate), TypeError,
                  f"keyframes_per_second must be a real number, got {rate!r}$")


_BAD_ROWS = list(bad_codec_calls())
BAD_CODEC_CALLS = {case: call for case, *call in _BAD_ROWS}
assert len(BAD_CODEC_CALLS) == len(_BAD_ROWS), "a row id repeats, so one row hides another"


class TestRejections:
    @pytest.mark.parametrize("case", list(BAD_CODEC_CALLS))
    def test_a_codec_call_rejects_bad_input(self, case):
        # In the rejecting function's words, with no numpy warning first.
        fn, args, kwargs, error, pattern = BAD_CODEC_CALLS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=pattern) as raised:
                fn(*args, **kwargs)
        assert raised.type is error

    def test_every_codec_check_has_a_row(self):
        # A check is a raise, or an nm.index_arg, nm.tuple_arg, nm.real_arg or nm.array_arg call, in prompt_codec.py;
        # each row's innermost frame there is a check, and each check is some row's.
        checks = {(n.lineno, n.col_offset, n.end_lineno, n.end_col_offset)
                  for n in ast.walk(ast.parse(Path(pc.__file__).read_text())) if isinstance(n, ast.Raise)
                  or isinstance(n, ast.Call) and getattr(n.func, "attr", "") in ("index_arg", "tuple_arg", "real_arg",
                                                                                  "array_arg")}
        failed = set()
        for fn, args, kwargs, *_ in BAD_CODEC_CALLS.values():
            with pytest.raises(Exception) as raised:
                fn(*args, **kwargs)
            f = [f for f in traceback.extract_tb(raised.tb) if f.filename == pc.__file__][-1]
            failed.add((f.lineno, f.colno, f.end_lineno, f.end_colno))
        assert failed <= checks, f"rows fail outside a check, at {sorted(failed - checks)}"
        assert checks <= failed, f"no row fails from the checks at {sorted(checks - failed)}"
