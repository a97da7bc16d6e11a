"""Low-rank prompt representation: factorization, interpolation, quantization.

The transmitted unit of semantic content is a 77xd prompt matrix stored as
U (77xr) times V (rxd). Keyframe prompts are fitted; intermediate frames
interpolate linearly between the two adjacent keyframes. Prompt factors go
on the wire as fixed-width uniform-quantized codes (no entropy coding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf, prod

import numpy as np

from . import numerics as nm

TOKENS = 77
DEFAULT_Q = 12
# Widest code for which dequantize's float64 level (c - half) * scale is
# exact: a (q+1)-bit half-integer times a 24-bit float32 scale needs q+25 bits.
MAX_Q = 28


@dataclass(frozen=True, eq=False)
class LowRankPrompt:
    """Factored prompt: compose() yields the 77xd matrix U @ V.

    Factors may be float32, or the exact float64 levels that dequantize
    returns; compose rounds them to float32 once, so both give the same bytes.
    `matrix` caches compose(self) on first use. U and V are stored as
    read-only copies of the arrays passed in, so the cache cannot go stale
    when the caller changes those arrays. Equality and hashing are by
    identity, so a keyframe can key a dict. A factor of objects, strings
    or complex numbers raises TypeError.
    """

    U: np.ndarray  # (77, r) float32 or float64
    V: np.ndarray  # (r, d) float32 or float64

    def __post_init__(self):
        u = np.array(nm.array_arg(self.U, "LowRankPrompt: U"))
        v = np.array(nm.array_arg(self.V, "LowRankPrompt: V"))
        if u.ndim != 2 or v.ndim != 2 or u.shape[0] != TOKENS or u.shape[1] != v.shape[0]:
            raise nm.ShapeMismatchError(f"LowRankPrompt: U {u.shape} vs V {v.shape}")
        u.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "V", v)
        if self.rank > min(TOKENS, self.d):
            raise ValueError(f"LowRankPrompt: rank {self.rank} exceeds min(77, d={self.d})")

    @cached_property
    def matrix(self) -> np.ndarray:
        """compose(self), computed on first use and kept read-only.

        Adjacent groups share a keyframe object, so each keyframe is
        composed once however many frames and groups read it.
        """
        m = compose(self)
        m.flags.writeable = False
        return m

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @property
    def d(self) -> int:
        return self.V.shape[1]


def random_prompt(rank, d, rng) -> LowRankPrompt:
    """Gaussian factors scaled so composed entries have roughly unit variance; rank 0 gives a 77x0 by 0xd prompt.

    rank and d must be integers (TypeError) >= 0 (ValueError); LowRankPrompt bounds the rank by min(77, d).
    """
    rank, d = nm.index_arg(rank, "random_prompt: rank"), nm.index_arg(d, "random_prompt: d")
    if min(rank, d) < 0:
        raise ValueError(f"random_prompt: rank and d must be >= 0, got rank={rank}, d={d}")
    s = rank ** -0.25 if rank else 1.0
    u = rng.normal(0.0, s, size=(TOKENS, rank)).astype(np.float32)
    v = rng.normal(0.0, s, size=(rank, d)).astype(np.float32)
    return LowRankPrompt(u, v)


def compose(p: LowRankPrompt):
    """U @ V with the library's fixed left-to-right summation order.

    nm.matmul rounds float64 factors to float32 before multiplying.
    """
    return nm.matmul(p.U, p.V).data


@dataclass(frozen=True, eq=False)
class PromptGroup:
    """A run of stitched frames spanned by two keyframe prompts.

    Keyframes are shared with adjacent groups, so alphas run from exactly
    0 (keyframe_a) to exactly 1 (keyframe_b). Equality and hashing are by
    identity, as for LowRankPrompt. Keyframes that are not LowRankPrompts
    raise TypeError.
    """

    keyframe_a: LowRankPrompt
    keyframe_b: LowRankPrompt
    group_len: int
    alphas: tuple = field(default=None)

    def __post_init__(self):
        if not (isinstance(self.keyframe_a, LowRankPrompt) and isinstance(self.keyframe_b, LowRankPrompt)):
            raise TypeError(f"PromptGroup: keyframes must be LowRankPrompts, got "
                            f"{type(self.keyframe_a).__name__} and {type(self.keyframe_b).__name__}")
        if self.keyframe_a.rank != self.keyframe_b.rank or self.keyframe_a.d != self.keyframe_b.d:
            raise nm.ShapeMismatchError(
                f"PromptGroup: keyframes disagree: "
                f"{self.keyframe_a.U.shape}x{self.keyframe_a.V.shape} vs "
                f"{self.keyframe_b.U.shape}x{self.keyframe_b.V.shape}")
        if nm.index_arg(self.group_len, "PromptGroup: group_len") < 2:
            raise ValueError(f"PromptGroup: group_len must be >= 2, got {self.group_len}")
        alphas = uniform_alphas(self.group_len) if self.alphas is None else tuple(
            nm.real_arg(a, "PromptGroup: an alpha") for a in nm.tuple_arg(self.alphas, "PromptGroup: alphas"))
        object.__setattr__(self, "alphas", alphas)
        if len(self.alphas) != self.group_len:
            raise ValueError(f"PromptGroup: {len(self.alphas)} alphas for group_len {self.group_len}")
        if self.alphas[0] != 0.0 or self.alphas[-1] != 1.0:
            raise ValueError("PromptGroup: alphas must start at 0 and end at 1 (shared keyframes)")
        if not all(a < b for a, b in zip(self.alphas, self.alphas[1:])):  # a NaN fails too
            raise ValueError("PromptGroup: alphas must be strictly increasing")


def uniform_alphas(n):
    """n alphas i/(n-1) from exactly 0 to exactly 1, each a float32 quotient; n must be an integer >= 2."""
    n = nm.index_arg(n, "uniform_alphas: n")
    if n < 2:
        raise ValueError(f"uniform_alphas: needs n >= 2, got {n}")
    return tuple(float(np.float32(i) / np.float32(n - 1)) for i in range(n))


def interpolate(group: PromptGroup, i: int):
    """Prompt matrix for frame i: (1-a_i)*compose(kf_a) + a_i*compose(kf_b).

    One nm.lerp of the keyframes' cached matrices, so the bytes are float32
    a*(1-a_i) + b*a_i with a = compose(kf_a) and b = compose(kf_b). The
    returned frame is a new, writable array that shares no memory with
    the cache. group must be a PromptGroup and i an integer (a numpy
    integer too, not a bool or a float): TypeError otherwise.
    """
    if not isinstance(group, PromptGroup):
        raise TypeError(f"interpolate: group must be a PromptGroup, got {type(group).__name__}")
    i = nm.index_arg(i, "interpolate: frame index")
    if not 0 <= i < group.group_len:
        raise IndexError(f"interpolate: frame index {i} outside group of length {group.group_len}")
    return nm.lerp(group.keyframe_a.matrix, group.keyframe_b.matrix, group.alphas[i]).data


@dataclass(frozen=True)
class QuantizedMatrix:
    """Uniform symmetric fixed-width codes for one float32 matrix."""

    q: int
    scale: float
    codes: np.ndarray  # uint32 in [0, 2^q - 1], flattened
    shape: tuple


def quantize(m, q=DEFAULT_Q) -> QuantizedMatrix:
    """Round-to-nearest-even uniform quantizer, scale = 2*max|m|/(2^q - 1).

    Every entry of the float32-cast matrix lies within scale/2 of its
    dequantized level. q must be an integer (TypeError for a bool or a
    float) in [1, MAX_Q], and the float32 scale must be finite and
    positive, with a top level (2^q - 1)/2 * scale that rounds to a finite
    float32, as dequantize requires: a ValueError names a matrix whose
    max|m| breaks that rule.  An entry past the float32 range rounds to inf
    with no numpy warning, and is rejected as non-finite; a matrix of
    objects, strings or complex numbers raises TypeError.
    """
    q = _check_q(q, "quantize: q")
    m = nm.array_arg(m, "quantize: m", np.float32)
    if not np.isfinite(m).all():
        raise ValueError("quantize: matrix contains non-finite values")
    levels = (1 << q) - 1
    half = levels / 2.0
    amax = float(np.abs(m).max()) if m.size else 0.0
    if amax == 0.0:
        mid = 1 << (q - 1)
        codes = np.full(m.shape, mid, dtype=np.uint32)
        return QuantizedMatrix(q, 0.0, codes.reshape(-1), m.shape)
    with np.errstate(over="ignore"):
        scale = np.float32(2.0 * amax / levels)
    if not 0.0 < half * float(scale) < nm.F32_ROUND_LIMIT:
        raise ValueError(f"quantize: max|m| = {amax:g} gives scale {scale} at q={q}; it must be finite and positive, "
                         "with a top level that rounds to a finite float32")
    u = m.astype(np.float64) / float(scale) + half
    codes = np.rint(u)  # rint rounds half to even
    codes = np.clip(codes, 0, levels).astype(np.uint32)
    return QuantizedMatrix(q, float(scale), codes.reshape(-1), m.shape)


def dequantize(qm: QuantizedMatrix):
    """Exact float64 reconstruction levels (c - half) * scale.

    quantize codes an all-zero matrix as 2^(q-1) = half + 0.5 with scale 0,
    so every level is +0.0. qm is what arrives off the wire, so all of it is
    checked: codes not a numpy array of integers in [0, 2^q - 1], a shape
    not holding them or a scale not a float32 value >= 0 whose top level
    (2^q - 1)/2 * scale rounds to a finite float32 raises ValueError, and a
    qm not a QuantizedMatrix, a shape not a sequence of integers or a scale
    not a real number (a bool, a str or None included), TypeError.

    The levels are not rounded to float32 here: that rounding can move a
    level past the scale/2 bound. compose rounds them once, when a
    LowRankPrompt built from them is multiplied out.
    """
    if not isinstance(qm, QuantizedMatrix):
        raise TypeError(f"dequantize: qm must be a QuantizedMatrix, got {type(qm).__name__}")
    _check_q(qm.q, "dequantize: q")
    if not isinstance(qm.codes, np.ndarray) or qm.codes.dtype.kind not in "iu":
        raise ValueError("dequantize: codes must be integers in a numpy array, "
                         f"got {getattr(qm.codes, 'dtype', type(qm.codes))}")
    shape = tuple(nm.index_arg(n, "dequantize: shape entry") for n in nm.tuple_arg(qm.shape, "dequantize: shape"))
    if min(shape, default=0) < 0 or prod(shape) != qm.codes.size:
        raise ValueError(f"dequantize: shape {shape} does not hold {qm.codes.size} codes")
    levels = (1 << qm.q) - 1
    if qm.codes.size and (qm.codes.min() < 0 or qm.codes.max() > levels):
        raise ValueError(f"dequantize: codes outside [0, {levels}] for q={qm.q}")
    s = nm.real_arg(qm.scale, "dequantize: scale")
    if not (0.0 <= s <= float(np.finfo(np.float32).max) and float(np.float32(s)) == s  # a NaN fails too
            and levels / 2.0 * s < nm.F32_ROUND_LIMIT):
        raise ValueError(f"dequantize: scale must be finite and >= 0, a float32 value, and give a top level that "
                         f"rounds to a finite float32 at q={qm.q}, got {qm.scale!r}")
    vals = (qm.codes.astype(np.float64) - levels / 2.0) * s
    return vals.reshape(shape)


def _check_q(q, what):
    """q as an int: TypeError for a bool or a non-integer, ValueError outside [1, MAX_Q], each naming what.

    what is the caller's literal, such as "dequantize: q", so nothing is formatted unless q fails.
    """
    q = nm.index_arg(q, what)
    if not 1 <= q <= MAX_Q:
        raise ValueError(f"{what} must lie in [1, {MAX_Q}], got {q}")
    return q


def bitrate_estimate(d, rank, q, keyframes_per_second):
    """Prompt payload rate in bits/s: (77 + d) * rank * q * kf_rate.

    Container overhead is excluded. Exact when the keyframe rate is an int
    or Fraction. q must lie in [1, MAX_Q] and rank in [0, min(77, d)], the
    widths and ranks the codec itself accepts.  d, rank and q must be
    integers (TypeError for a bool or a float), and the keyframe rate a
    real number (TypeError for a bool, a str or a complex), finite and >= 0
    (ValueError).
    """
    d, rank = nm.index_arg(d, "bitrate_estimate: d"), nm.index_arg(rank, "bitrate_estimate: rank")
    if d <= 0:
        raise ValueError(f"bitrate_estimate: d must be positive, got {d}")
    q = _check_q(q, "bitrate_estimate: q")
    if not 0 <= rank <= min(TOKENS, d):
        raise ValueError(f"bitrate_estimate: rank must lie in [0, min(77, d={d})], got {rank}")
    nm.real_arg(keyframes_per_second, "bitrate_estimate: keyframes_per_second")
    if not 0 <= keyframes_per_second < inf:  # a NaN fails too
        raise ValueError("bitrate_estimate: keyframes_per_second must be finite and >= 0, "
                         f"got {keyframes_per_second!r}")
    bits_per_keyframe = (TOKENS + d) * rank * q
    rate = bits_per_keyframe * keyframes_per_second
    if isinstance(rate, Fraction) and rate.denominator == 1:
        return int(rate)
    return rate
