"""Output checks written apart from the program, run on every operation.

Nothing here calls promptstream: each reference is plain numpy, so a fault
in the program cannot hide in its own oracle. Every check raises
CheckFailed with a reason when an output is wrong.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

F32 = np.float32
F64 = np.float64
TOKENS = 77
U_F32 = 2.0 ** -24  # unit roundoff of float32

# Interior frames: (rank + LERP_ROUNDINGS) roundings of float32 relative to
# the float64 lerp of |U|·|V|.  Composing costs rank + 2 (two factor casts,
# one product rounding, rank - 1 additions); the lerp costs 3 more (1 - a,
# two products, one sum), and one spare covers second-order terms.
LERP_ROUNDINGS = 6
# render_frame pixels: a twentieth of an 8-bit grey level.
PIXEL_TOL = 1.0 / 255 / 20
# encode_fit: relative error of the first step's gradient.  Its float32
# residual carries about rank * 2^-24 * |UV| / |UV - T| < 1e-5 of relative
# error at this drift, so 1e-4 leaves tenfold room.
GRAD_RTOL = 1e-4
# encode_fit: the fixed steps must remove at least three quarters of the
# residual they start from; in float64 they leave 0.0185 of it on every seed.
RESIDUAL_FRACTION = 0.25


class CheckFailed(Exception):
    """An operation's output broke its stated contract."""


def strict_product(u, v):
    """float32 U @ V, each product rounded once, summed left to right over k."""
    u = np.asarray(u, dtype=F32)
    v = np.asarray(v, dtype=F32)
    acc = np.zeros((u.shape[0], v.shape[1]), dtype=F32)
    for k in range(u.shape[1]):
        acc += np.multiply.outer(u[:, k], v[k])
    return acc


def endpoint_frame(frame, u, v):
    """An endpoint frame is bit-equal to the strict product of its keyframe."""
    ref = strict_product(u, v)
    frame = np.asarray(frame)
    if frame.dtype != F32 or frame.shape != ref.shape:
        raise CheckFailed(f"endpoint frame is {frame.dtype}{frame.shape}, expected float32{ref.shape}")
    if not np.array_equal(frame.view(np.uint32), ref.view(np.uint32)):
        n = int(np.count_nonzero(frame.view(np.uint32) != ref.view(np.uint32)))
        raise CheckFailed(f"endpoint frame differs from the strict float32 product in {n} entries")


def interior_frame(frame, alpha, a64, b64, abs_a, abs_b, rank):
    """An interior frame lies within the float32 rounding bound of the float64 lerp."""
    frame = np.asarray(frame)
    if frame.dtype != F32 or frame.shape != a64.shape:
        raise CheckFailed(f"frame is {frame.dtype}{frame.shape}, expected float32{a64.shape}")
    ref = (1.0 - alpha) * a64 + alpha * b64
    tol = (rank + LERP_ROUNDINGS) * U_F32 * ((1.0 - alpha) * abs_a + alpha * abs_b)
    excess = np.abs(frame.astype(F64) - ref) - tol
    if not (excess <= 0).all():
        raise CheckFailed(f"frame at alpha={alpha} exceeds its rounding bound by {float(np.nanmax(excess)):.3g}")


def dequantized(levels, source, scale):
    """Every reconstruction level lies within scale/2 of the entry it codes."""
    levels = np.asarray(levels, dtype=F64)
    source = np.asarray(source, dtype=F32).astype(F64)
    if levels.shape != source.shape:
        raise CheckFailed(f"levels {levels.shape} vs source {source.shape}")
    err = float(np.abs(levels - source).max())
    if not err <= scale / 2:
        raise CheckFailed(f"dequantization error {err:.6g} exceeds scale/2 = {scale / 2:.6g}")


def levels_of(codes, q, scale, shape):
    """The exact float64 level (c - (2^q - 1)/2) * scale of each code."""
    return ((np.asarray(codes, dtype=F64) - ((1 << q) - 1) / 2.0) * scale).reshape(shape)


def code_bits(code_counts, q, rank, d, estimate):
    """Bits on the wire equal (77 + d)·r·q and the codec's bitrate_estimate at 1 keyframe/s."""
    bits = sum(code_counts) * q
    expected = (TOKENS + d) * rank * q
    if bits != expected or bits != estimate:
        raise CheckFailed(f"{bits} code bits, expected (77+{d})*{rank}*{q} = {expected}, estimate {estimate}")
    return bits


def codes_in_range(codes, q):
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > (1 << q) - 1):
        raise CheckFailed(f"codes outside [0, {(1 << q) - 1}] for q={q}")


# ---------------------------------------------------------------------------
# render_frame: the same block in float64 numpy
# ---------------------------------------------------------------------------

def _group_norm(x, gamma, beta, groups=4, eps=1e-5):
    c, h, w = x.shape
    xg = x.reshape(groups, -1)
    mu = xg.mean(axis=1, keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=1, keepdims=True)
    y = ((xg - mu) / np.sqrt(var + eps)).reshape(c, h, w)
    return y * gamma[:, None, None] + beta[:, None, None]


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _conv3x3(x, w):
    c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((w.shape[0], h, wd))
    for dy in range(3):
        for dx in range(3):
            out += np.tensordot(w[:, :, dy, dx], xp[:, dy:dy + h, dx:dx + wd], axes=1)
    return out


@lru_cache(maxsize=None)
def _cubic_matrix(n, factor):
    """(n*factor, n) Catmull-Rom (a = -0.5) resampling matrix, half-pixel centres, clamped edges."""
    m = np.zeros((n * factor, n))
    for i in range(n * factor):
        s = (i + 0.5) / factor - 0.5
        base = int(np.floor(s))
        t = s - base
        taps = (
            ((-0.5 * t + t * t - 0.5 * t ** 3), base - 1),
            ((1.0 - 2.5 * t * t + 1.5 * t ** 3), base),
            ((0.5 * t + 2.0 * t * t - 1.5 * t ** 3), base + 1),
            ((-0.5 * t * t + 0.5 * t ** 3), base + 2),
        )
        for wgt, j in taps:
            m[i, min(max(j, 0), n - 1)] += wgt
    return m


def render_reference(prompt, latent, wts, upsample):
    """float64 reference of workloads.render_block, before clipping."""
    w = {k: np.asarray(v, dtype=F64) for k, v in wts.items()}
    p = np.asarray(prompt, dtype=F64)
    z = np.asarray(latent, dtype=F64)
    c, h, wd = z.shape
    k = p @ w["wk"]
    v = p @ w["wv"]
    q = z.reshape(c, h * wd).T @ w["wq"]
    s = (q @ k.T) * F64(F32(k.shape[1] ** -0.5))
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    x = z + ((a @ v) @ w["wo"]).T.reshape(c, h, wd)
    y = _conv3x3(_silu(_group_norm(x, w["g1"], w["b1"])), w["c1"])
    y = _conv3x3(_silu(_group_norm(y, w["g2"], w["b2"])), w["c2"])
    x = x + y
    img = _conv3x3(_silu(_group_norm(x, w["g3"], w["b3"])), w["cout"])
    mh, mw = _cubic_matrix(h, upsample), _cubic_matrix(wd, upsample)
    img = mh @ img @ mw.T
    return img + 0.5


def render_image(img, ref_unclipped):
    """Pixels lie in [0, 1] and within PIXEL_TOL of the clipped float64 reference."""
    img = np.asarray(img)
    if img.shape != ref_unclipped.shape:
        raise CheckFailed(f"image {img.shape}, expected {ref_unclipped.shape}")
    if not ((img >= 0.0) & (img <= 1.0)).all():
        raise CheckFailed("image has pixels outside [0, 1]")
    err = float(np.abs(img.astype(F64) - np.clip(ref_unclipped, 0.0, 1.0)).max())
    if not err <= PIXEL_TOL:
        raise CheckFailed(f"image differs from the float64 reference by {err:.3g} > {PIXEL_TOL:.3g}")


# ---------------------------------------------------------------------------
# encode_fit
# ---------------------------------------------------------------------------

def fit_gradient(g_u, g_v, u, v, target):
    """The tape's gradient of mean((UV - T)^2) matches the closed form in float64."""
    u64, v64, t64 = (np.asarray(x, dtype=F32).astype(F64) for x in (u, v, target))
    r = u64 @ v64 - t64
    scale = 2.0 / r.size
    for name, got, want in (("U", g_u, scale * r @ v64.T), ("V", g_v, scale * u64.T @ r)):
        got = np.asarray(got, dtype=F64)
        if got.shape != want.shape:
            raise CheckFailed(f"gradient of {name} has shape {got.shape}, expected {want.shape}")
        rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
        if not rel <= GRAD_RTOL:
            raise CheckFailed(f"gradient of {name} is {rel:.3g} away from the closed form (> {GRAD_RTOL})")


def fit_residual(first, final):
    """The fixed steps cut the residual below RESIDUAL_FRACTION of where they started."""
    if not final <= RESIDUAL_FRACTION * first:
        raise CheckFailed(f"residual went from {first:.4g} to {final:.4g}, above {RESIDUAL_FRACTION} of the start")
