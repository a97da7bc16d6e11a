"""Dense float32 tensor arithmetic with reverse-mode gradients.

Every operation runs eagerly on numpy float32 arrays and, when any input
is attached to a GradTape, appends a replayable record to that tape.
Forward passes are bit-deterministic: reductions use a fixed summation
order (matmul and conv accumulate strictly left-to-right over the
contraction axis), so two runs over the same inputs produce identical
bytes.  grad() walks the tape in reverse to return dLoss/dLeaf.  A live
op and replay() both run an op through its one _Op call: the operands in
C order, so their layout never changes an op's bytes, then the forward at
their dtype, which first checks its operands and params, integer types
included.  The public functions only convert: a shape to a tuple, an eps
or an alpha to a float, indices to the tape's own copy, and operands that
hold numbers to float32 arrays.  Each op, group_norm with its steps and
closed-form vjp too, is one block of this module: any helper it is the
first to use, its forward, then its vjp; _OPS follows the last.

The strict-order product has two implementations that give the same
bytes.  At float32 it runs a small C kernel (_strict_mm.c), compiled with
gcc at first import and loaded through ctypes; at float64, wherever the
kernel cannot be built, and where its output holds a NaN, it runs a numpy
loop over k.  The one switch is whether the library loaded (_dll); only
_strict_kernel reads it.
conv2d's float32 forward runs the kernel's second entry point, which
gathers each 3x3 patch from the input as it fills the kernel's panels;
the patch matrix that _im2col builds serves only the conv2d vjp, float64
replay and the numpy fallback.  resample_cubic_axis's float32 forward
runs the third, resample4_f32, which writes each output from its four
taps straight into the result; its numpy form, which gathers one array
per tap, serves float64 replay and the fallback.  The float32 forwards
of silu, group_norm and softmax_last run exactly rounded passes of the
library around the steps numpy keeps, its exp and its sums: silu's min,
max, add, div and mul; group_norm's scale and shift, after numpy's
centring, squaring and means; softmax_last's row max and subtraction.
Each op writes one array, in place.  Their numpy forms serve float64
replay, the fallback, any operand that holds a NaN and a softmax_last row
shorter than one vector.  Like the products' and the resample's, they are silent
about inf - inf, -inf * 0 and overflow, as the passes are, so an op
warns alike with and without the library.  The kernel is built with
-ffp-contract=off, so no multiply and add fuse into one rounding, and
never with -ffast-math, -Ofast, -funsafe-math-optimizations or
-fassociative-math: those reorder the sum, and a library linked with
them can switch on flush-to-zero for the whole process.  -march=native
ties the object to the host, so it is cached per user under
tempfile.gettempdir(), keyed by a hash of the source and the flags.

_strict_mm.c's header states how a product runs as tasks on the CPUs of
the calling thread's affinity mask with the same bytes for any number of
threads, and why a NaN sends every entry point's call to its op's numpy
form: the products and the resample decline when their output holds one,
the elementwise passes when their operands do, so every NaN an op returns
has its numpy form's bytes.

No op writes to a Tensor's array; a tape is confined to one thread.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import subprocess
import tempfile
import time
from collections import namedtuple
from contextlib import suppress
from functools import lru_cache
from math import inf, isfinite, prod
from numbers import Real
from pathlib import Path

import numpy as np

F32 = np.float32
# The float64 magnitude from which rounding to float32 gives inf: halfway
# between float32's largest value, 2^128 - 2^104, and 2^128.
F32_ROUND_LIMIT = 2.0 ** 128 - 2.0 ** 103


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


class UnknownLeafError(ValueError):
    """Raised when grad() is asked about a tensor that is not a tape leaf."""


def _shape_error(op, *shapes):
    return ShapeMismatchError(f"{op}: incompatible shapes " + " vs ".join(str(tuple(s)) for s in shapes))


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise _shape_error(op, a.shape, b.shape) from None


def _check_upsample_factor(op, factor):
    if index_arg(factor, f"{op}: factor") < 1:
        raise ValueError(f"{op}: factor must be an integer >= 1, got {factor!r}")


def _check_axis(op, ax, ndim):
    """ax as an index in [0, ndim); TypeError or IndexError, naming op, for an axis not an integer or out of range."""
    ax = index_arg(ax, f"{op}: axis")
    if not -ndim <= ax < ndim:
        raise IndexError(f"{op}: axis {ax} out of range for {ndim} dimensions")
    return ax % ndim


def _check_eps(op, eps, dtype):
    with np.errstate(over="ignore"):  # an eps past the dtype's range rounds to inf
        if not (isfinite(dtype.type(eps)) and dtype.type(eps) > 0):
            raise ValueError(f"{op}: eps must be finite and > 0 at the operands' dtype, got {eps!r}")


# ---------------------------------------------------------------------------
# ops, each a forward with its vjp under it (a forward runs at its operands'
# dtype, so replay at float64, which the finite-difference test oracles rely
# on, runs the same code)
# ---------------------------------------------------------------------------

STRICT_MM_SOURCE = Path(__file__).with_name("_strict_mm.c")
# No flag sets the vector width: under -march=native, gcc's tuning for the
# Xeons with AVX-512 prefers 256 bits, so _strict_mm.c asks for 512 itself.
STRICT_MM_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
# _strict_mm.c's NO_PANEL: a product got no memory for its panel.
_NO_PANEL = 2
# The library's entry points: name -> (operand dtypes, size arguments).  Each
# takes a pointer to each operand, then one to its float32 output, then the
# sizes.  np.intp is C's long on the LP64 hosts the kernel is built on.
STRICT_MM_ENTRIES = {
    "strict_mm_f32": ((F32, F32), 3),
    "strict_conv3x3_f32": ((F32, F32), 5),
    "resample4_f32": ((F32, np.intp, F32), 4),
    "neg_abs_f32": ((F32,), 1),
    "silu_f32": ((F32,), 1),
    "group_norm_f32": ((F32, F32, F32, F32, F32), 3),
    "sub_rowmax_f32": ((F32,), 2),
}


def _load_strict_mm():
    """Compile (once per host and source) and load the C kernels' library; None if that fails.

    The library exports every entry point of STRICT_MM_ENTRIES, their
    argument types set; if one is missing, none is loaded.  A load marks the
    object used (its mtime); a build removes every other .so of the cache
    unused for a day: older kernels and build leftovers.
    """
    try:
        src = STRICT_MM_SOURCE.read_bytes()
        key = hashlib.sha256(src + " ".join(STRICT_MM_FLAGS).encode()).hexdigest()[:16]
        cache = Path(tempfile.gettempdir()) / f"promptstream-{os.getuid()}"
        cache.mkdir(mode=0o700, exist_ok=True)
        st = cache.stat()
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None  # someone else could plant the shared object
        lib = cache / f"strict_mm-{key}.so"
        if not lib.exists():
            # Build under a unique name and rename it into place, so that a
            # concurrent process never loads a half-written file.
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["gcc", *STRICT_MM_FLAGS, "-o", tmp, str(STRICT_MM_SOURCE)],
                               check=True, capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            stale = time.time() - 86400
            for old in cache.glob("*.so"):
                with suppress(OSError):  # another process may remove it first
                    if old.stat().st_mtime < stale:  # never the object just built
                        old.unlink()
        os.utime(lib)
        return _bind(lib)
    except (OSError, AttributeError, subprocess.CalledProcessError):
        return None


def _bind(lib):
    """Load the library at path lib with every entry point's argument types set; AttributeError if one is missing."""
    dll = ctypes.CDLL(str(lib))
    for name, (dtypes, n_sizes) in STRICT_MM_ENTRIES.items():
        fn = getattr(dll, name)
        fn.argtypes = [ctypes.c_void_p] * (len(dtypes) + 1) + [ctypes.c_long] * n_sizes
        fn.restype = ctypes.c_int
    return dll


_dll = _load_strict_mm()


def _strict_kernel(entry, operands, out, *sizes):
    """Run the C entry point on operands into out; None where numpy runs.

    out is the float32 array the entry point writes, or the shape of a new
    one.  This is where the kernel or the numpy form is chosen: numpy runs
    when the first operand is not float32, wherever the library did not
    load, where a given out is not a C-contiguous float32 array, and where
    the entry point declines: a product's or the resample's output holds a
    NaN, an elementwise pass's operands do, or softmax_last's rows are
    shorter than one vector.  A product that got no memory for its panel
    raises MemoryError.  Each operand is passed as a C-contiguous array of
    the dtype the entry point reads.  The kernel trusts the sizes it is
    given; each forward checks its operands before it calls here.  A call
    with another number of operands or sizes than its entry's row of
    STRICT_MM_ENTRIES raises TypeError, whichever form runs.
    """
    dtypes, n_sizes = STRICT_MM_ENTRIES[entry]
    if len(operands) != len(dtypes) or len(sizes) != n_sizes:
        raise TypeError(f"{entry}: takes {len(dtypes)} operands and {n_sizes} sizes, "
                        f"got {len(operands)} and {len(sizes)}")
    if operands[0].dtype != F32 or _dll is None:
        return None
    if isinstance(out, tuple):
        out = np.empty(out, dtype=F32)
    elif out.dtype != F32 or not out.flags.c_contiguous:
        return None  # the kernel reads out as C-ordered rows
    arrays = [np.ascontiguousarray(x, dtype=d) for x, d in zip(operands, dtypes)]
    # Unlike x.ctypes.data, __array_interface__ leaves no cached ctypes objects behind.
    ptrs = [x.__array_interface__["data"][0] for x in (*arrays, out)]
    code = getattr(_dll, entry)(*ptrs, *sizes)
    if code == _NO_PANEL:
        raise MemoryError(f"{entry}: no buffer for a 32-column panel")
    return None if code else out  # nonzero otherwise: _strict_mm.c's DECLINED


class _Op:
    __slots__ = ("forward", "vjp")

    def __init__(self, forward, vjp):
        self.forward = forward  # (arrays, params) -> array at the arrays' dtype; raises on bad operands first
        # (arrays, params, out, g, needs) -> one cotangent per input.  needs[i]
        # says whether input i leads to a leaf grad() was asked about; the vjps
        # of the ops with two inputs return None for an input that does not.  A
        # unary op's input is needed exactly when the vjp runs, so those ignore
        # needs.  g may be a read-only broadcast view (the reductions'
        # cotangents are): no vjp writes to it.
        self.vjp = vjp

    def __call__(self, arrays, params):
        """Give the operands in C order, then run the forward, which checks them first: the only way an op runs."""
        # numpy sums a C-ordered row pairwise but a strided one in sequence.
        # Unlike np.ascontiguousarray, asarray keeps a 0-d operand 0-d.
        arrays = [np.asarray(x, order="C") for x in arrays]
        return self.forward(arrays, params)


def _unbroadcast(g, shape):
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _fwd_add(a, p):
    _check_broadcast("add", a[0], a[1])
    return a[0] + a[1]


def _vjp_add(a, p, out, g, needs):
    return (_unbroadcast(g, a[0].shape) if needs[0] else None,
            _unbroadcast(g, a[1].shape) if needs[1] else None)


def _fwd_sub(a, p):
    _check_broadcast("sub", a[0], a[1])
    return a[0] - a[1]


def _vjp_sub(a, p, out, g, needs):
    return (_unbroadcast(g, a[0].shape) if needs[0] else None,
            _unbroadcast(-g, a[1].shape) if needs[1] else None)


def _fwd_mul(a, p):
    _check_broadcast("mul", a[0], a[1])
    return a[0] * a[1]


def _vjp_mul(a, p, out, g, needs):
    return (_unbroadcast(g * a[1], a[0].shape) if needs[0] else None,
            _unbroadcast(g * a[0], a[1].shape) if needs[1] else None)


def _fwd_neg(a, p):
    return -a[0]


def _vjp_neg(a, p, out, g, needs):
    return (-g,)


def _mm_loop(a, b):
    """The numpy form of matmul's strict product: float64 replay, the fallback, any output with a NaN, test reference.

    Like the C kernel, it warns about nothing: 0*inf gives NaN and a
    product past the range gives inf without a numpy RuntimeWarning.
    """
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    tmp = np.empty_like(out)
    with np.errstate(invalid="ignore", over="ignore"):
        for kk in range(k):
            np.multiply(a[:, kk, np.newaxis], b[np.newaxis, kk, :], out=tmp)
            out += tmp
    return out


def _fwd_matmul(a, p):
    """Matrix product with strict left-to-right accumulation over k.

    Each entry is +0 plus a[i,0]*b[0,j], then plus a[i,1]*b[1,j], and so
    on to k-1, with every product and every sum rounded to the operands'
    dtype.  The C kernel and _mm_loop follow this order, so they give the
    same bytes; _strict_kernel picks which one runs.
    """
    x, y = a
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
        raise _shape_error("matmul", x.shape, y.shape)
    (m, k), n = x.shape, y.shape[1]
    out = _strict_kernel("strict_mm_f32", a, (m, n), m, k, n)
    return _mm_loop(x, y) if out is None else out


def _vjp_matmul(a, p, out, g, needs):
    # Backward order is unconstrained; BLAS matmul is deterministic in-build.
    # Its path depends on the strides, and a stride-0 g can give other bytes,
    # so a broadcast g is expanded first: the bytes of a dense g.
    g = np.ascontiguousarray(g)
    return (np.matmul(g, a[1].T) if needs[0] else None,
            np.matmul(a[0].T, g) if needs[1] else None)


def _im2col(x, stride):
    """3x3 patches of a padded (C,H,W) map as a (C*9, Ho*Wo) matrix.

    Row ci*9 + dy*3 + dx holds x[ci, oy*stride + dy - 1, ox*stride + dx - 1]
    (0 outside the map) at column oy*Wo + ox.  conv2d's vjp, float64
    replay and the numpy fallback use it; the float32 forward under the C
    kernel gathers the same entries in the kernel and builds no such matrix.
    """
    c, h, w = x.shape
    ho, wo = h // stride, w // stride
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 9, ho, wo), dtype=x.dtype)
    for dy in range(3):
        for dx in range(3):
            cols[:, dy * 3 + dx] = xp[:, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride]
    return cols.reshape(c * 9, ho * wo)


def _fwd_conv2d(a, p):
    x, w = a
    if x.ndim != 3 or w.ndim != 4 or w.shape[2:] != (3, 3) or x.shape[0] != w.shape[1]:
        raise _shape_error("conv2d", x.shape, w.shape)
    s = index_arg(p["stride"], "conv2d: stride")
    if s not in (1, 2):
        raise ValueError(f"conv2d: stride must be 1 or 2, got {s!r}")
    if x.shape[1] % s or x.shape[2] % s:
        raise _shape_error("conv2d(stride)", x.shape, w.shape)
    co = w.shape[0]
    c, h, wd = x.shape
    out = _strict_kernel("strict_conv3x3_f32", a, (co, h // s, wd // s), c, h, wd, co, s)
    if out is None:
        out = _mm_loop(w.reshape(co, c * 9), _im2col(x, s)).reshape(co, h // s, wd // s)
    return out


def _vjp_conv2d(a, p, out, g, needs):
    x, w = a
    s = p["stride"]
    co = w.shape[0]
    c, h, wd = x.shape
    ho, wo = h // s, wd // s
    gf = np.ascontiguousarray(g).reshape(co, ho * wo)  # see _vjp_matmul
    dw = np.matmul(gf, _im2col(x, s).T).reshape(w.shape) if needs[1] else None
    if not needs[0]:
        return None, dw
    dcols = np.matmul(w.reshape(co, c * 9).T, gf).reshape(c, 3, 3, ho, wo)
    dxp = np.zeros((c, h + 2, wd + 2), dtype=x.dtype)
    for dy in range(3):
        for dx in range(3):
            dxp[:, dy:dy + s * ho:s, dx:dx + s * wo:s] += dcols[:, dy, dx]
    return dxp[:, 1:h + 1, 1:wd + 1], dw


def _sigmoid(x):
    """1/(1+exp(-x)), in one pass, with the bytes of the two-branch formula.

    The two-branch formula takes 1/(1+exp(-x)) where x >= 0 and
    exp(x)/(1+exp(x)) elsewhere, so that exp never overflows.  Both
    branches are e = exp(-|x|) divided by 1 + e, with numerator 1 where
    x >= 0 and e elsewhere: exp(-x) for x >= 0 and exp(x) for x < 0 are
    the same rounded value, so each element divides the same operands.
    -|x| is taken as minimum(x, -x), which keeps a NaN's sign and payload
    as exp(x) did.  The numerator is maximum(e, [x >= 0]): e lies in
    [0, 1], so that is 1 where x >= 0 and e (or e's NaN) elsewhere, without
    a data-dependent branch per element.
    """
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.greater_equal(x, 0, out=np.empty_like(x))
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


def _fwd_silu(a, p):
    # In C, e = minimum(x, -x), then numpy's exp, then x * sigmoid in one
    # pass: _sigmoid's steps and the product, into the one array e.  Both
    # forms are silent about -inf * 0.
    x = a[0]
    with np.errstate(invalid="ignore", over="ignore"):
        e = _strict_kernel("neg_abs_f32", a, x.shape, x.size)
        if e is not None:
            np.exp(e, out=e)
            _strict_kernel("silu_f32", a, e, x.size)
            return e
        sg = _sigmoid(x)
        return np.multiply(x, sg, out=sg)


def _vjp_silu(a, p, out, g, needs):
    sg = _sigmoid(a[0])
    return (g * (sg * (1.0 + a[0] * (1.0 - sg))),)


def _fwd_softmax_last(a, p):
    # One array, each step in place: the bytes of exp(x - max) / sum.  In C,
    # one pass takes each row's max and subtracts it; numpy keeps exp, the
    # sums and the division.  Both forms are silent about inf - inf and
    # overflow.
    x = a[0]
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"softmax_last: needs a last axis of at least one entry, got shape {x.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        out = _strict_kernel("sub_rowmax_f32", a, x.shape, prod(x.shape[:-1]), x.shape[-1])
        if out is None:
            out = np.subtract(x, x.max(axis=-1, keepdims=True))
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)
    return out


def _vjp_softmax_last(a, p, out, g, needs):
    dot = (g * out).sum(axis=-1, keepdims=True)
    return (out * (g - dot),)


def _fwd_reshape(a, p):
    shape = tuple(index_arg(n, "reshape: shape entry") for n in p["shape"])
    if min(shape, default=0) < 0 or prod(shape) != a[0].size:
        raise _shape_error("reshape", a[0].shape, shape)
    return a[0].reshape(shape)


def _vjp_reshape(a, p, out, g, needs):
    return (g.reshape(a[0].shape),)


def _fwd_transpose2d(a, p):
    if a[0].ndim != 2:
        raise _shape_error("transpose2d", a[0].shape)
    return np.ascontiguousarray(a[0].T)


def _vjp_transpose2d(a, p, out, g, needs):
    return (np.ascontiguousarray(g.T),)


def _fwd_take_axis(a, p):
    idx, ax = p["idx"], _check_axis("take_axis", p["axis"], a[0].ndim)
    if idx.size and (idx.min() < 0 or idx.max() >= a[0].shape[ax]):
        raise IndexError(f"take_axis: index out of range [0, {a[0].shape[ax]})")
    return np.take(a[0], idx, axis=ax)


def _vjp_take_axis(a, p, out, g, needs):
    # g holds the index's axes where x holds axis ax; both go to the front.
    idx, dx = p["idx"], np.zeros(a[0].shape, dtype=a[0].dtype)
    ax = p["axis"] % dx.ndim
    np.add.at(np.moveaxis(dx, ax, 0), idx, np.moveaxis(g, range(ax, ax + idx.ndim), range(idx.ndim)))
    return (dx,)


def _fwd_lerp(a, p):
    if a[0].shape != a[1].shape:
        raise _shape_error("lerp", a[0].shape, a[1].shape)
    if not (isfinite(p["wa"]) and isfinite(p["wb"])):
        raise ValueError(f"lerp: the weights must be finite, got {p['wa']!r} and {p['wb']!r}")
    out = np.multiply(a[0], a[0].dtype.type(p["wa"]))
    out += np.multiply(a[1], a[1].dtype.type(p["wb"]))
    return out


def _vjp_lerp(a, p, out, g, needs):
    return g * p["wa"] if needs[0] else None, g * p["wb"] if needs[1] else None


@lru_cache(maxsize=None)
def _catmull_rom_taps(n, factor):
    """Clamped tap indices (4,n*f) and float32 weights for 1-D Catmull-Rom resampling.

    Both arrays are read-only: every call with the same n and factor gets
    the same two arrays, and the kernel reads them by pointer.
    """
    n_out = n * factor
    i = np.arange(n_out, dtype=np.float64)
    s = (i + 0.5) / factor - 0.5
    base = np.floor(s).astype(np.intp)
    t = s - base
    w = np.empty((4, n_out), dtype=np.float64)
    w[0] = -0.5 * t + t * t - 0.5 * t ** 3
    w[1] = 1.0 - 2.5 * t * t + 1.5 * t ** 3
    w[2] = 0.5 * t + 2.0 * t * t - 1.5 * t ** 3
    w[3] = -0.5 * t * t + 0.5 * t ** 3
    idx = np.stack([np.clip(base + k - 1, 0, n - 1) for k in range(4)])
    w = w.astype(F32)
    idx.setflags(write=False)
    w.setflags(write=False)
    return idx, w


def _fwd_resample_cubic_axis(a, p):
    x = a[0]
    _check_upsample_factor("resample_cubic_axis", p["factor"])
    ax = _check_axis("resample_cubic_axis", p["axis"], x.ndim)
    idx, w = _catmull_rom_taps(x.shape[ax], p["factor"])
    nj = idx.shape[1]
    outer, n, inner = prod(x.shape[:ax]), x.shape[ax], prod(x.shape[ax + 1:])
    out_shape = x.shape[:ax] + (nj,) + x.shape[ax + 1:]
    out = _strict_kernel("resample4_f32", (x, idx, w), out_shape, outer, n, inner, nj)
    if out is not None:
        return out
    # The numpy form, for float64 replay, the fallback and an output with a NaN:
    # the kernel's layout, each tap gathering along the middle axis of (outer, n, inner).
    x = x.reshape(outer, n, inner)
    w = w.astype(x.dtype, copy=False)[:, :, np.newaxis]

    def tap(k):
        t = np.take(x, idx[k], axis=1)
        t *= w[k]
        return t

    # (t0*w0 + t1*w1) + (t2*w2 + t3*w3), the order of the take/mul/add
    # composite; like the kernel, silent about inf - inf and overflow.
    with np.errstate(invalid="ignore", over="ignore"):
        out = tap(0)
        out += tap(1)
        hi = tap(2)
        hi += tap(3)
        out += hi
    return out.reshape(out_shape)


def _vjp_resample_cubic_axis(a, p, out, g, needs):
    ax = p["axis"]
    idx, w = _catmull_rom_taps(a[0].shape[ax], p["factor"])
    wshape = [1] * g.ndim
    wshape[ax] = -1
    # Each tap is take_axis's vjp of g*w[k], and the taps are summed last to
    # first, the order in which grad sums four separate take records: the
    # bytes of the take/mul/add composite.
    dx = None
    for k in (3, 2, 1, 0):
        (dk,) = _vjp_take_axis(a, {"idx": idx[k], "axis": ax}, None, g * w[k].reshape(wshape), needs)
        dx = dk if dx is None else np.add(dx, dk, out=dx)
    return (dx,)


def _fwd_mean_axes(a, p):
    shape, axes = a[0].shape, p["axes"]
    if len({_check_axis("mean_axes", ax, len(shape)) for ax in axes}) < len(axes):
        raise ValueError(f"mean_axes: axes {axes} repeat an axis of {len(shape)} dimensions")
    if prod(shape[ax] for ax in axes) == 0:
        raise ValueError(f"mean_axes: axes {axes} of shape {shape} hold no entries")
    return a[0].mean(axis=axes, keepdims=True)


# The reductions' cotangents are broadcast views: they allocate nothing.
def _vjp_mean_axes(a, p, out, g, needs):
    x = a[0]
    n = prod(x.shape[ax] for ax in p["axes"])
    return (np.broadcast_to(g / x.dtype.type(n), x.shape),)


def _fwd_sum_all(a, p):
    return np.asarray(a[0].sum())


def _vjp_sum_all(a, p, out, g, needs):
    return (np.broadcast_to(g, a[0].shape),)


def _fwd_mean_all(a, p):
    if a[0].size == 0:
        raise ValueError("mean_all: the operand is empty")
    return np.asarray(a[0].mean())


def _vjp_mean_all(a, p, out, g, needs):
    return (np.broadcast_to(g / a[0].dtype.type(a[0].size), a[0].shape),)


def _rsqrt(v, eps):
    return 1.0 / np.sqrt(v + v.dtype.type(eps))


def _fwd_rsqrt_eps(a, p):
    _check_eps("rsqrt_eps", p["eps"], a[0].dtype)
    return _rsqrt(a[0], p["eps"])


def _vjp_rsqrt_eps(a, p, out, g, needs):
    return (g * (-0.5) * out * out * out,)


def _fwd_clip01(a, p):
    return np.clip(a[0], 0.0, 1.0)


def _vjp_clip01(a, p, out, g, needs):
    x = a[0]
    return (g * ((x > 0.0) & (x < 1.0)),)


def _group_stats(x, groups, eps):
    """x's groups as rows, their means mu, (rows - mu)**2 in a new array, and the rows' rsqrt factors r."""
    xg = x.reshape(groups, -1)
    mu = xg.mean(axis=1, keepdims=True)
    sq = np.subtract(xg, mu)
    sq *= sq
    return xg, mu, sq, _rsqrt(sq.mean(axis=1, keepdims=True), eps)


def _fwd_group_norm(a, p):
    # numpy's mu, (x - mu)**2 into the one output array, its row means and
    # the rsqrt; then ((x - mu)*r)*gamma + beta into that array, in one C
    # pass or, where _strict_kernel leaves it to numpy (float64, no library,
    # a NaN in mu, gamma or beta), in numpy.  Both forms are silent about
    # inf - inf and overflow.
    x, gamma, beta = a
    if x.ndim != 3 or gamma.shape != x.shape[:1] or beta.shape != x.shape[:1]:
        raise _shape_error("group_norm", x.shape, gamma.shape, beta.shape)
    groups = index_arg(p["groups"], "group_norm: groups")
    if groups < 1 or x.shape[0] % groups:
        raise _shape_error("group_norm(groups)", x.shape, (groups,))
    _check_eps("group_norm", p["eps"], x.dtype)
    c, h, w = x.shape
    with np.errstate(invalid="ignore", over="ignore"):
        xg, mu, sq, r = _group_stats(x, groups, p["eps"])
        out = sq.reshape(x.shape)
        if _strict_kernel("group_norm_f32", (x, mu, r, gamma, beta), out, c, h * w, groups) is None:
            np.subtract(xg, mu, out=sq)
            sq *= r
            out *= gamma.reshape(-1, 1, 1)
            out += beta.reshape(-1, 1, 1)
    return out


def _vjp_group_norm(a, p, out, g, needs):
    # With x^ the normalized groups, r their rsqrt factor and d = g*gamma,
    # per group: dx = r*(d - mean(d) - x^*mean(d*x^)).
    x, gamma, beta = a
    xg, mu, xhat, r = _group_stats(x, p["groups"], p["eps"])
    np.subtract(xg, mu, out=xhat)
    xhat *= r
    dx = None
    if needs[0]:
        d = (g * gamma.reshape(-1, 1, 1)).reshape(xhat.shape)
        dx = d - d.mean(axis=1, keepdims=True)
        dx -= xhat * (d * xhat).mean(axis=1, keepdims=True)
        dx *= r
        dx = dx.reshape(x.shape)
    return (dx, (g * xhat.reshape(x.shape)).sum(axis=(1, 2)) if needs[1] else None,
            g.sum(axis=(1, 2)) if needs[2] else None)


_OPS = {
    "add": _Op(_fwd_add, _vjp_add),
    "sub": _Op(_fwd_sub, _vjp_sub),
    "mul": _Op(_fwd_mul, _vjp_mul),
    "neg": _Op(_fwd_neg, _vjp_neg),
    "matmul": _Op(_fwd_matmul, _vjp_matmul),
    "conv2d": _Op(_fwd_conv2d, _vjp_conv2d),
    "silu": _Op(_fwd_silu, _vjp_silu),
    "softmax_last": _Op(_fwd_softmax_last, _vjp_softmax_last),
    "reshape": _Op(_fwd_reshape, _vjp_reshape),
    "transpose2d": _Op(_fwd_transpose2d, _vjp_transpose2d),
    "take_axis": _Op(_fwd_take_axis, _vjp_take_axis),
    "lerp": _Op(_fwd_lerp, _vjp_lerp),
    "resample_cubic_axis": _Op(_fwd_resample_cubic_axis, _vjp_resample_cubic_axis),
    "mean_axes": _Op(_fwd_mean_axes, _vjp_mean_axes),
    "sum_all": _Op(_fwd_sum_all, _vjp_sum_all),
    "mean_all": _Op(_fwd_mean_all, _vjp_mean_all),
    "rsqrt_eps": _Op(_fwd_rsqrt_eps, _vjp_rsqrt_eps),
    "clip01": _Op(_fwd_clip01, _vjp_clip01),
    "group_norm": _Op(_fwd_group_norm, _vjp_group_norm),
}


# ---------------------------------------------------------------------------
# tensors and the tape
# ---------------------------------------------------------------------------

class Tensor:
    """Float32 array, optionally on a GradTape node; kept without a copy (GradTape.leaf copies)."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape=None, node=None):
        self.data = np.asarray(array_arg(data, "Tensor: data"), dtype=F32)
        self.tape = tape
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tracked={self.tape is not None})"

    def __neg__(self):
        return _apply("neg", (self,))


_Record = namedtuple("_Record", "op inputs params out")


class GradTape:
    """Ordered record of primitive ops; supports grad() and replay().

    Node values are kept so the recorded computation can be re-executed
    (optionally at float64) and so vjp closures can read their operands.
    inputs holds the ids of the nodes no op produced: leaves and the
    operands that are not Tensors.  The tape keeps its own copy of both.
    """

    def __init__(self):
        self.values = []
        self.records = []
        self.inputs = []

    def leaf(self, data) -> Tensor:
        """Register a copy of data as an input; grad() can differentiate w.r.t. it."""
        arr = np.array(array_arg(data, "GradTape.leaf: data"), dtype=F32)
        return Tensor(arr, self, self._input(arr))

    def _input(self, arr):
        self.inputs.append(len(self.values))
        self.values.append(arr)
        return self.inputs[-1]

    def replay(self, overrides=None, dtype=F32):
        """Re-execute every record; returns the full node-value list.

        overrides maps an input's node id -> replacement array; another id
        raises ValueError, and so does a wrong-shaped array, as each op checks
        its operands as a live op does; one of objects, strings or complex
        numbers raises TypeError.  dtype float64 gives a high-precision
        evaluation of the identical computation, for finite-difference oracles.
        """
        overrides = overrides or {}
        bad = [i for i in overrides if i not in self.inputs]
        if bad:
            raise ValueError(f"replay: nodes {bad} are not inputs of this tape")
        vals = [None] * len(self.values)
        for i in self.inputs:
            vals[i] = np.asarray(array_arg(overrides.get(i, self.values[i]), "replay: an override"), dtype=dtype)
        for rec in self.records:
            vals[rec.out] = _OPS[rec.op]([vals[j] for j in rec.inputs], rec.params)
        return vals


def _apply(op_name, inputs, **params):
    tape = None
    for t in inputs:
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("operands come from different tapes")
            tape = t.tape
    arrays = [t.data if isinstance(t, Tensor) else np.asarray(array_arg(t, f"{op_name}: an operand"), dtype=F32)
              for t in inputs]
    out = _OPS[op_name](arrays, params)
    if tape is None:
        return Tensor(out)
    # Every tensor on a tape is on this one; anything else joins it as a copy
    # of the array converted above, so a caller's later write to its own
    # array changes neither replay() nor grad().  Untracked ops copy nothing.
    ids = [t.node if isinstance(t, Tensor) and t.tape is tape else tape._input(arr.copy())
           for t, arr in zip(inputs, arrays)]
    out_id = len(tape.values)
    tape.values.append(out)
    tape.records.append(_Record(op_name, ids, params, out_id))
    return Tensor(out, tape, out_id)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def add(a, b):
    return _apply("add", (a, b))


def sub(a, b):
    return _apply("sub", (a, b))


def mul(a, b):
    return _apply("mul", (a, b))


def matmul(a, b):
    """Matrix product, summation fixed left-to-right over the inner axis."""
    return _apply("matmul", (a, b))


def conv2d(x, w, stride=1):
    """3x3 convolution over a (C,H,W) map, padding 1, stride 1 or 2.

    The bytes are those of the strict-order product of w as a (Co, C*9)
    matrix with _im2col(x, stride).  At float32 under the C kernel, the
    kernel gathers the patches straight from x and no patch matrix is
    built.  stride must be 1 or 2: TypeError for a bool, a float or
    another type that is not an integer, ValueError for another integer.
    """
    return _apply("conv2d", (x, w), stride=stride)


def silu(x):
    return _apply("silu", (x,))


def softmax_last(x):
    """Numerically stable softmax over the last axis, which must hold an entry (ValueError)."""
    return _apply("softmax_last", (x,))


def reshape(x, shape):
    return _apply("reshape", (x,), shape=tuple_arg(shape, "reshape: shape"))


def transpose2d(x):
    return _apply("transpose2d", (x,))


def _int_index(idx, op):
    """idx copied to an intp array the tape owns; float, bool and object indices raise (not an empty list)."""
    arr = np.asarray(idx)
    if arr.size and arr.dtype.kind not in "iu":
        raise IndexError(f"{op}: indices must be integers, got dtype {arr.dtype}")
    return np.array(arr, dtype=np.intp)


def take_flat(x, idx, out_shape):
    """Gather from the flattened input by integer index into out_shape.

    A composite of two ops, so a tape holds two records: reshape to
    (x.size,), then take_axis along axis 0 with idx reshaped to
    out_shape.  Forward, gradient and float64 replay give the bytes of
    x.reshape(-1)[idx].reshape(out_shape) and its scatter-add.  The
    indices are checked before either op runs.
    """
    n = np.size(x.data if isinstance(x, Tensor) else x)
    idx = _int_index(idx, "take_flat")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("take_flat: index out of range")
    try:
        idx = idx.reshape(out_shape)
    except ValueError:
        raise ShapeMismatchError(f"take_flat: {idx.size} indices do not fill out_shape {out_shape!r}") from None
    return take_axis(reshape(x, (n,)), idx, 0)


def index_arg(value, what):
    """value as an int; TypeError naming what for a bool (operator.index(True) is 1) or a non-integer."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def tuple_arg(value, what):
    """value as a tuple; TypeError naming what for a value that is not a sequence (an int, say)."""
    try:
        return tuple(value)
    except TypeError:
        raise TypeError(f"{what} must be a sequence, got {value!r}") from None


def real_arg(value, what):
    """value as a float; TypeError naming what for a value that is not a real number, a bool or a str included.

    A real past the float range, such as 10**400, gives the infinity of its sign.
    """
    if isinstance(value, bool) or not isinstance(value, (float, Real)):  # float first: Real's check takes ~0.5 us
        raise TypeError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return -inf if value < 0 else inf


def array_arg(value, what):
    """value as a numpy array; TypeError naming what for any dtype but bool, integer and float.

    A cast to float32 would make a None NaN, parse a str and drop an imaginary part.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"{what} must hold bool, integer or float entries, got dtype {arr.dtype}")
    return arr


def take_axis(x, idx, axis):
    return _apply("take_axis", (x,), idx=_int_index(idx, "take_axis"), axis=axis)


def mean_axes(x, axes):
    """Mean over the integer axes, kept as length 1.

    An axis out of range raises IndexError; a repeated axis, or axes that
    hold no entries, ValueError.
    """
    return _apply("mean_axes", (x,), axes=tuple_arg(axes, "mean_axes: axes"))


def sum_all(x):
    return _apply("sum_all", (x,))


def mean_all(x):
    """Mean of every entry; an empty x raises ValueError."""
    return _apply("mean_all", (x,))


def rsqrt_eps(x, eps=1e-5):
    """1/sqrt(x + eps); eps must be a real number (TypeError), finite and > 0 once rounded to x's dtype (ValueError)."""
    return _apply("rsqrt_eps", (x,), eps=real_arg(eps, "rsqrt_eps: eps"))


def clip01(x):
    """Clamp into [0,1]; gradient passes only strictly inside the range."""
    return _apply("clip01", (x,))


def lerp(a, b, alpha):
    """(1-alpha)*a + alpha*b as one op with a fixed evaluation order.

    a and b must have equal shapes; there is no broadcasting. The forward
    computes out = a*(1-alpha), then out += b*alpha, with both weights
    rounded to float32 first, so its bytes equal those of
    add(mul(a, 1-alpha), mul(b, alpha)); it allocates the result and one
    temporary. Exact at alpha 0 and 1. An alpha that is not a real number
    (a bool or a str included) raises TypeError, and a weight that is not
    finite (an alpha that is NaN, infinite or past the float32 range)
    ValueError. The weights are op params, so a tape replays it at float64
    too. Prompt interpolation uses it, and a KV cache over projected
    keyframes would too, so both give the same bits.
    """
    # numpy warns as it rounds an alpha from F32_ROUND_LIMIT in size to inf;
    # such an alpha reaches the op as that inf.
    alpha = real_arg(alpha, "lerp: alpha")
    al = F32(alpha) if abs(alpha) < F32_ROUND_LIMIT else F32(alpha * np.inf)
    return _apply("lerp", (a, b), wa=float(F32(1.0) - al), wb=float(al))


def group_norm(x, gamma, beta, groups=4, eps=1e-5):
    """Group normalization of a (C,H,W) map with a per-channel affine, as one op and one tape record.

    Each group of C/groups channels is one row of C/groups*H*W entries in
    memory order.  The forward runs these steps in this order, at the
    operands' dtype: mu = mean(row), out = row - mu, var = mean(out*out),
    r = 1/sqrt(var + eps), out *= r, out *= gamma[c], out += beta[c].  Every
    mean is numpy's over the contiguous row, so the bytes are those of the
    same steps as separate reshape, mean_axes, sub, mul, rsqrt_eps and add
    ops.  gamma and beta must be (C,) and groups an integer >= 1 dividing C
    (ShapeMismatchError, TypeError); eps must be a real number (TypeError),
    finite and > 0 once rounded to the operands' dtype (ValueError).
    """
    return _apply("group_norm", (x, gamma, beta), groups=groups, eps=real_arg(eps, "group_norm: eps"))


def resample_cubic_axis(x, factor, axis):
    """Catmull-Rom (a=-0.5) upsampling of one axis by an integer factor.

    Output sample j reads the four clamped input samples t0..t3 around it
    and sums (t0*w0 + t1*w1) + (t2*w2 + t3*w3) in float32, with float32
    weights. A result that holds a NaN comes from the numpy form, its bytes
    with or without the C kernel, and the op emits no numpy RuntimeWarning.
    See upsample_cubic.
    """
    return _apply("resample_cubic_axis", (x,), factor=factor, axis=axis)


def _per_axis(op, x, factor, axes, resample, axis_op):
    """Check factor and axes in op's words, then x = resample(x, ax) for each axis in order.

    Factor 1 returns x itself once each axis passes _check_axis in axis_op's
    words, the check resample makes at any other factor.
    """
    _check_upsample_factor(op, factor)
    axes = tuple_arg(axes, f"{op}: axes")
    if factor == 1:
        for ax in axes:
            _check_axis(axis_op, ax, len(np.shape(x)))
        return x
    for ax in axes:
        x = resample(x, ax)
    return x


def upsample_cubic(x, factor, axes=(0, 1)):
    """Separable Catmull-Rom (a=-0.5) upsampling by an integer factor.

    Each axis in axes, in order, is one primitive resample_cubic_axis op.
    Output sample j of an axis reads the four input samples t0..t3 at
    floor((j + 0.5)/factor - 0.5) - 1 .. + 2, each clamped to the border
    sample, and computes (t0*w0 + t1*w1) + (t2*w2 + t3*w3) with float32
    weights, rounding every product and sum to float32. The vjp scatters
    the cotangent times each weight back onto its tap's input sample, each
    tap in output order from zero, and sums the four as
    ((dx3 + dx2) + dx1) + dx0. factor 1 returns the input itself; a
    factor that is not an integer is a TypeError, one below 1 a ValueError.
    """
    return _per_axis("upsample_cubic", x, factor, axes, lambda y, ax: resample_cubic_axis(y, factor, ax),
                     "resample_cubic_axis")


def upsample_nearest(x, factor, axes=(0, 1)):
    """Nearest upsampling, checked as upsample_cubic's; a bad axis: TypeError if not an integer, else IndexError."""

    def repeat(y, ax):
        n = y.shape[_check_axis("upsample_nearest", ax, len(y.shape))]
        return take_axis(y, np.repeat(np.arange(n), factor), ax)

    return _per_axis("upsample_nearest", x, factor, axes, repeat, "upsample_nearest")


def grad(loss, leaves):
    """Gradient of a scalar tape output with respect to each leaf tensor.

    Only the ops whose output depends on a requested leaf get a cotangent,
    and of their inputs only those that lead to such a leaf: one forward
    pass over the records marks those nodes live, and every vjp is told
    which of its inputs are.  Each returned gradient is a fresh, writable,
    C-contiguous float32 array that the caller owns: it shares memory with
    no other returned gradient and no tape value.  A leaf must be one of
    GradTape.inputs; any other node raises UnknownLeafError.
    """
    if not isinstance(loss, Tensor) or loss.tape is None:
        raise UnknownLeafError("loss is not attached to a tape")
    if loss.data.shape != ():
        raise ValueError(f"loss must be scalar, has shape {loss.data.shape}")
    tape = loss.tape
    for lf in leaves:
        if not isinstance(lf, Tensor) or lf.tape is not tape or lf.node not in tape.inputs:
            raise UnknownLeafError("leaf is not registered on this tape")
    live = {lf.node for lf in leaves}
    for rec in tape.records:
        if any(j in live for j in rec.inputs):
            live.add(rec.out)
    adjoint = {loss.node: np.ones((), dtype=F32)}
    for rec in reversed(tape.records):
        g = adjoint.pop(rec.out, None)
        if g is None:
            continue
        needs = tuple(j in live for j in rec.inputs)
        if not any(needs):
            continue
        args = [tape.values[j] for j in rec.inputs]
        grads = _OPS[rec.op].vjp(args, rec.params, tape.values[rec.out], g, needs)
        for j, gj, need in zip(rec.inputs, grads, needs):
            if not need:
                continue
            if j in adjoint:
                adjoint[j] = adjoint[j] + gj
            else:
                adjoint[j] = gj
    out, handed = [], set()
    for lf in leaves:
        g = adjoint.get(lf.node)
        if g is None:
            g = np.zeros(lf.data.shape, dtype=F32)
        elif (g.base is not None or not g.flags.writeable or not g.flags.c_contiguous
              or id(g) in handed):
            g = np.array(g, dtype=F32, order="C")  # a view, a broadcast, F-ordered or another leaf's
        handed.add(id(g))
        out.append(Tensor(g))
    return out
