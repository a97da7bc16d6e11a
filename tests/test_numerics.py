"""Tensor/tape tests: exact summation order, gradients vs FD, determinism."""

import ast
import ctypes
import operator
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptstream import numerics as nm
from promptstream.numerics import GradTape, ShapeMismatchError, Tensor, UnknownLeafError

from helpers import check_grad, rel_err

RNG = np.random.default_rng(20260810)


def randf(*shape, lo=-1.0, hi=1.0, rng=RNG):
    return rng.uniform(lo, hi, size=shape).astype(np.float32)


class TestMatmul:
    def test_identity(self):
        b = randf(3, 5)
        out = nm.matmul(np.eye(3, dtype=np.float32), b)
        assert np.array_equal(out.data, b)

    def test_zeros(self):
        a = randf(4, 3)
        out = nm.matmul(a, np.zeros((3, 2), dtype=np.float32))
        assert np.array_equal(out.data, np.zeros((4, 2), dtype=np.float32))

    def test_matches_triple_loop_exactly(self):
        # Same float32 summation order (left-to-right over k) as the oracle.
        a, b = randf(5, 4), randf(4, 3)
        want = np.empty((5, 3), dtype=np.float32)
        for i in range(5):
            for j in range(3):
                s = np.float32(0.0)
                for k in range(4):
                    s = np.float32(s + np.float32(a[i, k] * b[k, j]))
                want[i, j] = s
        out = nm.matmul(a, b)
        assert np.array_equal(out.data, want)


def _split_min_work():
    """SPLIT_MIN_WORK from _strict_mm.c: the multiply-adds from which a product runs on several threads."""
    base, shift = re.search(r"#define SPLIT_MIN_WORK \((\d+)L << (\d+)\)", nm.STRICT_MM_SOURCE.read_text()).groups()
    return int(base) << int(shift)


def _rows_per_task():
    """MC from _strict_mm.c: the rows of c in one task, a number of MR-row tiles."""
    src = nm.STRICT_MM_SOURCE.read_text()
    tiles = re.search(r"#define MC \((\d+) \* MR\)", src).group(1)
    return int(tiles) * int(re.search(r"#define MR (\d+)", src).group(1))


SPLIT_MIN_WORK = _split_min_work()
MC = _rows_per_task()
TINY = np.finfo(np.float32).smallest_subnormal
KERNEL_SPECIALS = np.array([-0.0, np.inf, -np.inf, np.nan, TINY, -TINY, 1e-40, -3e-39, 3e38, -3e38], np.float32)
# The entry points that decline an output holding a NaN: the op's numpy form makes it.
NAN_DECLINERS = {"strict_mm_f32", "strict_conv3x3_f32", "resample4_f32"}


def assert_numpy_form_bytes(op, *args):
    """op's float32 forward under the C library and with _dll = None: the same bytes, no warning, and the output rules.

    With _dll = None, matmul and conv2d run _mm_loop, the strict-order loop
    over k, on the operands and on _im2col's patch matrix.  Every row of
    KERNEL_CASES and every draw of TestKernelProperties runs through here.
    The rules catch what equal bytes cannot, a fault both forms share:
    matmul and conv2d never give -0, as every sum starts at +0.0, and no C
    output of theirs or of resample_cubic_axis holds a NaN, as those entry
    points decline one.  Returns the library's output.
    """
    kernel = nm._strict_kernel

    def spy(entry, *call):
        out = kernel(entry, *call)
        assert not (entry in NAN_DECLINERS and out is not None and np.isnan(out).any()), f"{entry} kept a NaN"
        return out

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(nm, "_strict_kernel", spy)
        got = op(*args).data
        mp.setattr(nm, "_dll", None)
        want = op(*args).data
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if op in (nm.matmul, nm.conv2d):
        assert not np.signbit(got[got == 0]).any(), "a sum gave -0"
    return got


# (m, k, n) of the matmul rows: tile multiples (4 rows by 32 columns), every
# row remainder, column remainders on both sides of a panel, m = 1, n = 1,
# k = 1, k = 0, k >= 64 random sums, which fused multiply-adds would change,
# and the render and codec shapes, scaled down.
PRODUCT_SHAPES = [
    (4, 16, 32), (8, 64, 64), (5, 7, 33), (6, 9, 31), (7, 3, 63), (9, 65, 95),
    (1, 100, 1), (1, 1, 1), (3, 1, 40), (1, 70, 130), (130, 1, 1), (13, 200, 17), (5, 0, 37), (37, 130, 45),
    (77, 128, 40), (512, 40, 77), (77, 8, 256),
]
# Products of at least SPLIT_MIN_WORK multiply-adds, which run on every CPU:
# a last block of rows shorter than MC that ends in a partial tile of 4, with
# an odd (35) and an even (42) number of tasks; fewer rows than two tiles,
# split by the 25 column panels alone; and a single panel of columns
# (n <= 32), split by the blocks of rows alone.
SPLIT_PRODUCTS = [(4 * MC + 50, 96, 200), (5 * MC + 13, 77, 200), (7, 800, 800), (4096, 77, 20), (2051, 64, 32)]

# (c, co, h, w, stride) of the conv2d rows, for the kernel's patch gather:
# panels (32 output pixels) that start mid-row and cross one or more output
# rows, rows longer than a panel, fewer pixels than one panel, co in
# {1, 3, 5, 64} (row tiles of 4 with every remainder), c = 1, the render
# block's 64 channels, and panels that span exactly the pixels between the
# two borders; empty maps, and no input channels.
CONV_SHAPES = [
    (4, 3, 10, 10, 1), (4, 3, 10, 10, 2), (5, 5, 6, 14, 1), (5, 5, 6, 14, 2),
    (2, 5, 3, 40, 1), (2, 5, 4, 40, 2), (3, 64, 4, 4, 1), (3, 1, 2, 6, 2),
    (1, 3, 9, 7, 1), (1, 1, 6, 8, 2), (64, 3, 8, 8, 1), (64, 64, 6, 6, 2),
    (2, 3, 3, 32, 1), (2, 3, 2, 64, 2), (3, 5, 2, 64, 1),
    (16, 16, 16, 16, 1), (16, 8, 16, 16, 2), (3, 5, 6, 6, 1), (8, 4, 12, 12, 1),
    *((3, 5, h, w, s) for s in (1, 2) for h, w in ((0, 4), (4, 0), (0, 0))), (0, 5, 6, 10, 1), (0, 5, 6, 10, 2),
]
# Convolutions of at least SPLIT_MIN_WORK multiply-adds: an odd number of
# 32-pixel panels (28 x 28 = 24.5 panels); the render block's 3 output
# channels at stride 2; a full block of MC output channels and a partial one.
SPLIT_CONVS = [(32, 32, 28, 28, 1), (64, 3, 128, 128, 2), (16, MC + 6, 24, 24, 1)]


def resample_input(shape, seed, specials):
    """A standard-normal float32 map, a 16th of whose entries are drawn from the specials.

    So some infinities sit next to one of the other sign, or at a border,
    where the clamped taps read one sample with weights of both signs:
    their sum is inf - inf.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    mask = rng.random(shape) < 1 / 16
    x[mask] = rng.choice(np.float32(specials), int(mask.sum()))
    return x


def render_map(seed):
    """A standard-normal float32 map of the render's (64, 64, 64), and a (64,) gamma and beta near 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((64, 64, 64)).astype(np.float32)
    return x, *(1.0 + 0.1 * rng.standard_normal((2, 64))).astype(np.float32)


def lane_entries(rng):
    """A function of a shape: float32 entries on (-2, 2), 2% of them KERNEL_SPECIALS, so most sums stay finite."""
    def entries(*shape):
        x = rng.uniform(-2.0, 2.0, shape).astype(np.float32)
        mask = rng.random(shape) < 0.02
        x[mask] = rng.choice(KERNEL_SPECIALS, int(mask.sum()))
        return x
    return entries


def no_nan(x):
    """x with every NaN made -inf: operands on which the elementwise passes run in C."""
    return np.where(np.isnan(x), np.float32(-np.inf), x)


# Each entry point at lane counts n around 16 floats, where an AVX2 build of
# the library must give the bytes of the 512-bit one: (op, *args) from
# lane_entries e and n.  The elementwise passes run in C only on operands
# without a NaN; 40 * 3e38 overflows.
LANES = (1, 15, 16, 17, 31, 33, 77)
LANE_ROWS = {
    "matmul 5x19 by 19xn": lambda e, n: (nm.matmul, e(5, 19), e(19, n)),
    "matmul of subnormal products 6x40 by 40xn": lambda e, n: (nm.matmul, e(6, 40) * np.float32(1e-20),
                                                               e(40, n) * np.float32(1e-20)),
    "conv2d 3x3xn to 5 at stride 1": lambda e, n: (nm.conv2d, e(3, 3, n), e(5, 3, 3, 3), 1),
    "conv2d 2x4x2n to 3 at stride 2": lambda e, n: (nm.conv2d, e(2, 4, 2 * n), e(3, 2, 3, 3), 2),
    "resample_cubic_axis x3 of n samples": lambda e, n: (nm.resample_cubic_axis, e(3, n), 3, 1),
    "resample_cubic_axis x2 of rows of n": lambda e, n: (nm.resample_cubic_axis, e(4, 2, n), 2, 1),
    "silu of rows of n": lambda e, n: (nm.silu, no_nan(e(3, n) * np.float32(40.0))),
    "group_norm of rows of n": lambda e, n: (nm.group_norm, no_nan(e(4, 2, n)), no_nan(e(4)), no_nan(e(4)), 2),
    "softmax_last of rows of n": lambda e, n: (nm.softmax_last, no_nan(e(5, n) * np.float32(30.0))),
}


def kernel_cases():
    """Each pinned input on which a C entry point must give its numpy form's bytes: (row id, op, *args).

    Each row draws from a generator of its own, seeded from its parameters
    (a LANE_ROWS row's from its id), never from RNG: adding or removing a
    row changes no other row's input.  TestStrictKernel runs every row through
    assert_numpy_form_bytes, and against an AVX2 build of the library.
    """
    for m, k, n in PRODUCT_SHAPES + SPLIT_PRODUCTS:
        rng = np.random.default_rng([m, k, n])
        yield f"matmul {m}x{k}x{n}", nm.matmul, randf(m, k, lo=-2.0, hi=2.0, rng=rng), randf(k, n, rng=rng)
    for lo in (0.1, -1.0):  # b > 0: every product of the row is -0
        rng = np.random.default_rng(90)
        a = randf(6, 40, rng=rng)
        a[2] = -0.0
        yield f"matmul of a -0 row by b in ({lo}, 1)", nm.matmul, a, randf(40, 35, lo=lo, rng=rng)
    rng = np.random.default_rng(91)
    a, b = randf(45, 70, rng=rng), randf(33, 45, rng=rng)
    yield "matmul of transposed operands", nm.matmul, a.T, b.T
    rng = np.random.default_rng(92)
    a, b = rng.standard_normal((9, 70)), rng.standard_normal((70, 41))
    yield "matmul of float64 operands", nm.matmul, a, b
    yield "matmul of strided float64 operands", nm.matmul, a[::2], b[:, ::3]
    rng = np.random.default_rng(93)
    a, b = randf(9, 70, rng=rng), randf(70, 36, rng=rng)
    a[1, 5], a[2, 0], b[7, 3], b[9, 30] = np.inf, np.nan, -np.inf, np.nan
    a[4, 7] = 0.0  # 0 * -inf in row 4, column 3
    yield "matmul with inf and NaN", nm.matmul, a, b
    a, b = np.ones((3, 4), np.float32), np.ones((4, 5), np.float32)
    a[0, 1], b[1, 2] = 0.0, np.inf
    a[2, 3], b[3, 4] = 1e30, 1e30
    yield "matmul of 0 * inf and 1e30 * 1e30", nm.matmul, a, b
    rng = np.random.default_rng(94)
    a = randf(7, 66, rng=rng) * np.float32(1e-20)  # products far below the normal range
    a[0] = TINY * np.arange(66, dtype=np.float32)
    yield "matmul of subnormal products", nm.matmul, a, randf(66, 34, rng=rng) * np.float32(1e-20)
    yield "matmul of a subnormal row by ones", nm.matmul, a, np.ones((66, 34), np.float32)

    for c, co, h, w, s in CONV_SHAPES + SPLIT_CONVS:
        rng = np.random.default_rng([c, co, h, w, s])
        x = randf(c, h, w, lo=-2.0, hi=2.0, rng=rng)
        yield f"conv2d {c}x{h}x{w} to {co} at stride {s}", nm.conv2d, x, randf(co, c, 3, 3, rng=rng), s
    for s in (1, 2):
        rng = np.random.default_rng(73)
        x, w = randf(3, 8, 12, rng=rng), randf(4, 3, 3, 3, rng=rng)
        x[:, [0, -1], :] = -0.0
        x[:, :, [0, -1]] = -0.0
        yield f"conv2d of a -0 border at stride {s}", nm.conv2d, x, w, s
        yield f"conv2d of an all -0 map at stride {s}", nm.conv2d, np.full(x.shape, -0.0, np.float32), w, s
        rng = np.random.default_rng(74)
        x, w = randf(4, 10, 10, rng=rng), randf(5, 4, 3, 3, rng=rng)
        x[1, 0, 0] = np.inf  # a corner, whose patches also read the padding
        x[2, 5, 4] = np.nan
        w[3, 0, 1, 1] = -np.inf  # centre tap: -inf times each input of channel 0
        w[4, 2, 0, 0] = np.nan  # NaN times every input and the padding
        yield f"conv2d with inf and NaN at stride {s}", nm.conv2d, x, w, s
        rng = np.random.default_rng(75)
        x, w = (randf(*shape, rng=rng) * np.float32(1e-20) for shape in ((3, 6, 6), (2, 3, 3, 3)))
        yield f"conv2d of subnormal products at stride {s}", nm.conv2d, x, w, s
        x = np.zeros((1, 4, 4), np.float32)
        x[0, 1, 1] = TINY
        yield f"conv2d of one subnormal by ones at stride {s}", nm.conv2d, x, np.ones((1, 1, 3, 3), np.float32), s

    # Infinities next to one of the other sign or at a border (inf - inf in the
    # taps' sums), NaNs of both signs, and +-3e38 samples whose weighted sums
    # can pass the float32 range.
    for seed, name, specials in ((20261101, "+-inf and +-NaN", [np.inf, -np.inf, np.nan, -np.nan]),
                                 (20261102, "+-inf, NaN and +-3e38", [np.inf, -np.inf, np.nan, 3e38, -3e38])):
        for shape, ax in (((3, 64, 64), 1), ((3, 512, 64), 2)):  # the render block's x8 upsample
            yield (f"resample_cubic_axis x8 of {shape} along axis {ax} with {name}", nm.resample_cubic_axis,
                   resample_input(shape, seed, specials), 8, ax)

    # The render's silu, group_norm and softmax_last, with no NaN: the passes run in C.
    z, gamma, beta = render_map(20261104)
    with np.errstate(over="ignore"):  # 6 * 3e38
        scores = resample_input((4096, 77), 20261105, [np.inf, -np.inf, -0.0, 3e38, -3e38, TINY]) * np.float32(6)
    yield "silu of the render's map times 30", nm.silu, z * np.float32(30.0)
    yield "group_norm of the render's map", nm.group_norm, z, gamma, beta
    yield "softmax_last of the render's scores", nm.softmax_last, scores
    # -inf * 0 in silu, inf - inf and 3e38 - -3e38 in group_norm and softmax_last.
    x = np.array([[[-np.inf, 1.0, 3e38]], [[np.inf, -3e38, 0.5]]], np.float32)
    rows = np.array([[np.inf, np.inf, 1.0], [-np.inf, -np.inf, 0.0], [-3e38, 3e38, 0.0]], np.float32)
    yield "silu of +-inf and +-3e38", nm.silu, x
    yield "group_norm of +-inf and +-3e38", nm.group_norm, x, np.float32([2.0, 0.5]), np.float32([0.0, 1.0]), 2
    yield "softmax_last of rows of +-inf and +-3e38", nm.softmax_last, rows
    # A strided x runs on its C-ordered copy, and one that holds a NaN runs the numpy form.
    y = np.random.default_rng(20261026).standard_normal((40, 20)).astype(np.float32)
    y_nan = y.copy()
    y_nan[3, 5] = np.nan
    for name, y in (("", y), (" holding a NaN", y_nan)):
        yield f"softmax_last of a transposed x{name}", nm.softmax_last, y.T
        yield f"softmax_last of the C copy of a transposed x{name}", nm.softmax_last, y.T.copy()

    for kind, row in LANE_ROWS.items():
        for n in LANES:
            case = f"{kind}, n = {n}"
            with np.errstate(over="ignore"):
                op, *args = row(lane_entries(np.random.default_rng(list(case.encode()))), n)
            yield case, op, *args


_ROWS = list(kernel_cases())
KERNEL_CASES = {case: row for case, *row in _ROWS}
assert len(KERNEL_CASES) == len(_ROWS), "a row id repeats, so one row hides another"


def row_output(case):
    """The library's output on a row of KERNEL_CASES."""
    op, *args = KERNEL_CASES[case]
    return op(*args).data


def _isa_macros(march):
    """The instruction-set macros (__AVX2__, __FMA__, ...) that gcc defines for march."""
    out = subprocess.run(["gcc", march, "-dM", "-E", "-x", "c", os.devnull], capture_output=True, text=True,
                         check=True).stdout
    return set(re.findall(r"#define (__[A-Z][A-Z0-9_]*__) ", out))


class TestStrictKernel:
    def test_c_kernel_is_active(self):
        # gcc is part of the supported build; a silent fallback must not pass.
        assert nm._dll is not None

    def test_flags_keep_the_summation_order(self):
        assert "-ffp-contract=off" in nm.STRICT_MM_FLAGS
        banned = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math")
        assert not set(banned) & set(nm.STRICT_MM_FLAGS)
        # Threads are plain pthreads; OpenMP would obey OMP_NUM_THREADS, which BLAS users pin to 1.
        assert "-pthread" in nm.STRICT_MM_FLAGS and "-fopenmp" not in nm.STRICT_MM_FLAGS

    def test_only_strict_kernel_reads_the_library(self):
        # The one kernel switch: another reader of _dll would be a second place that picks C or numpy.
        tree = ast.parse(Path(nm.__file__).read_text())

        def reads(node):
            return [n for n in ast.walk(node)
                    if isinstance(n, ast.Name) and n.id == "_dll" and isinstance(n.ctx, ast.Load)]

        (switch,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_strict_kernel"]
        assert reads(switch) and len(reads(tree)) == len(reads(switch))

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not installed")
    def test_source_compiles_without_warnings(self, tmp_path):
        # -Wextra flags an unused parameter, such as one kept to fit a shared signature.
        flags = [*nm.STRICT_MM_FLAGS, "-Wall", "-Wextra", "-Werror"]
        done = subprocess.run(["gcc", *flags, "-o", str(tmp_path / "k.so"), str(nm.STRICT_MM_SOURCE)],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(shutil.which("gcc") is None or platform.machine() != "x86_64",
                        reason="needs gcc on an x86-64 host")
    def test_vector_width_keeps_the_bytes(self, tmp_path, monkeypatch):
        # The source asks for 512-bit vectors; an AVX2 build (x86-64-v3) has
        # none, so the two must agree on every row, the LANE_ROWS among them.
        flags = [f if f != "-march=native" else "-march=x86-64-v3" for f in nm.STRICT_MM_FLAGS]
        if not _isa_macros("-march=x86-64-v3") <= _isa_macros("-march=native"):
            pytest.skip("the host cannot run x86-64-v3 code")
        done = subprocess.run(["gcc", *flags, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "v3.so"),
                               str(nm.STRICT_MM_SOURCE)], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        v3 = nm._bind(tmp_path / "v3.so")
        for case, (op, *args) in KERNEL_CASES.items():
            want = op(*args).data
            with monkeypatch.context() as mp:
                mp.setattr(nm, "_dll", v3)
                got = op(*args).data
            assert got.tobytes() == want.tobytes(), case

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_a_row_gives_the_numpy_form_bytes(self, case):
        op, *args = KERNEL_CASES[case]
        assert_numpy_form_bytes(op, *args)

    def test_every_entry_point_runs_in_c_on_a_row(self, monkeypatch):
        # So no entry point loses its last pinned case unnoticed, nor one of
        # NAN_DECLINERS its last case of a NaN output; and the split rows stay
        # above SPLIT_MIN_WORK, where the products run on every CPU.
        ran, declined, kernel = set(), set(), nm._strict_kernel

        def spy(entry, operands, *args):
            out = kernel(entry, operands, *args)
            if out is not None:
                ran.add(entry)
            elif operands[0].dtype == np.float32:
                declined.add(entry)
            return out

        monkeypatch.setattr(nm, "_strict_kernel", spy)
        for op, *args in KERNEL_CASES.values():
            op(*args)
        assert ran == set(nm.STRICT_MM_ENTRIES) and NAN_DECLINERS <= declined
        assert all(m * k * n >= SPLIT_MIN_WORK for m, k, n in SPLIT_PRODUCTS)
        assert all(co * c * 9 * (h // s) * (w // s) >= SPLIT_MIN_WORK for c, co, h, w, s in SPLIT_CONVS)

    # What equal bytes cannot show: both forms could flush subnormals to zero,
    # lose an inf or a NaN, or sum nothing or signed zeros to a nonzero, alike.
    def test_matmul_propagates_inf_and_nan_and_keeps_subnormals(self):
        out = row_output("matmul with inf and NaN")
        assert np.isnan(out[2]).all() and np.isnan(out[:, 30]).all() and np.isnan(out[4, 3])
        out = row_output("matmul of 0 * inf and 1e30 * 1e30")
        assert np.isnan(out[0, 2]) and np.isinf(out[2, 4])
        assert row_output("matmul of a subnormal row by ones")[0, 0] == TINY * np.float32(66 * 65 // 2)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_propagates_inf_and_nan_and_keeps_subnormals(self, stride):
        out = row_output(f"conv2d with inf and NaN at stride {stride}")
        assert np.isnan(out[4]).all() and np.isinf(out[3]).any()
        assert row_output(f"conv2d of one subnormal by ones at stride {stride}")[0, 0, 0] == TINY

    def test_resample_propagates_inf_and_nan(self):
        cases = [case for case in KERNEL_CASES if case.startswith("resample_cubic_axis x8 ")]
        assert len(cases) == 4
        for case in cases:
            out = row_output(case)
            assert np.isnan(out).any() and np.isinf(out).any(), case

    def test_sums_of_nothing_or_of_signed_zeros_are_zeros(self):
        assert np.array_equal(row_output("matmul 5x0x37"), np.zeros((5, 37)))
        for lo in (0.1, -1.0):
            assert not row_output(f"matmul of a -0 row by b in ({lo}, 1)")[2].any()
        for s in (1, 2):
            assert np.array_equal(row_output(f"conv2d 0x6x10 to 5 at stride {s}"), np.zeros((5, 6 // s, 10 // s)))
            assert not row_output(f"conv2d of an all -0 map at stride {s}").any()

    def test_conv2d_forward_builds_no_patch_matrix(self, monkeypatch):
        rng = np.random.default_rng(71)
        x, w = randf(6, 10, 10, rng=rng), randf(3, 6, 3, 3, rng=rng)
        want = nm._mm_loop(w.reshape(3, 6 * 9), nm._im2col(x, 1)).reshape(3, 10, 10)

        def no_im2col(*args):
            raise AssertionError("the float32 forward built a patch matrix")
        monkeypatch.setattr(nm, "_im2col", no_im2col)
        assert nm.conv2d(x, w).data.tobytes() == want.tobytes()

    def test_return_codes(self, monkeypatch):
        # 0: out is written; DECLINED: the numpy form runs; NO_PANEL: MemoryError.
        assert f"NO_PANEL = {nm._NO_PANEL}" in nm.STRICT_MM_SOURCE.read_text()
        calls = []

        class Library:
            def __init__(self, code):
                self.code = code

            def __getattr__(self, entry):
                return lambda *args: calls.append(entry) or self.code

        x = np.ones((2, 3), np.float32)
        monkeypatch.setattr(nm, "_dll", Library(0))
        assert nm._strict_kernel("sub_rowmax_f32", (x,), x.shape, 2, 3).shape == x.shape
        # A given out the kernel would misread as C-ordered rows: TypeError, and the entry point is not called.
        with pytest.raises(TypeError, match="^silu_f32: out must be a C-contiguous float32 array$"):
            nm._strict_kernel("silu_f32", (x,), np.asfortranarray(x), 6)
        assert calls == ["sub_rowmax_f32"]
        monkeypatch.setattr(nm, "_dll", Library(1))
        assert nm._strict_kernel("sub_rowmax_f32", (x,), x.shape, 2, 3) is None
        monkeypatch.setattr(nm, "_dll", Library(nm._NO_PANEL))
        with pytest.raises(MemoryError, match="strict_mm_f32"):
            nm.matmul(x, x.T)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("library", [True, False], ids=["library", "numpy"])
    def test_a_call_must_match_its_entry(self, library, dtype, monkeypatch):
        # ctypes passes an extra size through and zip drops an extra operand;
        # the count is checked whichever form would run.
        x = np.ones((2, 16), dtype)
        if not library:
            monkeypatch.setattr(nm, "_dll", None)
        with pytest.raises(TypeError, match="^sub_rowmax_f32: takes 1 operands and 2 sizes, got 2 and 2$"):
            nm._strict_kernel("sub_rowmax_f32", (x, x), x.shape, 2, 16)
        with pytest.raises(TypeError, match="^sub_rowmax_f32: takes 1 operands and 2 sizes, got 1 and 3$"):
            nm._strict_kernel("sub_rowmax_f32", (x,), x.shape, 2, 16, 99)

    def test_no_compiler_means_no_kernel(self, monkeypatch, tmp_path):
        def no_gcc(*args, **kwargs):
            raise FileNotFoundError("gcc")
        monkeypatch.setattr(nm.tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(nm.subprocess, "run", no_gcc)
        assert nm._load_strict_mm() is None
        assert not any(p.suffix == ".so" for p in tmp_path.rglob("*"))

    def test_a_library_missing_an_entry_point_loads_none(self, monkeypatch, tmp_path):
        src = tmp_path / "_strict_mm.c"
        src.write_text(nm.STRICT_MM_SOURCE.read_text().replace("resample4_f32", "resample4_f32_renamed"))
        monkeypatch.setattr(nm, "STRICT_MM_SOURCE", src)
        monkeypatch.setattr(nm.tempfile, "tempdir", str(tmp_path))
        assert nm._load_strict_mm() is None
        assert any(p.suffix == ".so" for p in tmp_path.rglob("*"))  # it was built, and then refused

    def test_cached_object_is_reused(self, monkeypatch, tmp_path):
        monkeypatch.setattr(nm.tempfile, "tempdir", str(tmp_path))
        assert nm._load_strict_mm() is not None
        monkeypatch.setattr(nm.subprocess, "run", None)  # a second compile would fail
        lib = nm._load_strict_mm()
        rng = np.random.default_rng(78)
        a, b = randf(5, 9, rng=rng), randf(9, 3, rng=rng)
        out = np.empty((5, 3), np.float32)
        assert lib.strict_mm_f32(a.ctypes.data, b.ctypes.data, out.ctypes.data, 5, 9, 3) == 0
        assert out.tobytes() == nm._mm_loop(a, b).tobytes()

    def test_cached_object_exports_every_entry_point(self, monkeypatch, tmp_path):
        monkeypatch.setattr(nm.tempfile, "tempdir", str(tmp_path))
        lib = nm._load_strict_mm()
        (so,) = tmp_path.rglob("*.so")
        cached = ctypes.CDLL(str(so))
        assert all(hasattr(cached, name) for name in nm.STRICT_MM_ENTRIES)
        # Every function the source exports is bound: a C entry point nothing calls would be dead code.
        exported = re.findall(r"^(?!static |typedef )\w[\w *]*?\b(\w+)\(", nm.STRICT_MM_SOURCE.read_text(), re.M)
        assert sorted(exported) == sorted(nm.STRICT_MM_ENTRIES)
        rng = np.random.default_rng(77)
        x, w = randf(3, 6, 10, rng=rng), randf(5, 3, 3, 3, rng=rng)
        out = np.empty((5, 3, 5), np.float32)
        assert lib.strict_conv3x3_f32(x.ctypes.data, w.ctypes.data, out.ctypes.data, 3, 6, 10, 5, 2) == 0
        assert out.tobytes() == nm._mm_loop(w.reshape(5, 3 * 9), nm._im2col(x, 2)).reshape(5, 3, 5).tobytes()

    @pytest.mark.parametrize("mode", [0o770, 0o707])
    def test_a_shared_cache_directory_loads_no_kernel(self, monkeypatch, tmp_path, mode):
        monkeypatch.setattr(nm.tempfile, "tempdir", str(tmp_path))
        cache = tmp_path / f"promptstream-{os.getuid()}"
        cache.mkdir()
        cache.chmod(mode)  # group- or other-writable: someone else could plant the object
        assert nm._load_strict_mm() is None
        assert not any(cache.iterdir())

    def test_a_build_drops_stale_objects_and_keeps_recent_ones(self, monkeypatch, tmp_path):
        monkeypatch.setattr(nm.tempfile, "tempdir", str(tmp_path))
        cache = tmp_path / f"promptstream-{os.getuid()}"
        cache.mkdir(mode=0o700)
        old = time.time() - 2 * 86400  # two days: the cache keeps what was used within one
        stale, leftover, recent = (cache / n for n in ("strict_mm-0000000000000000.so", "tmpk2x8.so",
                                                      "strict_mm-1111111111111111.so"))
        for f in (stale, leftover, recent):
            f.write_bytes(b"")
        for f in (stale, leftover):
            os.utime(f, (old, old))
        assert nm._load_strict_mm() is not None
        (lib,) = set(cache.iterdir()) - {recent}
        assert lib.name.startswith("strict_mm-") and lib not in (stale, recent)
        # Loading a cached object builds nothing and marks it as used.
        os.utime(lib, (old, old))
        monkeypatch.setattr(nm.subprocess, "run", None)
        assert nm._load_strict_mm() is not None
        assert lib.stat().st_mtime > old + 86400
        assert set(cache.iterdir()) == {lib, recent}


# NaNs of both signs with distinct payloads, quiet and signalling, and the
# specials without a NaN, on which the elementwise passes run in C.
NAN_PAYLOADS = np.array([0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC12345, 0x7FD00000, 0x7F800001, 0xFF800ABC],
                        np.uint32).view(np.float32)
FINITE_OR_INF_SPECIALS = KERNEL_SPECIALS[~np.isnan(KERNEL_SPECIALS)]


@st.composite
def kernel_entries(draw, shape, specials=(KERNEL_SPECIALS,), scales=(1.0, 1e-20)):
    """A float32 array of the shape whose entries may be -0, +-inf, NaN, subnormals or huge.

    Hypothesis draws the seed and the mix; the values come from a generator
    of that seed, so arrays of thousands of entries stay cheap to draw.
    The special entries come from one of the arrays in specials, and the
    others are uniform on (-2, 2) times one of scales (1e-20: products in
    the subnormal range).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from(scales))
    share = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))  # of entries that are special
    x = (rng.uniform(-2.0, 2.0, shape) * scale).astype(np.float32)
    mask = rng.random(shape) < share
    x[mask] = rng.choice(draw(st.sampled_from(specials)), int(mask.sum()))
    return x


# The layouts an elementwise op is given its operands in: every forward runs
# on their C-ordered copies (_Op.__call__), in C and in numpy alike.
LAYOUTS = {"C": lambda x: x, "Fortran": np.asfortranarray, "last axis reversed": lambda x: x[..., ::-1]}


def elementwise_entries(shape, scale):
    """kernel_entries for the elementwise passes: specials with or without NaN payloads, values up to 2 * scale, in any of LAYOUTS."""
    entries = kernel_entries(shape, (FINITE_OR_INF_SPECIALS, np.concatenate([KERNEL_SPECIALS, NAN_PAYLOADS])),
                             (1.0, 1e-20, scale))
    return st.tuples(entries, st.sampled_from(sorted(LAYOUTS))).map(lambda xl: LAYOUTS[xl[1]](xl[0]))


@st.composite
def small_products(draw):
    m, k, n = (draw(st.integers(0, 70)) for _ in range(3))
    return draw(kernel_entries((m, k))), draw(kernel_entries((k, n)))


@st.composite
def split_products(draw):
    """Products of at least SPLIT_MIN_WORK multiply-adds, from tall and thin to nearly square."""
    k, n = draw(st.integers(16, 160)), draw(st.integers(16, 160))
    m = -(-SPLIT_MIN_WORK // (k * n)) + draw(st.integers(0, 3 * MC))
    return draw(kernel_entries((m, k))), draw(kernel_entries((k, n)))


def conv_operands(draw, ci, co, ho, wo, s):
    h, w = ho * s, wo * s
    return draw(kernel_entries((ci, h, w))), draw(kernel_entries((co, ci, 3, 3))), s


@st.composite
def small_convs(draw):
    s = draw(st.sampled_from([1, 2]))
    ci, co, ho, wo = (draw(st.integers(lo, hi)) for lo, hi in ((0, 8), (0, 9), (0, 12), (0, 40)))
    return conv_operands(draw, ci, co, ho, wo, s)


@st.composite
def split_convs(draw):
    """Convolutions of at least SPLIT_MIN_WORK multiply-adds."""
    s = draw(st.sampled_from([1, 2]))
    ci, co, wo = draw(st.integers(8, 64)), draw(st.integers(1, 64)), draw(st.integers(1, 70))
    pixels = -(-SPLIT_MIN_WORK // (co * ci * 9))
    ho = -(-pixels // wo) + draw(st.integers(0, 3))
    return conv_operands(draw, ci, co, ho, wo, s)


@st.composite
def resamples(draw):
    """x, factor and axis: n in 1..70 samples on the axis, 1 to 3 dimensions, the others 0..17 long."""
    nd = draw(st.integers(1, 3))
    axis = draw(st.integers(-nd, nd - 1))
    shape = [draw(st.integers(0, 17)) for _ in range(nd)]
    shape[axis] = draw(st.integers(1, 70))
    return draw(kernel_entries(tuple(shape))), draw(st.integers(1, 9)), axis


@st.composite
def silu_operands(draw):
    """x of 1 to 3 axes, each 0..40 long, entries up to 120 in size: exp(-|x|) down to 0."""
    shape = tuple(draw(st.integers(0, 40)) for _ in range(draw(st.integers(1, 3))))
    return draw(elementwise_entries(shape, 60.0))


@st.composite
def group_norm_entries(draw):
    """x, gamma, beta and groups: 1..4 groups of 1..4 channels, each 1..9 by 1..40."""
    groups, per, h, w = (draw(st.integers(1, hi)) for hi in (4, 4, 9, 40))
    c = groups * per
    x, gamma, beta = (draw(elementwise_entries(shape, 10.0)) for shape in ((c, h, w), (c,), (c,)))
    return x, gamma, beta, groups


@st.composite
def softmax_rows(draw):
    """x of rows 1..200 long, often 77 or next to a multiple of 16 lanes, under 0..2 leading axes of 0..6."""
    n = draw(st.one_of(st.integers(1, 200), st.sampled_from([15, 16, 17, 31, 32, 33, 63, 64, 65, 77])))
    shape = tuple(draw(st.integers(0, 6)) for _ in range(draw(st.integers(0, 2)))) + (n,)
    return draw(elementwise_entries(shape, 30.0))


class TestKernelProperties:
    """The C entry points against their numpy forms, byte for byte and by the rules, on drawn shapes and entries."""

    @given(small_products())
    @settings(max_examples=60, deadline=None)
    def test_matmul(self, ab):
        assert_numpy_form_bytes(nm.matmul, *ab)

    @given(split_products())
    @settings(max_examples=20, deadline=None)
    def test_matmul_above_the_split_threshold(self, ab):
        assert_numpy_form_bytes(nm.matmul, *ab)

    @given(small_convs())
    @settings(max_examples=60, deadline=None)
    def test_conv2d(self, xws):
        assert_numpy_form_bytes(nm.conv2d, *xws)

    @given(split_convs())
    @settings(max_examples=20, deadline=None)
    def test_conv2d_above_the_split_threshold(self, xws):
        assert_numpy_form_bytes(nm.conv2d, *xws)

    @given(resamples())
    @settings(max_examples=60, deadline=None)
    def test_resample(self, xfa):
        assert_numpy_form_bytes(nm.resample_cubic_axis, *xfa)

    @given(silu_operands())
    @settings(max_examples=60, deadline=None)
    def test_silu(self, x):
        assert_numpy_form_bytes(nm.silu, x)

    @given(group_norm_entries())
    @settings(max_examples=60, deadline=None)
    def test_group_norm(self, xgbg):
        assert_numpy_form_bytes(nm.group_norm, *xgbg)

    @given(softmax_rows())
    @settings(max_examples=60, deadline=None)
    def test_softmax_last(self, x):
        assert_numpy_form_bytes(nm.softmax_last, x)


def thread_cpu_times(tids):
    """The CPU seconds of each thread of this process by its tid: Linux's per-thread CPU clock.

    Its clock id is the one pthread_getcpuclockid gives: the bits of ~tid
    shifted left by 3, then CPUCLOCK_PERTHREAD (4) and CPUCLOCK_SCHED (2).
    """
    return {t: time.clock_gettime((~t << 3) | 6) for t in tids}


class TestKernelThreads:
    """Products above SPLIT_MIN_WORK run on every CPU of the affinity mask, with bytes no thread count changes.

    The SPLIT_PRODUCTS and SPLIT_CONVS rows of KERNEL_CASES hold them to the loop's bytes.
    """

    def test_one_cpu_gives_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(20261020)
        ops = {"a": randf(1030, 64, rng=rng), "b": randf(64, 96, rng=rng),
               "x": randf(32, 40, 40, rng=rng), "w": randf(16, 32, 3, 3, rng=rng)}
        for name, arr in ops.items():
            np.save(tmp_path / f"{name}.npy", arr)
        child = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy as np\n"
            "from promptstream import numerics as nm\n"
            "d = sys.argv[1]\n"
            "a, b, x, w = (np.load(f'{d}/{n}.npy') for n in 'abxw')\n"
            "assert len(os.sched_getaffinity(0)) == 1 and nm._dll is not None\n"
            "np.save(f'{d}/mm.npy', nm.matmul(a, b).data)\n"
            "np.save(f'{d}/conv.npy', nm.conv2d(x, w).data)\n"
        )
        src = str(Path(nm.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env, check=True, timeout=120)
        assert np.load(tmp_path / "mm.npy").tobytes() == nm.matmul(ops["a"], ops["b"]).data.tobytes()
        assert np.load(tmp_path / "conv.npy").tobytes() == nm.conv2d(ops["x"], ops["w"]).data.tobytes()

    def test_concurrent_callers_get_the_same_bytes(self):
        # More callers than CPUs, each call with its own helpers and counters:
        # a lost claim or a task run twice would change bytes or never return.
        rng = np.random.default_rng(20261023)
        a, b = randf(1030, 64, rng=rng), randf(64, 96, rng=rng)
        x, w = randf(32, 40, 40, rng=rng), randf(16, 32, 3, 3, rng=rng)
        want = nm.matmul(a, b).data.tobytes(), nm.conv2d(x, w).data.tobytes()
        wrong = []

        def caller():
            for _ in range(10):
                if (nm.matmul(a, b).data.tobytes(), nm.conv2d(x, w).data.tobytes()) != want:
                    wrong.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(2 * len(os.sched_getaffinity(0)) + 2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers) and not wrong

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
                        reason="needs Linux's /proc and two CPUs in the affinity mask")
    def test_a_large_product_runs_on_more_than_one_thread(self):
        # The CPU time the process spent in the call, less that of every
        # thread that was there before it, is the time of the threads the
        # call made, whether or not they have exited: no need to catch one
        # alive.  The process's time less the caller's is not enough, as
        # idle BLAS threads spin.  A helper that starts late may find no task
        # left, so the call is tried until a deadline.
        a, b = np.ones((8192, 160), np.float32), np.ones((160, 160), np.float32)
        me, deadline = threading.get_native_id(), time.monotonic() + 60
        helpers, caller = 0.0, 1.0
        while helpers <= caller / 4 and time.monotonic() < deadline:
            tids = [int(t) for t in os.listdir("/proc/self/task")]
            try:
                before, start = thread_cpu_times(tids), time.process_time()
                nm.matmul(a, b)
                end, after = time.process_time(), thread_cpu_times(tids)
            except OSError:  # a thread that was there exited
                continue
            caller = after[me] - before[me]
            helpers = (end - start) - sum(after[t] - before[t] for t in tids)
        assert helpers > caller / 4


class TestGrad:
    def test_sum_gradient_is_ones(self):
        tape = GradTape()
        x = tape.leaf(randf(3, 4, 2))
        loss = nm.sum_all(x)
        (g,) = nm.grad(loss, [x])
        assert np.array_equal(g.data, np.ones((3, 4, 2), dtype=np.float32))

    def test_half_square_gradient_is_x(self):
        tape = GradTape()
        x = tape.leaf(randf(6, 5))
        loss = nm.mul(nm.sum_all(nm.mul(x, x)), np.float32(0.5))
        (g,) = nm.grad(loss, [x])
        assert np.array_equal(g.data, x.data)

    def test_unknown_leaf(self):
        tape = GradTape()
        x = tape.leaf(randf(3,))
        loss = nm.sum_all(x)
        with pytest.raises(UnknownLeafError):
            nm.grad(loss, [Tensor(randf(3,))])

    def test_leaf_from_other_tape(self):
        t1, t2 = GradTape(), GradTape()
        x = t1.leaf(randf(3,))
        y = t2.leaf(randf(3,))
        loss = nm.sum_all(x)
        with pytest.raises(UnknownLeafError):
            nm.grad(loss, [y])

    def test_mixing_tapes_rejected(self):
        t1, t2 = GradTape(), GradTape()
        with pytest.raises(ValueError, match="different tapes"):
            nm.add(t1.leaf(randf(3,)), t2.leaf(randf(3,)))

    def test_a_produced_node_is_not_a_leaf(self):
        # Its cotangent is spent before the leaves are handed out, so it would read as 0.
        tape = GradTape()
        x = tape.leaf(randf(3, rng=np.random.default_rng(90)))
        y = nm.mul(x, x)
        loss = nm.sum_all(nm.mul(y, np.float32(2.0)))
        for node in (y, loss):
            with pytest.raises(UnknownLeafError):
                nm.grad(loss, [node])
        (g,) = nm.grad(loss, [x])
        assert np.array_equal(g.data, 4 * x.data)

    def test_loss_must_be_a_tracked_scalar(self):
        rng = np.random.default_rng(91)
        with pytest.raises(UnknownLeafError, match="not attached"):
            nm.grad(nm.sum_all(randf(3, rng=rng)), [])
        tape = GradTape()
        x = tape.leaf(randf(3, rng=rng))
        with pytest.raises(ValueError, match="scalar"):
            nm.grad(nm.mul(x, x), [x])

    def test_a_leaf_the_loss_does_not_reach_gets_fresh_zeros(self):
        rng = np.random.default_rng(92)
        tape = GradTape()
        x, w = tape.leaf(randf(3, rng=rng)), tape.leaf(randf(2, 2, rng=rng))
        nm.mul(w, np.float32(2.0))  # recorded, but not on the loss's path
        loss = nm.sum_all(nm.mul(x, x))
        for leaves in ([w], [x, w]):
            g = nm.grad(loss, leaves)[-1].data
            assert np.array_equal(g, np.zeros((2, 2), np.float32)) and not np.signbit(g).any()
            assert g.flags.writeable and g.flags.c_contiguous and g.base is None
        assert not any(np.shares_memory(g, v) for v in tape.values)

    def test_broadcast_over_leading_axes_sums_them(self):
        rng = np.random.default_rng(93)
        tape = GradTape()
        a, b = tape.leaf(randf(4, rng=rng)), tape.leaf(randf(3, 4, rng=rng))
        r = randf(3, 4, rng=rng)
        ga, gb = nm.grad(nm.sum_all(nm.mul(nm.add(a, b), r)), [a, b])
        assert ga.data.tobytes() == r.sum(axis=0).tobytes()
        assert gb.data.tobytes() == r.tobytes()


def loss_through(op, *leaf_arrays, builder=None, rng=RNG):
    """Record op(leaves) and reduce with a fixed random cotangent."""
    tape = GradTape()
    leaves = [tape.leaf(a) for a in leaf_arrays]
    out = builder(*leaves) if builder else op(*leaves)
    r = tape.leaf(rng.standard_normal(out.shape).astype(np.float32))
    return nm.sum_all(nm.mul(out, r)), leaves


PRIMITIVE_CASES = [
    ("add", lambda a, b: nm.add(a, b), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda a, b: nm.add(a, b), [(3, 4, 5), (3, 1, 1)]),
    ("sub", lambda a, b: nm.sub(a, b), [(4, 3), (4, 3)]),
    ("mul", lambda a, b: nm.mul(a, b), [(2, 5), (2, 5)]),
    ("mul_broadcast", lambda a, b: nm.mul(a, b), [(4, 2, 3), (4, 1, 1)]),
    ("neg", lambda a: -a, [(3, 3)]),
    ("matmul", lambda a, b: nm.matmul(a, b), [(4, 6), (6, 3)]),
    ("lerp", lambda a, b: nm.lerp(a, b, 0.3), [(3, 4), (3, 4)]),
    ("conv2d_s1", lambda x, w: nm.conv2d(x, w, stride=1), [(3, 6, 6), (4, 3, 3, 3)]),
    ("conv2d_s2", lambda x, w: nm.conv2d(x, w, stride=2), [(3, 6, 6), (4, 3, 3, 3)]),
    ("silu", lambda a: nm.silu(a), [(5, 5)]),
    ("softmax", lambda a: nm.softmax_last(a), [(4, 7)]),
    ("reshape", lambda a: nm.reshape(a, (6, 2)), [(3, 4)]),
    ("transpose", lambda a: nm.transpose2d(a), [(3, 5)]),
    ("mean_axes", lambda a: nm.mean_axes(a, (1,)), [(3, 8)]),
    ("sum_all", lambda a: nm.sum_all(a), [(4, 4)]),
    ("mean_all", lambda a: nm.mean_all(a), [(4, 4)]),
]


class TestPrimitiveGradients:
    """Analytic vs central-FD gradients, rel err <= 1e-4 on inputs in [-1,1]."""

    @pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_fd_match(self, name, fn, shapes):
        arrays = [randf(*s) for s in shapes]
        loss, leaves = loss_through(None, *arrays, builder=fn)
        check_grad(loss, leaves, h=1e-3, tol=1e-4)

    def test_rsqrt_grad(self):
        # rsqrt only ever sees variances; test on its non-negative domain,
        # where FD truncation error stays controlled.
        x = randf(4, 4, lo=0.1, hi=1.0)
        loss, leaves = loss_through(None, x, builder=lambda a: nm.rsqrt_eps(a, 1e-5))
        check_grad(loss, leaves, h=1e-4, tol=1e-4)

    def test_take_flat_grad(self):
        x = randf(3, 4)
        idx = RNG.permutation(12)
        loss, leaves = loss_through(None, x, builder=lambda t: nm.take_flat(t, idx, (12,)))
        check_grad(loss, leaves, tol=1e-4)

    def test_take_axis_grad_with_repeats(self):
        x = randf(4, 3)
        idx = np.array([0, 0, 1, 3, 3, 3])
        loss, leaves = loss_through(None, x, builder=lambda t: nm.take_axis(t, idx, 0))
        check_grad(loss, leaves, tol=1e-4)

    def test_take_flat_grad_with_a_2d_index(self):
        rng = np.random.default_rng(79)
        x, idx = randf(3, 4, rng=rng), np.array([[0, 5], [11, 5]])
        loss, leaves = loss_through(None, x, builder=lambda t: nm.take_flat(t, idx, (2, 2)), rng=rng)
        check_grad(loss, leaves, tol=1e-4)

    def test_take_axis_grad_with_a_2d_index(self):
        rng = np.random.default_rng(79)
        idx = np.array([[0, 1], [2, 2]])
        for axis in (0, 1, -1):
            x = randf(3, 4, rng=rng)
            loss, leaves = loss_through(None, x, builder=lambda t: nm.take_axis(t, idx, axis), rng=rng)
            check_grad(loss, leaves, tol=1e-4)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_grad_without_output_channels(self, stride):
        rng = np.random.default_rng(80)
        tape = GradTape()
        x, w = tape.leaf(randf(3, 4, 4, rng=rng)), tape.leaf(np.zeros((0, 3, 3, 3), np.float32))
        dx, dw = nm.grad(nm.sum_all(nm.conv2d(x, w, stride=stride)), [x, w])
        assert dx.data.shape == (3, 4, 4) and not dx.data.any()
        assert dw.data.shape == (0, 3, 3, 3)

    def test_clip01_grad_interior(self):
        x = (RNG.uniform(0.05, 0.95, size=(4, 4))).astype(np.float32)
        loss, leaves = loss_through(None, x, builder=nm.clip01)
        check_grad(loss, leaves, tol=1e-4)

    def test_group_norm_grad(self):
        x, gm, bt = randf(8, 3, 3), randf(8), randf(8)
        loss, leaves = loss_through(
            None, x, gm, bt, builder=lambda a, g, b: nm.group_norm(a, g, b, groups=4)
        )
        check_grad(loss, leaves, h=1e-3, tol=1e-4)

    def test_upsample_cubic_grad(self):
        x = randf(4, 4, 3)
        loss, leaves = loss_through(None, x, builder=lambda t: nm.upsample_cubic(t, 2))
        check_grad(loss, leaves, tol=1e-4)


def spread_draws(*shapes):
    """float32 arrays of the shapes, whose entries span two decades so that the order of a sum shows in its bytes."""
    rng = np.random.default_rng(20261201)
    return tuple((rng.standard_normal(s) * 10.0 ** rng.uniform(-1, 1, s)).astype(np.float32) for s in shapes)


def draws(seed, *shapes):
    """randf arrays of the shapes, in order, from a generator of the seed."""
    rng = np.random.default_rng(seed)
    return tuple(randf(*s, rng=rng) for s in shapes)


def every_op(*names):
    """The named leaves of a small tape that runs every op, drawn in this order."""
    shapes = {"x": (4, 6), "y": (4, 6), "w": (6, 3), "img": (2, 4, 4), "k": (3, 2, 3, 3), "gm": (2,), "bt": (2,)}
    drawn = dict(zip(shapes, draws(20261101, *shapes.values())))
    return tuple(drawn[n] for n in names)


SILU_SPECIAL = [0.0, -0.0, 20.0, -20.0, 88.0, -88.0, 104.0, -104.0, 1e-40, -1e-40, np.inf, -np.inf, np.nan, -np.nan]


def silu_inputs(dtype):
    rng = np.random.default_rng(20261019)
    normal = rng.standard_normal((64, 64, 64)).astype(dtype)
    special = np.array(SILU_SPECIAL, dtype=dtype)
    return normal, special


NON_FINITE_ROWS = np.array([[np.inf, 1.0, -2.0, 0.5], [np.inf, np.inf, 0.0, 1.0], [-np.inf, 1.0, 2.0, -0.0],
                            [-np.inf] * 4, [np.nan, 1.0, 2.0, 3.0], [1.0, -np.nan, np.inf, -np.inf],
                            [-0.0, 0.0, -0.0, 0.0], [1e-40, -1e-40, 88.0, -104.0]], np.float32)
# (input shape, factor, axis): both axes of the render block's x8 upsample,
# and the shape test_upsample_cubic_grad uses.
RESAMPLE_CASES = [((3, 64, 64), 8, 1), ((3, 64, 64), 8, 2), ((4, 4, 3), 2, 0), ((4, 4, 3), 2, 1)]


def k_order_product(a, b):
    """matmul's strict sum: +0, then plus a[:, k] * b[k] for each k in order, every product and sum rounded."""
    out = np.zeros((a.shape[0], b.shape[1]), a.dtype)
    for k in range(a.shape[1]):
        out += a[:, k, np.newaxis] * b[k]
    return out


def nine_tap_conv(x, w, stride):
    """conv2d's strict sum: +0, then plus each input channel's nine taps in order, over x padded by 1."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((w.shape[0], x.shape[1] // stride, x.shape[2] // stride), x.dtype)
    for ci, dy, dx in np.ndindex(w.shape[1], 3, 3):
        out += w[:, ci, dy, dx, np.newaxis, np.newaxis] * xp[ci, dy::stride, dx::stride][:out.shape[1], :out.shape[2]]
    return out


def two_branch_sigmoid(x):
    """The former _sigmoid: the bytes the one-pass form must keep."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def three_array_softmax(x):
    """The former softmax_last forward: the bytes the one-array form must keep."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def four_tap_resample(x, factor, axis):
    """(t0*w0 + t1*w1) + (t2*w2 + t3*w3) over the four clamped taps, the weights float32 values."""
    idx, w = nm._catmull_rom_taps(x.shape[axis], factor)
    shape = [1] * x.ndim
    shape[axis] = -1
    t0, t1, t2, t3 = (np.take(x, idx[k], axis=axis) * w[k].astype(x.dtype).reshape(shape) for k in range(4))
    return (t0 + t1) + (t2 + t3)


def group_norm_steps(x, gamma, beta, groups):
    """The former group_norm's reshape, mean_axes, sub, mul, rsqrt_eps and add steps, at eps 1e-5."""
    xg = x.reshape(groups, -1)
    cen = xg - xg.mean(axis=1, keepdims=True)
    r = 1.0 / np.sqrt((cen * cen).mean(axis=1, keepdims=True) + x.dtype.type(1e-5))
    return (cen * r).reshape(x.shape) * gamma.reshape(-1, 1, 1) + beta.reshape(-1, 1, 1)


OpCase = namedtuple("OpCase", "call reference inputs")

# Each op of nm._OPS, stated once: its public call on Tensors, a numpy
# reference that runs at float32 and at float64 and reaches no library code,
# and its input tuples: the operands, float arrays, then the params.  Each
# tuple draws from a generator of its own, never from RNG.  The first is
# spread_draws, its first operand of two axes or more, so that each of
# OPERAND_LAYOUTS moves its entries.
OP_CASES = {
    "add": OpCase(nm.add, np.add, [spread_draws((24, 40), (24, 40)), every_op("x", "y"),
                                   draws(20261401, (3, 4, 5), (3, 1, 1))]),
    "sub": OpCase(nm.sub, np.subtract, [spread_draws((24, 40), (24, 40)), every_op("x", "y")]),
    "mul": OpCase(nm.mul, np.multiply, [spread_draws((24, 40), (24, 40)), every_op("x", "y"),
                                        draws(20261401, (4, 2, 3), (4, 1, 1))]),
    "neg": OpCase(operator.neg, np.negative, [spread_draws((24, 40)), every_op("x")]),
    "matmul": OpCase(nm.matmul, k_order_product, [spread_draws((24, 40), (40, 36)), every_op("x", "w"),
                                                  draws(20261402, (17, 33), (33, 9))]),
    "conv2d": OpCase(lambda x, w, s: nm.conv2d(x, w, stride=s), nine_tap_conv, [
        (*spread_draws((3, 12, 20), (4, 3, 3, 3)), 2), (*every_op("img", "k"), 2),
        (*draws(76, (3, 8, 8), (4, 3, 3, 3)), 2), (*draws(20261402, (4, 16, 16), (8, 4, 3, 3)), 1),
        (*draws(80, (2, 4, 6), (3, 2, 3, 3)), np.int64(2))]),
    "silu": OpCase(nm.silu, lambda x: x * two_branch_sigmoid(x), [
        spread_draws((24, 40)), every_op("x"), *((x,) for x in silu_inputs(np.float32))]),
    "softmax_last": OpCase(nm.softmax_last, three_array_softmax, [
        spread_draws((24, 77)), every_op("x"), (np.random.default_rng(20261021).standard_normal((4096, 77)) * 6.0,),
        (NON_FINITE_ROWS,)]),
    "reshape": OpCase(nm.reshape, np.reshape, [(*spread_draws((24, 40)), (40, 24)), (*every_op("x"), (6, 4))]),
    "transpose2d": OpCase(nm.transpose2d, np.transpose, [spread_draws((24, 40)), every_op("x")]),
    "take_axis": OpCase(nm.take_axis, np.take, [(*spread_draws((24, 40)), [3, 0, 3, 39], 1),
                                                (*every_op("x"), [3, 0, 3], 0),
                                                (every_op("x")[0].reshape(-1), [0, 5, 23], 0)]),
    "lerp": OpCase(nm.lerp, lambda a, b, al: a * a.dtype.type(1 - np.float32(al)) + b * a.dtype.type(np.float32(al)), [
        (*spread_draws((24, 40), (24, 40)), 0.3), (*every_op("x", "y"), 0.3), (*draws(20261405, (5, 6), (5, 6)), 0.3),
        *((*draws(20261404, (77, 64), (77, 64)), alpha) for alpha in [0.0, 1 / 29, 0.3, 0.5, 28 / 29, 1.0])]),
    "resample_cubic_axis": OpCase(nm.resample_cubic_axis, four_tap_resample, [
        (*spread_draws((5, 12, 20)), 3, 1), (*every_op("img"), 2, 1),
        *((np.random.default_rng(seed).standard_normal(shape).astype(np.float32), factor, axis)
          for seed in (20261022, 20261025) for shape, factor, axis in RESAMPLE_CASES)]),
    "mean_axes": OpCase(nm.mean_axes, lambda x, axes: x.mean(axis=axes, keepdims=True),
                        [(*spread_draws((6, 40, 24)), (1,)), (*every_op("x"), (1,))]),
    "sum_all": OpCase(nm.sum_all, lambda x: np.asarray(x.sum()), [spread_draws((24, 77)), every_op("x")]),
    "mean_all": OpCase(nm.mean_all, lambda x: np.asarray(x.mean()), [spread_draws((24, 77)), every_op("x")]),
    "rsqrt_eps": OpCase(nm.rsqrt_eps, lambda x, eps: 1.0 / np.sqrt(x + x.dtype.type(eps)),
                        [(*spread_draws((24, 40)), 100.0), (np.square(*every_op("x")), 1e-5)]),  # x + eps > 0
    "clip01": OpCase(nm.clip01, lambda x: np.clip(x, 0.0, 1.0), [spread_draws((24, 40)), every_op("x")]),
    "group_norm": OpCase(lambda x, gamma, beta, groups: nm.group_norm(x, gamma, beta, groups=groups),
                         group_norm_steps, [(*spread_draws((4, 12, 20), (4,), (4,)), 2),
                                            (*every_op("img", "gm", "bt"), 1), (*render_map(20261301), 4),
                                            (*draws(20261302, (8, 3, 3), (8,), (8,)), 4)]),
}


def operands_and_params(case):
    """An input tuple's operands, the float arrays it starts with, and its params."""
    n = next((i for i, v in enumerate(case) if not (isinstance(v, np.ndarray) and v.dtype.kind == "f")), len(case))
    return case[:n], case[n:]


def reference_outputs(op, case):
    """op's reference on the tuple's operands cast to float32 and to float64, silent as the ops are."""
    arrays, params = operands_and_params(case)
    with np.errstate(invalid="ignore", over="ignore"):
        return [OP_CASES[op].reference(*[a.astype(dtype) for a in arrays], *params)
                for dtype in (np.float32, np.float64)]


def assert_reference_bytes(op, case):
    """op's call on the tuple, its operands tape leaves: one record of op, with the reference's bytes.

    Live, replayed, and replayed at float64 on the tuple's own arrays, so that
    a float64 operand keeps its full precision.
    """
    arrays, params = operands_and_params(case)
    want32, want64 = reference_outputs(op, case)
    tape = GradTape()
    leaves = [tape.leaf(a) for a in arrays]
    y = OP_CASES[op].call(*leaves, *params)
    assert [rec.op for rec in tape.records] == [op]
    got64 = tape.replay({lf.node: a for lf, a in zip(leaves, arrays)}, dtype=np.float64)[y.node]
    for got, want in ((y.data, want32), (tape.replay()[y.node], y.data), (got64, want64)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOpCases:
    """Every op against its reference on every input of its row: live, replayed, and replayed at float64."""

    @pytest.mark.parametrize("library", [True, False], ids=["library", "numpy"])
    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_an_op_gives_its_reference_bytes(self, op, library, monkeypatch):
        if not library:
            monkeypatch.setattr(nm, "_dll", None)
        for case in OP_CASES[op].inputs:
            assert_reference_bytes(op, case)

    def test_every_op_has_a_row_whose_reference_reaches_no_library_code(self, monkeypatch):
        assert set(OP_CASES) == set(nm._OPS)
        assert not any(getattr(row.reference, "__module__", "") == nm.__name__ for row in OP_CASES.values())
        # Every way into an op's arithmetic is None; reading the tap table is allowed.
        monkeypatch.setattr(nm._Op, "__call__", None)
        for name in ("_strict_kernel", "_mm_loop", "_im2col", "_sigmoid", "_group_stats"):
            monkeypatch.setattr(nm, name, None)
        for op, row in OP_CASES.items():
            for case in row.inputs:
                reference_outputs(op, case)


# op, its operands' shapes, the operand replaced in replay and the wrong shape put in
BAD_OVERRIDES = {
    "matmul": (nm.matmul, [(3, 5), (5, 2)], 0, (3, 4)),
    "conv2d": (nm.conv2d, [(3, 4, 4), (2, 3, 3, 3)], 0, (4, 4, 4)),
    "lerp": (lambda a, b: nm.lerp(a, b, 0.5), [(3, 4), (3, 4)], 1, (1, 4)),
    "group_norm": (lambda x, g, b: nm.group_norm(x, g, b, groups=2), [(4, 3, 3), (4,), (4,)], 0, (4, 9)),
}


class TestOneDriver:
    """Live ops and replay run each op through the same call, whose forward checks its operands first."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", list(BAD_OVERRIDES))
    def test_wrong_shaped_override_raises(self, op, dtype):
        fn, shapes, which, bad = BAD_OVERRIDES[op]
        rng = np.random.default_rng(20261102)
        tape = GradTape()
        leaves = [tape.leaf(randf(*s, rng=rng)) for s in shapes]
        fn(*leaves)
        with pytest.raises(ShapeMismatchError, match=op):
            tape.replay({leaves[which].node: randf(*bad, rng=rng)}, dtype=dtype)


OPERAND_LAYOUTS = {**LAYOUTS, "last two axes transposed": lambda x: np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2)
                   if x.ndim > 1 else x}


class TestOperandLayouts:
    """An op's bytes do not depend on how its operands lie in memory: each row's first input of OP_CASES."""

    @pytest.mark.parametrize("library", [True, False], ids=["library", "numpy"])
    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_any_layout_gives_the_bytes_of_its_c_copy(self, op, library, monkeypatch):
        call, _, (case, *_) = OP_CASES[op]
        arrays, params = operands_and_params(case)
        if not library:
            monkeypatch.setattr(nm, "_dll", None)
        for name, layout in OPERAND_LAYOUTS.items():
            given = [layout(a) for a in arrays]
            assert name == "C" or not given[0].flags.c_contiguous
            got = call(*map(Tensor, given), *params).data
            want = call(*[Tensor(np.ascontiguousarray(g)) for g in given], *params).data
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestTapeInputs:
    """A tape owns its leaves, and replay overrides only the nodes no op produced."""

    def test_leaf_keeps_its_own_copy(self):
        tape = GradTape()
        a = np.ones(3, np.float32)
        x = tape.leaf(a)
        y = nm.sum_all(nm.mul(x, x))
        a[0] = 7.0  # the caller reuses its array
        assert x.data.tolist() == [1.0, 1.0, 1.0]
        assert tape.replay()[y.node].tolist() == 3.0
        (g,) = nm.grad(y, [x])
        assert g.data.tolist() == [2.0, 2.0, 2.0]

    def test_inputs_are_leaves_and_foreign_operands(self):
        tape = GradTape()
        x = tape.leaf(np.ones(3, np.float32))
        y = nm.mul(x, np.full(3, 2.0, np.float32))
        c = tape.records[-1].inputs[1]
        assert tape.inputs == [x.node, c]
        assert tape.replay({c: np.full(3, 5.0)})[y.node].tolist() == [5.0, 5.0, 5.0]

    def test_tape_keeps_its_own_copy_of_an_operand(self):
        tape = GradTape()
        x = tape.leaf(np.ones(3, np.float32))
        target, scale = np.zeros(3, np.float32), np.ones(3, np.float32)
        r = nm.sub(x, target)
        loss = nm.sum_all(nm.mul(nm.mul(r, r), scale))  # mul's vjp reads scale
        (before,) = nm.grad(loss, [x])
        target[:] = 5.0  # the caller reuses its arrays
        scale[:] = 7.0
        assert tape.replay()[loss.node].tolist() == 3.0
        (after,) = nm.grad(loss, [x])
        assert before.data.tolist() == after.data.tolist() == [2.0, 2.0, 2.0]

    def test_repr_says_whether_a_tensor_is_tracked(self):
        assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3), tracked=False)"
        assert repr(GradTape().leaf(np.zeros(4))) == "Tensor(shape=(4,), tracked=True)"

    @pytest.mark.parametrize("which", ["produced", "unknown"])
    def test_override_of_a_non_input_raises(self, which):
        tape = GradTape()
        x = tape.leaf(np.array([1.0, 2.0, 3.0], np.float32))
        y = nm.mul(x, x)
        nm.sum_all(y)
        node = y.node if which == "produced" else 99
        with pytest.raises(ValueError, match=rf"replay: nodes \[{node}\]"):
            tape.replay({x.node: np.zeros(3), node: np.full(3, 5.0)})


def assert_owned(grads, tape):
    """Each gradient is a writable, C-contiguous float32 array shared with no other gradient and no tape value."""
    for i, g in enumerate(grads):
        arr = g.data
        assert arr.dtype == np.float32 and arr.flags.c_contiguous and arr.flags.writeable
        assert not any(np.shares_memory(arr, other.data) for other in grads[i + 1:])
        assert not any(np.shares_memory(arr, v) for v in tape.values)


class TestGradOutput:
    """grad returns fresh arrays the caller owns."""

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_primitive_gradients_are_owned(self, op):
        call, _, inputs = OP_CASES[op]
        rng = np.random.default_rng(20261201)
        for case in inputs:
            arrays, params = operands_and_params(case)
            loss, leaves = loss_through(None, *arrays, builder=lambda *xs: call(*xs, *params), rng=rng)
            with np.errstate(invalid="ignore"):  # silu's vjp at -inf is -inf * 0
                assert_owned(nm.grad(loss, leaves), loss.tape)

    @pytest.mark.parametrize("reduce", [nm.sum_all, nm.mean_all])
    def test_reduction_of_a_leaf_gives_an_owned_array(self, reduce):
        tape = GradTape()
        x = tape.leaf(randf(3, 4, rng=np.random.default_rng(20261202)))
        (g,) = nm.grad(reduce(x), [x])
        assert_owned([g], tape)
        g.data[0, 0] = 9.0  # a broadcast view would raise here
        assert nm.grad(reduce(x), [x])[0].data[0, 0] != 9.0

    def test_add_gives_each_leaf_its_own_array(self):
        tape = GradTape()
        a, b = tape.leaf(np.zeros(3, np.float32)), tape.leaf(np.zeros(3, np.float32))
        ga, gb = nm.grad(nm.sum_all(nm.add(a, b)), [a, b])
        assert_owned([ga, gb], tape)
        ga.data[0] = 9.0
        assert gb.data.tolist() == [1.0, 1.0, 1.0]

    def test_fortran_ordered_leaf_gets_a_c_contiguous_array(self):
        tape = GradTape()
        x = tape.leaf(np.asfortranarray(randf(3, 4, rng=np.random.default_rng(20261206))))
        (g,) = nm.grad(nm.mean_all(nm.mul(x, x)), [x])
        assert_owned([g], tape)

    def test_a_leaf_asked_for_twice_gets_two_arrays(self):
        tape = GradTape()
        x = tape.leaf(np.ones(3, np.float32))
        grads = nm.grad(nm.sum_all(nm.mul(x, x)), [x, x])
        assert_owned(grads, tape)
        assert grads[0].data.tolist() == grads[1].data.tolist() == [2.0, 2.0, 2.0]


def spy_vjps(monkeypatch, names):
    """Wrap the named ops' vjps; returns the list of (op, needs, grads) that their calls append to."""
    calls = []
    for name in names:
        op = nm._OPS[name]

        def spy(a, p, out, g, needs, _name=name, _vjp=op.vjp):
            grads = _vjp(a, p, out, g, needs)
            calls.append((_name, needs, grads))
            return grads

        monkeypatch.setattr(op, "vjp", spy)
    return calls


def full_backward(loss, leaves):
    """The unpruned backward: every record's vjp for every input, with the reductions' cotangents dense arrays."""
    tape = loss.tape
    adjoint = {loss.node: np.ones((), dtype=np.float32)}
    for rec in reversed(tape.records):
        g = adjoint.pop(rec.out, None)
        if g is None:
            continue
        args = [tape.values[j] for j in rec.inputs]
        grads = nm._OPS[rec.op].vjp(args, rec.params, tape.values[rec.out], g, (True,) * len(args))
        if rec.op in ("sum_all", "mean_all", "mean_axes"):
            grads = [np.array(gj) for gj in grads]
        for j, gj in zip(rec.inputs, grads):
            adjoint[j] = adjoint[j] + gj if j in adjoint else gj
    return [np.ascontiguousarray(adjoint.get(lf.node, np.zeros(lf.shape, np.float32))) for lf in leaves]


class TestGradPruning:
    """grad computes only the cotangents that lead to a requested leaf, with the full backward's bytes."""

    def test_sub_is_not_asked_for_the_target(self, monkeypatch):
        calls = spy_vjps(monkeypatch, ["sub"])
        tape = GradTape()
        leaf = tape.leaf(np.array([1.0, 2.0, 3.0], np.float32))
        r = nm.sub(leaf, np.zeros(3, np.float32))
        (g,) = nm.grad(nm.mean_all(nm.mul(r, r)), [leaf])
        ((_, needs, (g_leaf, g_target)),) = calls
        assert needs == (True, False)
        assert g_target is None  # no -g for the target
        assert g_leaf is not None
        assert g.data.tolist() == [np.float32(2 / 3), np.float32(4 / 3), np.float32(2.0)]

    def test_no_vjp_runs_for_a_node_that_leads_to_no_leaf(self, monkeypatch):
        calls = spy_vjps(monkeypatch, ["matmul", "silu"])
        rng = np.random.default_rng(20261203)
        tape = GradTape()
        x, c = tape.leaf(randf(3, 4, rng=rng)), tape.leaf(randf(4, 2, rng=rng))
        y = nm.add(nm.silu(nm.matmul(x, c)), tape.leaf(randf(3, 2, rng=rng)))
        nm.grad(nm.sum_all(y), [x])
        assert [(name, needs) for name, needs, _ in calls] == [("silu", (True,)), ("matmul", (True, False))]
        calls.clear()
        other = tape.leaf(randf(3, 2, rng=rng))
        nm.grad(nm.sum_all(nm.add(y, other)), [other])
        assert calls == []

    @pytest.mark.parametrize("cotangent", ["mean_all", "weighted"])
    def test_every_op_gives_the_full_backward_bytes(self, cotangent):
        # Each row's first input, equal operands one leaf.  mean_all hands every
        # op a broadcast cotangent; weighted a dense one, through a mul whose
        # other operand leads to no leaf.
        rng = np.random.default_rng(20261104)
        tape, leaves, terms = GradTape(), {}, []
        for call, _, (case, *_) in OP_CASES.values():
            arrays, params = operands_and_params(case)
            keys = [(a.shape, a.tobytes()) for a in arrays]
            leaves.update({k: tape.leaf(a) for k, a in zip(keys, arrays) if k not in leaves})
            o = call(*[leaves[k] for k in keys], *params)
            terms.append(nm.mean_all(o) if cotangent == "mean_all" else nm.sum_all(nm.mul(o, randf(*o.shape, rng=rng))))
        loss = terms[0]
        for t in terms[1:]:
            loss = nm.add(loss, t)
        for leaf in leaves.values():
            (got,) = nm.grad(loss, [leaf])
            (want,) = full_backward(loss, [leaf])
            assert got.data.dtype == want.dtype and got.data.shape == want.shape
            assert got.data.tobytes() == want.tobytes()

    # BLAS takes another path for a stride-0 operand, and with a vector
    # operand that gives other bytes; the vjps expand the cotangent first.
    @pytest.mark.parametrize("op,shapes", [
        (nm.matmul, [(1, 64), (64, 300)]),
        (nm.matmul, [(300, 64), (64, 1)]),
        (nm.conv2d, [(4, 32, 32), (1, 4, 3, 3)]),
    ])
    def test_broadcast_cotangent_into_blas_gives_the_dense_bytes(self, op, shapes):
        rng = np.random.default_rng(20261105)
        tape = GradTape()
        leaves = [tape.leaf(randf(*s, rng=rng)) for s in shapes]
        loss = nm.mean_all(op(*leaves))
        for got, want in zip(nm.grad(loss, leaves), full_backward(loss, leaves), strict=True):
            assert got.data.tobytes() == want.tobytes()


def peak_bytes(fn):
    """The most bytes that fn() held at once under tracemalloc, above what was held when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGradAllocation:
    """A guard on what one gradient step allocates."""

    def test_fit_step_peak(self):
        # encode_fit's step: mean((U V - T)^2), U 77x8, V 8x1024, the target
        # T an operand.  What grad may hold at once: mul's two halves of r's
        # cotangent and their sum, each 77x1024.  No -g for T and no dense
        # array for mean_all's cotangent.
        rng = np.random.default_rng(20261204)
        tape = GradTape()
        u, v = tape.leaf(randf(77, 8, rng=rng)), tape.leaf(randf(8, 1024, rng=rng))
        r = nm.sub(nm.matmul(u, v), randf(77, 1024, rng=rng))
        loss = nm.mean_all(nm.mul(r, r))
        peak = peak_bytes(lambda: nm.grad(loss, [u, v]))
        assert peak <= 3 * 77 * 1024 * 4 + 64 * 1024


# Forwards that allocate only their output, on the render's shapes: the op,
# its operands' shapes and its other arguments.  silu writes exp(-|x|) and
# then the result into one array, and group_norm (x - mu)**2 and then the
# result; the resample makes no copy of x and no array per tap.  What they
# keep per row or group (softmax_last's row maxima and sums, 16 KiB each)
# fits in 64 KiB.
FORWARD_ALLOCATIONS = {
    "silu": (nm.silu, [(64, 64, 64)], ()),
    "softmax_last": (nm.softmax_last, [(4096, 77)], ()),
    "resample_cubic_axis": (nm.resample_cubic_axis, [(3, 512, 64)], (8, 2)),
    "group_norm": (nm.group_norm, [(64, 64, 64), (64,), (64,)], ()),
}


class TestForwardAllocation:
    # group_norm's numpy form allocates only its output too; silu's does not
    # (_sigmoid makes two arrays).
    @pytest.mark.parametrize("op, form", [*((op, "library") for op in FORWARD_ALLOCATIONS), ("group_norm", "numpy")])
    def test_forward_allocates_the_output_alone(self, op, form, monkeypatch):
        fn, shapes, params = FORWARD_ALLOCATIONS[op]
        rng = np.random.default_rng(20261304)
        args = [*(rng.standard_normal(s).astype(np.float32) for s in shapes), *params]
        if form == "numpy":
            monkeypatch.setattr(nm, "_dll", None)
        out = fn(*args).data  # and the resample's taps are cached per (n, factor)
        assert peak_bytes(lambda: fn(*args)) <= out.nbytes + 64 * 1024


class TestSoftmaxLast:
    def test_a_row_that_holds_a_nan_runs_the_numpy_form(self):
        # numpy's row max passes on one of a row's NaNs by its lanes, not always
        # the first, so the C pass declines an x that holds a NaN.
        x = np.random.default_rng(20261023).standard_normal((6, 77)).astype(np.float32)
        clean = x.copy()
        for r in range(6):
            x[r, [r, 16 + r, 40 + 2 * r, 76 - r]] = NAN_PAYLOADS[(np.arange(4) + r) % len(NAN_PAYLOADS)]
        out = np.empty_like(x)
        for a, declined in ((clean, 0), (x, 1), (x[3:4], 1)):
            ptrs = (a.ctypes.data, out.ctypes.data)
            assert nm._dll.sub_rowmax_f32(*ptrs, *a.shape) == declined
        with np.errstate(invalid="ignore"):
            assert nm.softmax_last(x).data.tobytes() == three_array_softmax(x).tobytes()

    def test_a_row_shorter_than_one_vector_runs_the_numpy_form(self):
        x = np.random.default_rng(20261027).standard_normal((5, 16)).astype(np.float32)
        out = np.empty_like(x)
        for n, declined in ((1, 1), (15, 1), (16, 0)):
            assert nm._dll.sub_rowmax_f32(x.ctypes.data, out.ctypes.data, 5, n) == declined
        assert nm.softmax_last(x[:, :15]).data.tobytes() == three_array_softmax(x[:, :15]).tobytes()


# The last three round to an infinite float32, as the op's weights do.
NON_FINITE_ALPHAS = [np.nan, np.inf, -np.inf, 1e300, -1e300, 3.5e38]


class TestLerp:
    @pytest.mark.parametrize("alpha", NON_FINITE_ALPHAS)
    def test_a_weight_that_is_not_finite_is_rejected(self, alpha):
        # Live, with no numpy warning first, and in replay, where the record
        # holds the weights, not alpha.
        a, b = randf(3, 4), randf(3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^lerp: the weights must be finite"):
                nm.lerp(a, b, alpha)
        tape = GradTape()
        nm.lerp(tape.leaf(a), b, 0.5)
        with np.errstate(over="ignore"):
            al = np.float32(alpha)
        tape.records[-1].params.update(wa=float(np.float32(1.0) - al), wb=float(al))
        for dtype in (np.float32, np.float64):
            with pytest.raises(ValueError, match="^lerp: the weights must be finite"):
                tape.replay(dtype=dtype)


@st.composite
def flat_gathers(draw):
    """x of 1 to 3 axes, r*c indices (repeats likely, none at all possible), a 1-D or (r, c) out_shape, and weights."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3))))
    r, c = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    flat = st.integers(0, int(np.prod(shape)) - 1)
    idx = np.array(draw(st.lists(flat, min_size=r * c, max_size=r * c)), dtype=np.intp)
    out_shape = (r, c) if draw(st.booleans()) else (r * c,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return randf(*shape, rng=rng), idx, out_shape, randf(*out_shape, rng=rng)


class TestGather:
    @pytest.mark.parametrize("idx", [[-1], [12]])
    def test_take_flat_rejects_index_out_of_range(self, idx):
        with pytest.raises(IndexError, match="take_flat"):
            nm.take_flat(randf(3, 4), idx, (1,))

    @pytest.mark.parametrize("idx", [[1.7], np.array([1.0, 2.0]), [True, False], np.array([1, 2], dtype=object)])
    def test_non_integer_indices_rejected(self, idx):
        x = np.zeros((4, 3, 3), np.float32)
        with pytest.raises(IndexError, match="take_flat.*integers"):
            nm.take_flat(x, idx, (len(idx),))
        with pytest.raises(IndexError, match="take_axis.*integers"):
            nm.take_axis(x, idx, 0)

    def test_empty_list_gathers_nothing(self):
        x = np.zeros((4, 3, 3), np.float32)
        assert nm.take_flat(x, [], (0,)).shape == (0,)
        assert nm.take_axis(x, [], 0).shape == (0, 3, 3)

    def test_tape_keeps_its_own_indices(self):
        tape = GradTape()
        x = tape.leaf(np.arange(6, dtype=np.float32))
        idx = np.array([0, 1], dtype=np.intp)
        y = nm.take_flat(x, idx, (2,))
        idx[0] = 4  # the caller reuses its array
        assert tape.replay()[y.node].tolist() == [0.0, 1.0]
        (g,) = nm.grad(nm.sum_all(y), [x])
        assert g.data.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_numpy_integer_indices_accepted(self):
        x = np.arange(36, dtype=np.float32).reshape(4, 3, 3)
        for dtype in (np.int8, np.uint16, np.int64):
            idx = np.array([3, 1], dtype=dtype)
            assert nm.take_flat(x, idx, (2,)).data.tolist() == [3.0, 1.0]
            assert np.array_equal(nm.take_axis(x, idx, 0).data, x[[3, 1]])

    @given(flat_gathers())
    @settings(max_examples=60, deadline=None)
    def test_take_flat_matches_numpy(self, case):
        # Forward, gradient (repeated indices scatter-add) and float64 replay, byte for byte.
        x, idx, out_shape, w = case
        tape = GradTape()
        leaf = tape.leaf(x)
        y = nm.take_flat(leaf, idx, out_shape)
        assert y.data.tobytes() == x.reshape(-1)[idx].reshape(out_shape).tobytes()
        (g,) = nm.grad(nm.sum_all(nm.mul(y, w)), [leaf])
        want = np.zeros(x.size, np.float32)
        np.add.at(want, idx, w.reshape(-1))
        assert g.data.tobytes() == want.reshape(x.shape).tobytes()
        got = tape.replay(dtype=np.float64)[y.node]
        assert got.dtype == np.float64
        assert got.tobytes() == x.astype(np.float64).reshape(-1)[idx].reshape(out_shape).tobytes()


# A factor that is not an integer, and one that is below 1.
BAD_FACTORS = {2.5: TypeError, 2.0: TypeError, 0: ValueError, -1: ValueError, True: TypeError, "2": TypeError}

# op, its keyword arguments and its good operand's shape; then the operand or
# the keyword arguments put in their place, which the op rejects, and the error
BAD_INPUTS = {
    "softmax_last of a 0-d x": (nm.softmax_last, {}, (3, 4), np.float32(2), {}, ValueError),
    "softmax_last over an empty last axis": (nm.softmax_last, {}, (3, 4), np.ones((3, 0), np.float32), {}, ValueError),
    "rsqrt_eps at eps -2": (nm.rsqrt_eps, {}, (3, 4), None, {"eps": -2.0}, ValueError),
    "rsqrt_eps at eps 0": (nm.rsqrt_eps, {}, (3, 4), None, {"eps": 0.0}, ValueError),
    "rsqrt_eps at eps nan": (nm.rsqrt_eps, {}, (3, 4), None, {"eps": np.nan}, ValueError),
    "rsqrt_eps at eps inf": (nm.rsqrt_eps, {}, (3, 4), None, {"eps": np.inf}, ValueError),
    "rsqrt_eps at eps 1e-50": (nm.rsqrt_eps, {}, (3, 4), None, {"eps": 1e-50}, ValueError),  # 0 as a float32
    "rsqrt_eps at eps 1e39": (nm.rsqrt_eps, {}, (3, 4), None, {"eps": 1e39}, ValueError),  # inf as a float32
    "rsqrt_eps at eps 3.5e38": (nm.rsqrt_eps, {}, (3, 4), None, {"eps": 3.5e38}, ValueError),
    "mean_all of an empty x": (nm.mean_all, {}, (3, 4), np.ones((0, 4), np.float32), {}, ValueError),
    "mean_axes over axis 2 of two": (nm.mean_axes, {"axes": (1,)}, (3, 4), None, {"axes": (2,)}, IndexError),
    "mean_axes over axis -3 of two": (nm.mean_axes, {"axes": (1,)}, (3, 4), None, {"axes": (0, -3)}, IndexError),
    "mean_axes over no entries": (nm.mean_axes, {"axes": (1,)}, (3, 4), np.ones((3, 0), np.float32), {}, ValueError),
    "mean_axes over axis 1 twice": (nm.mean_axes, {"axes": (1,)}, (3, 4), None, {"axes": (1, 1)}, ValueError),
    "mean_axes over axes 1 and -1": (nm.mean_axes, {"axes": (1,)}, (3, 4), None, {"axes": (1, -1)}, ValueError),
    "take_axis along axis 5 of two": (nm.take_axis, {"idx": [0], "axis": 1}, (2, 3), None, {"axis": 5}, IndexError),
    "take_axis along axis -3 of two": (nm.take_axis, {"idx": [0], "axis": 1}, (2, 3), None, {"axis": -3}, IndexError),
}


def bad_calls():
    """Each bad input that an op rejects, by name: the public function, its arguments and keywords, error and pattern.

    The rows of BAD_INPUTS and BAD_OVERRIDES, then the shape, index, axis,
    stride, weight, factor, groups and eps cases of the ops.  The public call
    raises the error, with a message that the pattern matches, and so does
    the op's forward alone; every op that some input can fail has a row
    (TestArgumentChecks).
    """
    rng = np.random.default_rng(87)

    def r(*shape):
        return randf(*shape, lo=0.1, rng=rng)

    for case, (fn, kwargs, shape, bad_x, bad_kwargs, error) in BAD_INPUTS.items():
        x = r(*shape) if bad_x is None else bad_x
        yield case, fn, (x,), {**kwargs, **bad_kwargs}, error, f"^{fn.__name__}: "
    for op, (fn, shapes, which, bad) in BAD_OVERRIDES.items():
        operands = [r(*(bad if i == which else s)) for i, s in enumerate(shapes)]
        yield f"{op} with operand {which} of shape {bad}", fn, operands, {}, ShapeMismatchError, f"^{op}: "
    for fn in (nm.add, nm.sub, nm.mul):
        name = fn.__name__
        yield f"{name} of (3, 4) and (3,)", fn, (r(3, 4), r(3)), {}, ShapeMismatchError, f"^{name}: incompatible shapes"
    yield "matmul of (5, 4) and (3, 2)", nm.matmul, (r(5, 4), r(3, 2)), {}, ShapeMismatchError, r"\(5, 4\).*\(3, 2\)"
    for shape in [(2, 5, 4), (2, 4, 5)]:
        x, w = r(*shape), r(3, 2, 3, 3)
        yield (f"conv2d of {shape} at stride 2", nm.conv2d, (x, w), {"stride": 2}, ShapeMismatchError,
               r"conv2d\(stride\)")
    x, w = r(2, 4, 4), r(3, 2, 3, 3)
    for stride, error in [(True, TypeError), (1.0, TypeError), (2.0, TypeError), (0, ValueError), (3, ValueError)]:
        yield f"conv2d at stride {stride!r}", nm.conv2d, (x, w), {"stride": stride}, error, "^conv2d: stride must be"
    yield "reshape of 12 entries to (5, 2)", nm.reshape, (r(3, 4), (5, 2)), {}, ShapeMismatchError, "reshape"
    yield "reshape of 6 entries to (-2, -3)", nm.reshape, (r(2, 3), (-2, -3)), {}, ShapeMismatchError, "^reshape: "
    for shape in [(2.0, 3), (True, 6)]:
        yield f"reshape of 6 entries to {shape}", nm.reshape, (r(2, 3), shape), {}, TypeError, "^reshape: shape entry"
    yield "transpose2d of three axes", nm.transpose2d, (r(2, 3, 4),), {}, ShapeMismatchError, "transpose2d"
    x = r(2, 3)
    for idx in [[-1], [0, -3], [3]]:
        yield f"take_axis at {idx}", nm.take_axis, (x, idx, 1), {}, IndexError, "take_axis"
    for axis in [1.7, True]:
        yield f"take_axis along axis {axis}", nm.take_axis, (x, [0], axis), {}, TypeError, "^take_axis: axis"
    for axis in [True, 1.0]:
        yield f"mean_axes over axis {axis}", nm.mean_axes, (r(3, 4), (axis,)), {}, TypeError, "mean_axes: axis"
    for shapes in [((3, 4), (4, 3)), ((3, 4), (1, 4)), ((3, 4), (3, 4, 1))]:
        a, b = r(*shapes[0]), r(*shapes[1])
        yield f"lerp of {shapes[0]} and {shapes[1]}", nm.lerp, (a, b, 0.5), {}, ShapeMismatchError, "lerp"
    a, b = r(3, 4), r(3, 4)
    for alpha in NON_FINITE_ALPHAS:
        yield f"lerp at alpha {alpha}", nm.lerp, (a, b, alpha), {}, ValueError, "^lerp: the weights must be finite"
    x = r(4, 4, 3)
    for factor, error in BAD_FACTORS.items():
        yield (f"resample_cubic_axis by {factor!r}", nm.resample_cubic_axis, (x, factor, 0), {}, error,
               "^resample_cubic_axis: factor must be an integer")
    for axis, error in [(3, IndexError), (-4, IndexError), (1.5, TypeError), (True, TypeError)]:
        yield (f"resample_cubic_axis along axis {axis}", nm.resample_cubic_axis, (x, 2, axis), {}, error,
               "^resample_cubic_axis: axis")
    operands = r(4, 3, 3), r(4), r(4)
    for groups, error in [(0, ValueError), (-2, ValueError), (True, TypeError), (2.0, TypeError)]:
        yield f"group_norm in {groups!r} groups", nm.group_norm, operands, {"groups": groups}, error, "groups"
    for eps in [0.0, -1.0, np.inf, np.nan, 1e-50, 1e39, 3.5e38]:  # the last three round to 0 or inf as float32s
        yield f"group_norm at eps {eps}", nm.group_norm, operands, {"groups": 2, "eps": eps}, ValueError, "eps"
    for shapes in [[(4, 9), (4,), (4,)], [(1, 4, 3, 3), (4,), (4,)], [(4, 3, 3), (3,), (4,)],
                   [(4, 3, 3), (4,), (4, 1, 1)], [(6, 3, 3), (6,), (6,)]]:  # 4 groups do not divide 6 channels
        operands = [r(*s) for s in shapes]
        yield f"group_norm of {shapes}", nm.group_norm, operands, {"groups": 4}, ShapeMismatchError, "group_norm"


BAD_CALLS = {case: call for case, *call in bad_calls()}

# Operands that hold no numbers, which a cast to float32 would make NaNs, parse or cut to their real part.
NOT_NUMBERS = {"objects": np.full((3, 4), None), "strs": np.full((3, 4), "1"), "bytes": np.full((3, 4), b"1"),
               "complex numbers": np.full((3, 4), 1 + 2j)}


def bad_wrapper_calls():
    """Each bad argument that a public function, Tensor or GradTape rejects before any op, as a bad_calls() row."""
    x = np.ones((3, 4), np.float32)
    yield "mean_axes", nm.mean_axes, (x, 1), {}, TypeError, "^mean_axes: axes must be a sequence, got 1$"
    yield "reshape", nm.reshape, (x, 12), {}, TypeError, "^reshape: shape must be a sequence, got 12$"
    for fn in (nm.upsample_cubic, nm.upsample_nearest):
        name = fn.__name__
        for factor, case in [(2, name), (1, f"{name} at factor 1")]:
            yield case, fn, (x, factor), {"axes": 1}, TypeError, f"^{name}: axes must be a sequence"
        for factor, error in BAD_FACTORS.items():
            yield f"{name} by {factor!r}", fn, (x, factor), {}, error, f"^{name}: factor must be an integer"
    yield ("take_flat", nm.take_flat, (x, [1, 2], (3,)), {}, ShapeMismatchError,
           "^take_flat: 2 indices do not fill out_shape")
    operands = np.ones((4, 3, 3), np.float32), np.ones(4, np.float32), np.ones(4, np.float32)
    for bad in ["0.5", True, None, 0.5j, np.array(0.5)]:
        yield f"lerp at alpha {bad!r}", nm.lerp, (x, x, bad), {}, TypeError, "^lerp: alpha must be a real number, got "
        yield (f"rsqrt_eps at eps {bad!r}", nm.rsqrt_eps, (x, bad), {}, TypeError,
               "^rsqrt_eps: eps must be a real number, got ")
        yield (f"group_norm at eps {bad!r}", nm.group_norm, operands, {"eps": bad}, TypeError,
               "^group_norm: eps must be a real number, got ")
    tape = GradTape()
    leaf = tape.leaf(x)
    nm.add(leaf, x)
    for kind, bad in NOT_NUMBERS.items():
        rule = f"must hold bool, integer or float entries, got dtype {bad.dtype}$"
        yield f"add of {kind} and x", nm.add, (bad, x), {}, TypeError, f"^add: an operand {rule}"
        yield f"matmul of x and {kind}", nm.matmul, (x, bad.T), {}, TypeError, f"^matmul: an operand {rule}"
        yield f"a Tensor of {kind}", Tensor, (bad,), {}, TypeError, f"^Tensor: data {rule}"
        yield f"a tape leaf of {kind}", GradTape().leaf, (bad,), {}, TypeError, f"^GradTape.leaf: data {rule}"
        yield (f"replay with an override of {kind}", tape.replay, ({leaf.node: bad},), {}, TypeError,
               f"^replay: an override {rule}")
    yield "add of x and a list of strs", nm.add, (x, [["1", "2", "3", "4"]]), {}, TypeError, "^add: an operand must"


BAD_WRAPPER_CALLS = {case: call for case, *call in bad_wrapper_calls()}

# Operands that hold numbers, by kind: each converts to float32 as numpy casts it.
CONVERTED = {t.__name__: np.arange(-3, 9).reshape(3, 4).astype(t)
             for t in (bool, np.int8, np.uint16, np.int64, np.float16, np.float64)}
CONVERTED["float64 past the float32 range"] = np.array([[1e39, -1e39, 0.5], [2.0, -3.0, 1e38]])


def ops_reached(fn, args, kwargs):
    """The error that fn(*args, **kwargs) raises, and each (op, arrays, params) that _Op.__call__ got first."""
    calls, call = [], nm._Op.__call__

    def recorded(op, arrays, params):
        calls.append((op, arrays, params))
        return call(op, arrays, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nm._Op, "__call__", recorded)
        with pytest.raises(Exception) as raised:
            fn(*args, **kwargs)
    return raised.value, calls


class TestArgumentChecks:
    def test_every_op_that_can_fail_has_a_bad_call(self):
        # No input can fail neg, silu, sum_all or clip01.
        names = {op: name for name, op in nm._OPS.items()}
        reached = {names[op] for fn, args, kwargs, *_ in BAD_CALLS.values()
                   for op, *_ in ops_reached(fn, args, kwargs)[1]}
        assert reached == set(nm._OPS) - {"neg", "silu", "sum_all", "clip01"}

    @pytest.mark.parametrize("case", list(BAD_CALLS))
    def test_a_public_call_rejects_bad_input(self, case):
        # In the op's words, with no numpy warning first.
        fn, args, kwargs, error, pattern = BAD_CALLS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=pattern):
                fn(*args, **kwargs)

    @pytest.mark.parametrize("case", list(BAD_CALLS))
    def test_a_forward_rejects_bad_input_by_itself(self, case):
        # The public call fails in its op; the op's forward alone, given the
        # same operands and params, raises the same error.
        fn, args, kwargs, *_ = BAD_CALLS[case]
        public, ((op, arrays, params),) = ops_reached(fn, args, kwargs)
        with pytest.raises(Exception) as alone:
            op.forward(arrays, params)
        assert type(alone.value) is type(public) and str(alone.value) == str(public)

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_replay_rejects_bad_input_in_the_ops_own_words(self, case):
        fn, kwargs, shape, bad_x, bad_kwargs, error = BAD_INPUTS[case]
        rng = np.random.default_rng(85)
        x = randf(*shape, lo=0.1, rng=rng) if bad_x is None else bad_x
        tape = GradTape()
        leaf = tape.leaf(randf(*shape, lo=0.1, rng=rng))
        fn(leaf, **kwargs)
        tape.records[-1].params.update(bad_kwargs)  # as if the op had been recorded with them
        with pytest.raises(error, match=f"^{fn.__name__}: "):
            tape.replay({leaf.node: x})

    @pytest.mark.parametrize("case", list(BAD_WRAPPER_CALLS))
    def test_a_wrapper_rejects_a_bad_argument_before_any_op(self, case):
        # These checks sit in the public function, not an op, so no bad_calls()
        # row can hold them; with no numpy warning first, as there.
        fn, args, kwargs, error, pattern = BAD_WRAPPER_CALLS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raised, calls = ops_reached(fn, args, kwargs)
        assert type(raised) is error and re.search(pattern, str(raised)) and not calls

    @pytest.mark.filterwarnings("error")  # an entry past the float32 range becomes an infinity with no warning
    @pytest.mark.parametrize("kind", list(CONVERTED))
    def test_bool_integer_and_float_operands_convert_to_float32(self, kind):
        x = CONVERTED[kind]
        with np.errstate(over="ignore"):
            want = x.astype(np.float32).tobytes()
        tape = GradTape()
        leaf = tape.leaf(x)
        assert nm.add(x, np.float32(0)).data.tobytes() == Tensor(x).data.tobytes() == want
        assert leaf.data.tobytes() == nm.mul(x.tolist(), 1).data.tobytes() == want
        assert tape.replay({leaf.node: x})[leaf.node].tobytes() == want


class TestResampling:
    @pytest.mark.parametrize("upsample, op", [(nm.upsample_nearest, "upsample_nearest"),
                                              (nm.upsample_cubic, "resample_cubic_axis")])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_a_bad_axis_is_named(self, upsample, op, factor):
        x = randf(2, 3)
        with pytest.raises(IndexError, match=f"^{op}: axis 5 out of range for 2 dimensions$"):
            upsample(x, factor, axes=(5,))
        for axis in (1.5, True):
            with pytest.raises(TypeError, match=f"^{op}: axis must be an integer"):
                upsample(x, factor, axes=(axis,))

    def test_factor_one_identity(self):
        img = randf(9, 7, 3)
        out = nm.upsample_cubic(img, 1)
        assert out is img

    def test_constant_preserved(self):
        img = np.full((6, 5, 3), 0.37, dtype=np.float32)
        out = nm.upsample_cubic(img, 4).data
        assert out.shape == (24, 20, 3)
        assert np.abs(out - 0.37).max() < 1e-5

    def test_linear_ramp_preserved_interior(self):
        # Catmull-Rom reproduces degree-1 polynomials wherever the 4-tap
        # support stays clear of the clamped border.
        n, f = 16, 4
        ramp = np.tile(np.linspace(0.0, 1.0, n, dtype=np.float32)[:, None], (1, n))
        img = ramp[:, :, None].repeat(3, axis=2)
        out = nm.upsample_cubic(img, f).data
        i = np.arange(n * f)
        s = (i + 0.5) / f - 0.5
        interior = (np.floor(s) >= 1) & (np.floor(s) + 2 <= n - 1)
        want = (s / (n - 1)).astype(np.float64)
        got = out[:, :, 0].mean(axis=1)  # rows constant along x by construction
        sel = interior
        assert np.abs(got[sel] - (np.interp(s[sel], np.arange(n), ramp[:, 0]))).max() < 2e-6
        # and the exact polynomial value, not just sample interpolation
        assert np.abs(got[sel] - want[sel]).max() < 2e-6

    def test_nearest_upsample(self):
        img = randf(3, 4, 3)
        out = nm.upsample_nearest(img, 2).data
        assert out.shape == (6, 8, 3)
        assert np.array_equal(out[::2, ::2], img)
        assert np.array_equal(out[1::2, 1::2], img)


class TestFiniteness:
    def test_ops_stay_finite(self):
        x = randf(4, 8, 8, lo=-50, hi=50)
        assert np.isfinite(nm.silu(x).data).all()
        assert np.isfinite(nm.softmax_last(x.reshape(4, 64)).data).all()
        g = nm.group_norm(np.zeros((4, 4, 4), np.float32), np.ones(4, np.float32),
                          np.zeros(4, np.float32), groups=4)
        assert np.isfinite(g.data).all()


def silu_vjp_reference(x, g):
    sg = two_branch_sigmoid(x)
    return g * (sg * (1.0 + x * (1.0 - sg)))


class TestSilu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bytes_equal_two_branch_formula(self, dtype):
        for x in silu_inputs(dtype):
            with np.errstate(invalid="ignore"):
                assert nm._sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()

    def test_silu_of_an_infinity(self):
        # What equal bytes cannot show: silu(-inf) is -inf * 0, a NaN, and silu(inf) is inf.
        out = nm.silu(np.array(SILU_SPECIAL, np.float32)).data
        assert np.isnan(out[SILU_SPECIAL.index(-np.inf)]) and out[SILU_SPECIAL.index(np.inf)] == np.inf

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vjp_bytes(self, dtype):
        rng = np.random.default_rng(20261020)
        for x in silu_inputs(dtype):
            g = rng.standard_normal(x.shape).astype(dtype)
            with np.errstate(invalid="ignore"):
                (got,) = nm._OPS["silu"].vjp([x], {}, None, g, (True,))
                want = silu_vjp_reference(x, g)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_nan_payloads_keep_numpy_bytes(self):
        # numpy's x * sigmoid passes on x's NaN or the sigmoid's 0x7fc00000 by
        # the lane x sits in, so an x that holds a NaN runs the numpy form.
        x = np.random.default_rng(20261024).standard_normal(50).astype(np.float32)
        x[[0, 15, 16, 31, 33, 49]] = NAN_PAYLOADS[1:]
        with np.errstate(invalid="ignore"):
            assert nm.silu(x).data.tobytes() == (x * two_branch_sigmoid(x)).tobytes()


def composite_resample(x, factor, axis):
    """The former upsample_cubic axis step: 4 take_axis, 4 mul and 3 add records."""
    n = x.shape[axis]
    idx, w = nm._catmull_rom_taps(n, factor)
    bshape = [1] * len(x.shape)
    bshape[axis] = n * factor
    terms = [nm.mul(nm.take_axis(x, idx[k], axis), w[k].reshape(bshape)) for k in range(4)]
    return nm.add(nm.add(terms[0], terms[1]), nm.add(terms[2], terms[3]))


RESAMPLE_IDS = [f"{'x'.join(map(str, s))}-f{f}-axis{a}" for s, f, a in RESAMPLE_CASES]


def resample_grads(resample, x, r):
    tape = GradTape()
    leaf = tape.leaf(x)
    loss = nm.sum_all(nm.mul(resample(leaf), r))
    return nm.grad(loss, [leaf])[0].data


class TestResampleCubicAxis:
    # Every test seeds its own generator: a draw from the shared RNG would
    # change the input of test_upsample_cubic_grad.

    @pytest.mark.parametrize("shape, factor, axis", RESAMPLE_CASES, ids=RESAMPLE_IDS)
    def test_vjp_bytes_equal_composite_grad(self, shape, factor, axis):
        rng = np.random.default_rng(20261023)
        x = rng.uniform(-1.0, 1.0, shape).astype(np.float32)
        out_shape = list(shape)
        out_shape[axis] *= factor
        r = rng.standard_normal(out_shape).astype(np.float32)
        got = resample_grads(lambda t: nm.resample_cubic_axis(t, factor, axis), x, r)
        want = resample_grads(lambda t: composite_resample(t, factor, axis), x, r)
        assert got.tobytes() == want.tobytes()

    def test_upsample_is_one_op_per_axis_with_the_composite_bytes(self):
        rng = np.random.default_rng(20261024)
        x = rng.uniform(-1.0, 1.0, (4, 4, 3)).astype(np.float32)
        r = rng.standard_normal((8, 8, 3)).astype(np.float32)
        tape = GradTape()
        out = nm.upsample_cubic(tape.leaf(x), 2)
        assert [rec.op for rec in tape.records] == ["resample_cubic_axis"] * 2
        want = composite_resample(composite_resample(x, 2, 0), 2, 1)
        assert out.data.tobytes() == want.data.tobytes()
        got = resample_grads(lambda t: nm.upsample_cubic(t, 2), x, r)
        want = resample_grads(lambda t: composite_resample(composite_resample(t, 2, 0), 2, 1), x, r)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, factor, axis", [((4, 5, 3), 2, 0), ((3, 4), 3, 1), ((2, 3, 4), 2, -1)])
    def test_fd_match(self, shape, factor, axis):
        rng = np.random.default_rng(20261026)
        x = rng.uniform(-1.0, 1.0, shape).astype(np.float32)
        tape = GradTape()
        leaf = tape.leaf(x)
        out = nm.resample_cubic_axis(leaf, factor, axis)
        r = tape.leaf(rng.standard_normal(out.shape).astype(np.float32))
        check_grad(nm.sum_all(nm.mul(out, r)), [leaf], tol=1e-4)

    def test_numpy_integer_factor_accepted(self):
        x = np.ones((2, 3), np.float32)
        assert nm.upsample_cubic(x, np.int64(2)).shape == (4, 6)
        assert nm.upsample_nearest(x, np.int64(2)).shape == (4, 6)
        assert nm.upsample_nearest(x, np.int64(1)) is x


class TestResampleMemory:
    """What the resample op keeps."""

    def test_cached_taps_are_read_only(self):
        # Every resample of the same n and factor reads these two arrays.
        idx, w = nm._catmull_rom_taps(4, 2)
        for taps in (idx, w):
            with pytest.raises(ValueError, match="read-only"):
                taps[0, 0] = 9


def composite_group_norm(x, gamma, beta, groups=4, eps=1e-5):
    """The former group_norm: 12 reshape, mean_axes, sub, mul, rsqrt_eps and add records."""
    c, h, w = x.shape
    xg = nm.reshape(x, (groups, (c // groups) * h * w))
    mu = nm.mean_axes(xg, (1,))
    cen = nm.sub(xg, mu)
    var = nm.mean_axes(nm.mul(cen, cen), (1,))
    y = nm.mul(cen, nm.rsqrt_eps(var, eps))
    y = nm.reshape(y, (c, h, w))
    return nm.add(nm.mul(y, nm.reshape(gamma, (c, 1, 1))), nm.reshape(beta, (c, 1, 1)))


@st.composite
def group_norm_operands(draw):
    """x, gamma, beta and groups: C = groups * (channels per group), x scaled by 0.01..10.

    At least one group of x holds a single drawn value: its variance is 0.
    """
    groups, per = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    c, h, w = groups * per, draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = (rng.standard_normal((c, h, w)) * 10 ** rng.uniform(-2, 1)).astype(np.float32)
    for k in draw(st.sets(st.integers(0, groups - 1), min_size=1)):
        x[k * per:(k + 1) * per] = draw(st.floats(-10, 10, width=32))
    gamma = (1.0 + rng.standard_normal(c)).astype(np.float32)
    return x, gamma, rng.standard_normal(c).astype(np.float32), groups


@st.composite
def group_norm_grad_operands(draw):
    """x, gamma, beta, groups and a cotangent r; x scaled by 0.01..10, each group 18 entries or more.

    In a group of two entries the x gradient is nearly 0, and both forms
    give rounding noise, which no bound relative to it can hold.
    """
    shape = draw(st.sampled_from([(8, 3, 3), (64, 8, 8), (12, 5, 7)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = (rng.uniform(-1.0, 1.0, shape) * 10 ** rng.uniform(-2, 1)).astype(np.float32)
    gamma, beta = rng.uniform(-1.0, 1.0, (2, shape[0])).astype(np.float32)
    r = rng.standard_normal(shape).astype(np.float32)
    return x, gamma, beta, draw(st.sampled_from([1, 2, 4])), r


def group_norm_grads(norm, x, gamma, beta, groups, r, which=(0, 1, 2)):
    """norm's gradients of sum(norm(x, gamma, beta) * r) for the operands numbered in which."""
    tape = GradTape()
    xs = [tape.leaf(a) for a in (x, gamma, beta)]
    loss = nm.sum_all(nm.mul(norm(*xs, groups=groups), r))
    return [g.data for g in nm.grad(loss, [xs[i] for i in which])]


class TestGroupNorm:
    """group_norm as one op: the composite's forward bytes and a closed-form vjp."""

    @given(group_norm_operands())
    @settings(max_examples=60, deadline=None)
    def test_forward_bytes_equal_the_composite(self, xgbg):
        assert_reference_bytes("group_norm", xgbg)

    @given(group_norm_grad_operands())
    @settings(max_examples=40, deadline=None)
    def test_vjp_matches_the_composite_gradient(self, xgbgr):
        got = group_norm_grads(nm.group_norm, *xgbgr)
        want = group_norm_grads(composite_group_norm, *xgbgr)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and np.abs(a - b).max() <= 1e-5 * np.abs(b).max()

    def test_gamma_alone_gets_the_gradient_all_three_get(self, monkeypatch):
        rng = np.random.default_rng(20261303)
        x, gamma, beta = randf(8, 3, 3, rng=rng), randf(8, rng=rng), randf(8, rng=rng)
        r = randf(8, 3, 3, rng=rng)
        full = group_norm_grads(nm.group_norm, x, gamma, beta, 4, r)
        calls = spy_vjps(monkeypatch, ["group_norm"])
        (alone,) = group_norm_grads(nm.group_norm, x, gamma, beta, 4, r, which=(1,))
        assert alone.tobytes() == full[1].tobytes()
        ((_, needs, (dx, _, dbeta)),) = calls
        assert needs == (False, True, False) and dx is None and dbeta is None

    def test_nan_operands_keep_numpy_bytes(self):
        # Two NaNs meet in (x - mu) * r where a group of x holds NaNs of several
        # payloads, and in the product with a NaN gamma, or the sum with a NaN
        # beta, where an inf in x makes its group NaN.  numpy passes on one or
        # the other by where the pair sits in its vectors, and only a few
        # entries of a draw sit where that differs from a fixed rule, so the
        # test makes many small draws.
        rng = np.random.default_rng(20261305)
        for trial in range(300):
            x = rng.standard_normal((8, rng.integers(1, 9), rng.integers(1, 40))).astype(np.float32)
            gamma, beta = rng.standard_normal((2, 8)).astype(np.float32)
            mask = rng.random(x.shape) < 0.05
            if trial % 3 == 0:
                x[mask] = rng.choice(NAN_PAYLOADS, int(mask.sum()))
            else:
                x[mask] = np.inf
                (gamma if trial % 3 == 1 else beta)[rng.random(8) < 0.3] = rng.choice(NAN_PAYLOADS)
            assert_numpy_form_bytes(nm.group_norm, x, gamma, beta, 2)

    @pytest.mark.parametrize("nan_in", [None, 0, 1, 2], ids=["finite", "nan-x", "nan-gamma", "nan-beta"])
    def test_one_kernel_call_is_the_one_decline_point(self, nan_in, monkeypatch):
        # group_norm_f32 runs, or declines for a NaN in x (through mu), gamma
        # or beta; no other entry point runs, and no C output is discarded.
        rng = np.random.default_rng(20261306)
        operands = [randf(8, 4, 5, rng=rng), randf(8, rng=rng), randf(8, rng=rng)]
        if nan_in is not None:
            operands[nan_in].reshape(-1)[3] = np.nan
        calls, kernel = [], nm._strict_kernel

        def spy(entry, *args):
            out = kernel(entry, *args)
            calls.append((entry, out is not None))
            return out

        monkeypatch.setattr(nm, "_strict_kernel", spy)
        assert_numpy_form_bytes(nm.group_norm, *operands, 2)
        assert calls == [("group_norm_f32", nan_in is None), ("group_norm_f32", False)]
