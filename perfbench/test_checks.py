"""Each output check passes the program's real output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from promptstream import numerics as nm  # noqa: E402
from promptstream import prompt_codec as pc  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

F32, F64 = np.float32, np.float64


def bump(x):
    """x with one entry moved up by one float32 step."""
    y = np.array(x, dtype=F32)
    y[0, 0] = np.nextafter(y[0, 0], F32(np.inf))
    return y


@pytest.fixture
def group():
    rng = np.random.default_rng(7)
    a = pc.LowRankPrompt(*workloads._factors(rng, 8, d=64))
    b = pc.LowRankPrompt(*workloads._factors(rng, 8, d=64))
    return pc.PromptGroup(a, b, workloads.GROUP_LEN)


def refs(p):
    u, v = np.asarray(p.U, F64), np.asarray(p.V, F64)
    return u @ v, np.abs(u) @ np.abs(v)


def test_endpoint_frame(group):
    last = workloads.GROUP_LEN - 1
    for i, kf in ((0, group.keyframe_a), (last, group.keyframe_b)):
        frame = pc.interpolate(group, i)
        checks.endpoint_frame(frame, kf.U, kf.V)
        with pytest.raises(checks.CheckFailed):
            checks.endpoint_frame(bump(frame), kf.U, kf.V)
        with pytest.raises(checks.CheckFailed):
            checks.endpoint_frame(frame.astype(F64), kf.U, kf.V)


def test_interior_frame(group):
    (a64, abs_a), (b64, abs_b) = refs(group.keyframe_a), refs(group.keyframe_b)
    for i in range(workloads.GROUP_LEN):
        alpha = float(F32(i) / F32(workloads.GROUP_LEN - 1))
        frame = pc.interpolate(group, i)
        checks.interior_frame(frame, alpha, a64, b64, abs_a, abs_b, 8)
    bad = frame.copy()
    bad[3, 5] *= F32(1 + 1e-5)  # about 170 float32 steps
    with pytest.raises(checks.CheckFailed):
        checks.interior_frame(bad, alpha, a64, b64, abs_a, abs_b, 8)
    with pytest.raises(checks.CheckFailed):  # the frame of the wrong alpha
        checks.interior_frame(pc.interpolate(group, 10), alpha, a64, b64, abs_a, abs_b, 8)


def test_dequantized_and_code_bits():
    rng = np.random.default_rng(3)
    u, v = workloads._factors(rng, 16)
    qu, qv = pc.quantize(u, 12), pc.quantize(v, 12)
    lu = pc.dequantize(qu)
    checks.dequantized(lu, u, qu.scale)
    np.testing.assert_array_equal(checks.levels_of(qu.codes, 12, qu.scale, qu.shape), lu)
    off = lu.copy()
    off[0, 0] += qu.scale  # one code away
    with pytest.raises(checks.CheckFailed):
        checks.dequantized(off, u, qu.scale)
    counts = (qu.codes.size, qv.codes.size)
    est = pc.bitrate_estimate(1024, 16, 12, 1)
    assert checks.code_bits(counts, 12, 16, 1024, est) == (77 + 1024) * 16 * 12
    with pytest.raises(checks.CheckFailed):
        checks.code_bits((qu.codes.size - 1, qv.codes.size), 12, 16, 1024, est)
    with pytest.raises(checks.CheckFailed):
        checks.code_bits(counts, 12, 16, 1024, est + 1)
    checks.codes_in_range(qu.codes, 12)
    with pytest.raises(checks.CheckFailed):
        checks.codes_in_range(np.append(qu.codes, 1 << 12), 12)


def test_render_image():
    w = workloads.RenderFrame(seed=5)
    kfs = [workloads.receive(w._keyframe(k)) for k in (0, 1)]
    p = pc.interpolate(pc.PromptGroup(*kfs, workloads.GROUP_LEN), 7)
    latent = w.latents[0]
    img = workloads.render_block(p, latent, w.weights)
    ref = checks.render_reference(p, latent, w.weights, workloads.UPSAMPLE)
    assert 0.01 < float(((ref < 0) | (ref > 1)).mean()) < 0.5, "the clip must matter"
    checks.render_image(img, ref)
    inside = tuple(int(i) for i in np.argwhere((ref > 0.1) & (ref < 0.9))[0])
    bad = img.copy()
    bad[inside] += F32(2 * checks.PIXEL_TOL)
    with pytest.raises(checks.CheckFailed):
        checks.render_image(bad, ref)
    bad = img.copy()
    bad[inside] = F32(1.01)
    with pytest.raises(checks.CheckFailed):
        checks.render_image(bad, ref)


def test_fit_gradient_and_residual():
    rng = np.random.default_rng(11)
    u, v = workloads._factors(rng, 4, d=32)
    target = (u @ v + 0.1 * rng.standard_normal((77, 32))).astype(F32)
    tape = nm.GradTape()
    uu, vv = tape.leaf(u), tape.leaf(v)
    r = nm.sub(nm.matmul(uu, vv), target)
    g_u, g_v = nm.grad(nm.mean_all(nm.mul(r, r)), [uu, vv])
    checks.fit_gradient(g_u.data, g_v.data, u, v, target)
    with pytest.raises(checks.CheckFailed):
        checks.fit_gradient(g_u.data * F32(1 + 1e-3), g_v.data, u, v, target)
    with pytest.raises(checks.CheckFailed):
        checks.fit_gradient(g_u.data, -g_v.data, u, v, target)
    checks.fit_residual(1.0, checks.RESIDUAL_FRACTION)
    with pytest.raises(checks.CheckFailed):
        checks.fit_residual(1.0, 1.01 * checks.RESIDUAL_FRACTION)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_check_rejects_corrupted_output(name):
    """The first operation of each workload passes its check, and fails it once corrupted."""
    w = workloads.WORKLOADS[name](seed=2)
    rounds = w.round(0)
    op, check = next(rounds)
    out = op()
    check(out)
    if name == "decode_gop30":
        bad = bump(out)
    elif name == "render_frame":
        bad = (bump(out[0]), out[1])
    else:
        start, grads, final, codes = out
        bad = (start, (grads[0] * F32(1.01), grads[1]), final, codes)
    with pytest.raises(checks.CheckFailed):
        check(bad)


def test_layer_metrics_self_time():
    # item 0 (100 ns) holds interpolate (80 ns), which holds compose (50 ns) and lerp (20 ns),
    # which holds add (5 ns).
    spans = [
        ("item", 0, 100, -1, 0, 0, 0),
        ("prompt_codec.interpolate", 10, 90, 0, 0, 0, 0),
        ("prompt_codec.compose", 12, 62, 1, 0, 0, 0),
        ("numerics.matmul", 13, 61, 2, 0, 480, 0),
        ("numerics.lerp", 65, 85, 1, 0, 0, 0),
        ("numerics.add", 70, 75, 4, 0, 0, 0),
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans).items()}
    assert m["prompt_codec.interpolate.self_ms_per_item"] == pytest.approx(30e-6)
    assert m["prompt_codec.compose.calls_per_item"] == 1
    assert m["numerics.matmul.gflop_per_s"] == pytest.approx(10.0)
    assert m["numerics.matmul.item_share"] == pytest.approx(0.48)
    assert m["numerics.elementwise.us_per_call"] == pytest.approx(5e-3)
    assert m["numerics.ops_per_item"] == 2


def test_failed_operations_count_and_are_not_timed():
    def wrong(out):
        raise checks.CheckFailed("wrong output")

    def raises():
        raise ValueError("raised")

    class Stub:
        def round(self, k):
            yield (lambda: 1), (lambda out: None)
            yield (lambda: 1), wrong
            yield raises, (lambda out: None)

    phase = run.Phase(run.Reference())
    run.run_round(Stub(), 0, phase)
    assert (phase.attempted, phase.failed, len(phase.times_ns)) == (3, 2, 1)


def test_times_are_scaled_by_the_reference_around_them():
    ref_ns = [run.REF_US * 1e3] * 30 + [4 * run.REF_US * 1e3] * 30
    scaled = run.scaled([10.0] * 60, ref_ns, 1.0)
    assert scaled[0] == 10.0 and scaled[-1] == 2.5
    assert run.scaled([10.0] * 60, ref_ns, 0.5)[-1] == 5.0
    # one slow reference sample among steady ones does not move its neighbours
    ref_ns[5] *= 10
    assert run.scaled([10.0] * 60, ref_ns, 1.0)[5] == 10.0
