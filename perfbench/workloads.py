"""The three workloads: inputs made from a seed, operations, and their checks.

Each workload yields, round by round, (op, check) pairs.  op() is the timed
call into promptstream; check(out) runs after the clock stops and raises
checks.CheckFailed when the output is wrong.  Inputs for a round are made
from (seed, round) between operations, outside the timed region, so the same
seed gives the same inputs however fast the program runs.

Every call into the program goes through a module attribute (pc.interpolate,
nm.matmul, ...), so the traced run can wrap them.

HOST_SENSITIVITY is how strongly a workload's operation times follow the
host's speed as run.Reference measures it: the slope of log operation time
on log reference time, over 5 s windows (10 s on render) of a 150 s loop
(200 s on render) on the machine of the README's figures.
"""

from __future__ import annotations

import numpy as np

from promptstream import numerics as nm
from promptstream import prompt_codec as pc

import checks

F32 = np.float32
F64 = np.float64
D = 1024            # prompt width
Q = 12              # code width on the wire
GROUP_LEN = 30      # frames per group, both keyframes included
KEYFRAMES_PER_S = 1  # one keyframe per second of 30 fps video

# seed streams, so that the workloads never share a random sequence
_DECODE, _RENDER_WEIGHTS, _RENDER_KEYFRAMES, _ENCODE = range(4)


def _factors(rng, rank, d=D):
    """Gaussian factors scaled so that U @ V has entries of about unit variance."""
    s = rank ** -0.25
    u = (rng.standard_normal((checks.TOKENS, rank)) * s).astype(F32)
    v = (rng.standard_normal((rank, d)) * s).astype(F32)
    return u, v


class Keyframe:
    """One keyframe as it goes on the wire, with the sender's factors for the checks."""

    def __init__(self, u, v):
        self.u, self.v = u, v
        self.rank = u.shape[1]
        self.qu = pc.quantize(u, Q)
        self.qv = pc.quantize(v, Q)
        self.src64 = u.astype(F64) @ v.astype(F64)  # the sender's unquantized prompt
        self.ref64 = self.abs64 = None               # set by PromptChecks on arrival


def receive(kf):
    """The receiver's side of one keyframe: dequantized factors as a prompt."""
    return pc.LowRankPrompt(pc.dequantize(kf.qu), pc.dequantize(kf.qv))


class Chain:
    """Groups over a run of keyframes; adjacent groups share one prompt object.

    A frame's operation dequantizes every keyframe that frame is first to
    need.  Nothing here caches composed keyframes, so a cache inside the
    codec can show.
    """

    def __init__(self, keyframes, first_prompt=None):
        self.keyframes = keyframes
        self.prompts = {} if first_prompt is None else {0: first_prompt}
        self.group = None
        self.arrived = []  # indices received by the latest frame

    def frame(self, g, i):
        self.arrived = []
        if i == 0:
            for j in (g, g + 1):
                if j not in self.prompts:
                    self.prompts[j] = receive(self.keyframes[j])
                    self.arrived.append(j)
            self.group = pc.PromptGroup(self.prompts[g], self.prompts[g + 1], GROUP_LEN)
        return pc.interpolate(self.group, i)


class PromptChecks:
    """Checks of delivered prompt frames, with the totals behind the codec metrics."""

    def __init__(self):
        self.sq_err = 0.0
        self.entries = 0
        self.bits = 0
        self.keyframes = 0

    def arrived(self, kf, prompt):
        for levels, source, qm in ((prompt.U, kf.u, kf.qu), (prompt.V, kf.v, kf.qv)):
            checks.dequantized(levels, source, qm.scale)
        counts = (kf.qu.codes.size, kf.qv.codes.size)
        self.bits += checks.code_bits(counts, Q, kf.rank, D, pc.bitrate_estimate(D, kf.rank, Q, KEYFRAMES_PER_S))
        self.keyframes += 1
        u, v = np.asarray(prompt.U, dtype=F64), np.asarray(prompt.V, dtype=F64)
        kf.ref64 = u @ v
        kf.abs64 = np.abs(u) @ np.abs(v)

    def frame(self, frame, chain, g, i):
        for j in chain.arrived:
            self.arrived(chain.keyframes[j], chain.prompts[j])
        a, b = chain.keyframes[g], chain.keyframes[g + 1]
        if i == 0:
            checks.endpoint_frame(frame, chain.prompts[g].U, chain.prompts[g].V)
        elif i == GROUP_LEN - 1:
            checks.endpoint_frame(frame, chain.prompts[g + 1].U, chain.prompts[g + 1].V)
        alpha = float(F32(i) / F32(GROUP_LEN - 1))
        checks.interior_frame(frame, alpha, a.ref64, b.ref64, a.abs64, b.abs64, a.rank)
        err = np.asarray(frame, dtype=F64) - ((1.0 - alpha) * a.src64 + alpha * b.src64)
        self.sq_err += float(np.vdot(err, err))
        self.entries += err.size

    def metrics(self):
        return {
            "wire_bits_per_s": self.bits / max(self.keyframes, 1) * KEYFRAMES_PER_S,
            "prompt_rmse": (self.sq_err / max(self.entries, 1)) ** 0.5,
        }


class DecodeGop30:
    """The receiver's prompt path: quantized keyframes in, one prompt per frame out.

    A round holds one segment per rank in RANKS; a segment is
    GROUPS_PER_SEGMENT groups over fresh keyframes, the inner ones shared.
    A rank switch starts a new keyframe, because PromptGroup needs equal ranks.
    """

    name = "decode_gop30"
    RANKS = (1, 8, 16)
    GROUPS_PER_SEGMENT = 2
    PEAK_OPS = None  # the peak memory pass runs a whole round, so every rank
    HOST_SENSITIVITY = 0.85  # see run.Reference

    def __init__(self, seed):
        self.seed = seed
        self.prompt_checks = PromptChecks()

    def round(self, k):
        rng = np.random.default_rng([self.seed, _DECODE, k])
        for rank in self.RANKS:
            chain = Chain([Keyframe(*_factors(rng, rank)) for _ in range(self.GROUPS_PER_SEGMENT + 1)])
            for g in range(self.GROUPS_PER_SEGMENT):
                for i in range(GROUP_LEN):
                    yield (lambda: chain.frame(g, i)), (lambda out: self.prompt_checks.frame(out, chain, g, i))

    def metrics(self):
        return self.prompt_checks.metrics()


# The latent the block attends from: channels, height, width.  64 channels at
# 64x64 is the conv2d shape of ROADMAP item 4 (85 ms per strict conv there);
# 64x64 is also Stable Diffusion's latent for a 512x512 image.
LATENT = (64, 64, 64)
D_K = 320               # cross-attention width
UPSAMPLE = 8            # latent 64x64 -> image 512x512
RENDER_RANK = 8


def render_weights(rng):
    c = LATENT[0]

    def normal(shape, fan_in):
        return (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(F32)

    def affine():
        return (1.0 + 0.1 * rng.standard_normal(c)).astype(F32), (0.1 * rng.standard_normal(c)).astype(F32)

    w = {"wk": normal((D, D_K), D), "wv": normal((D, D_K), D), "wq": normal((c, D_K), c),
         "wo": normal((D_K, c), D_K), "c1": normal((c, c, 3, 3), 9 * c), "c2": normal((c, c, 3, 3), 9 * c),
         "cout": normal((3, c, 3, 3), 9 * c)}
    for i in (1, 2, 3):
        w[f"g{i}"], w[f"b{i}"] = affine()
    return w


def render_block(prompt, latent, w):
    """A fixed denoiser-like block from public numerics ops: prompt, latent -> image."""
    c, h, wd = latent.shape
    k = nm.matmul(prompt, w["wk"])
    v = nm.matmul(prompt, w["wv"])
    q = nm.matmul(nm.transpose2d(nm.reshape(latent, (c, h * wd))), w["wq"])
    s = nm.mul(nm.matmul(q, nm.transpose2d(k)), F32(k.shape[1] ** -0.5))
    o = nm.matmul(nm.matmul(nm.softmax_last(s), v), w["wo"])
    x = nm.add(latent, nm.reshape(nm.transpose2d(o), (c, h, wd)))
    y = nm.conv2d(nm.silu(nm.group_norm(x, w["g1"], w["b1"])), w["c1"])
    y = nm.conv2d(nm.silu(nm.group_norm(y, w["g2"], w["b2"])), w["c2"])
    x = nm.add(x, y)
    img = nm.conv2d(nm.silu(nm.group_norm(x, w["g3"], w["b3"])), w["cout"])
    img = nm.upsample_cubic(img, UPSAMPLE, axes=(1, 2))
    return nm.clip01(nm.add(img, F32(0.5))).data


class RenderFrame:
    """Each frame's prompt feeds a fixed block: K/V projection, attention, convs, upsampling.

    A round is one group of a rank-8 keyframe chain that runs across rounds,
    so a round's first keyframe is the prompt object the previous round
    ended on.
    """

    name = "render_frame"
    LATENTS = 4
    PEAK_OPS = 1  # every frame has the same shapes; the first also dequantizes
    HOST_SENSITIVITY = 0.45  # mostly memory traffic, which the host's wandering slows less

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng([seed, _RENDER_WEIGHTS])
        self.weights = render_weights(rng)
        self.latents = [rng.standard_normal(LATENT).astype(F32) for _ in range(self.LATENTS)]
        self.prompt_checks = PromptChecks()
        self._carry = (self._keyframe(0), None)

    def _keyframe(self, k):
        return Keyframe(*_factors(np.random.default_rng([self.seed, _RENDER_KEYFRAMES, k]), RENDER_RANK))

    def round(self, k):
        first, prompt = self._carry
        chain = Chain([first, self._keyframe(k + 1)], prompt)
        for i in range(GROUP_LEN):
            latent = self.latents[i % self.LATENTS]

            def op():
                p = chain.frame(0, i)
                return p, render_block(p, latent, self.weights)

            def check(out):
                p, img = out
                self.prompt_checks.frame(p, chain, 0, i)
                checks.render_image(img, checks.render_reference(p, latent, self.weights, UPSAMPLE))

            yield op, check
        self._carry = (chain.keyframes[1], chain.prompts.get(1))

    def metrics(self):
        return self.prompt_checks.metrics()


class EncodeFit:
    """The sender: fit U, V to a drifting target by fixed gradient steps, then quantize.

    Each round is one keyframe, warm-started from the previous keyframe's
    factors.  The target turns at a steady rate through a plane of rank-8
    prompts with fixed singular values S:
    T_k = Q_u(t) S Q_v(t)^T, Q(t) = cos t Q_a + sin t Q_b, t = 2 pi k / PERIOD,
    where [Q_a Q_b] has orthonormal columns, so Q(t) does too.  Gradient
    steps commute with the rotations, so every seed fits equally well: the
    seed moves where the prompts point, not how hard they are to fit.
    """

    name = "encode_fit"
    RANK = 8
    STEPS = 10
    PERIOD = 60
    ETA = 0.5  # share of 1/L per factor; the coupled U-V mode doubles the curvature
    PEAK_OPS = None  # a round is one keyframe
    HOST_SENSITIVITY = 0.9

    def __init__(self, seed):
        rng = np.random.default_rng([seed, _ENCODE])
        n = checks.TOKENS * D
        lin = np.linspace(1.0, 0.5, self.RANK)
        self._sqrt_s = np.sqrt(lin * np.sqrt(n / np.sum(lin ** 2)))  # entries of T have unit variance
        self._qu = np.linalg.qr(rng.standard_normal((checks.TOKENS, 2 * self.RANK)))[0]
        self._qv = np.linalg.qr(rng.standard_normal((D, 2 * self.RANK)))[0]
        # d mean((UV - T)^2)/dU = (2/n)(UV - T)V^T is (2/n)·λmax(V V^T)-Lipschitz in U,
        # and balanced factors have U^T U = V V^T = S.
        self.lr = F32(self.ETA * n / (2 * self._sqrt_s[0] ** 2))
        u, v = self._target_factors(-1)
        self.u, self.v = u.astype(F32), v.astype(F32)
        self.sq_err = 0.0
        self.entries = 0
        self.bits = 0
        self.keyframes = 0
        self.rel_residual = 0.0

    def _target_factors(self, k):
        t = 2 * np.pi * k / self.PERIOD
        c, s = np.cos(t), np.sin(t)
        r = self.RANK
        qu = c * self._qu[:, :r] + s * self._qu[:, r:]
        qv = c * self._qv[:, :r] + s * self._qv[:, r:]
        return qu * self._sqrt_s, (qv * self._sqrt_s).T

    def fit(self, target):
        """Fixed gradient steps from the warm start, then the codes; returns what the checks need."""
        u, v = self.u, self.v
        first_grads = None
        for step in range(self.STEPS):
            tape = nm.GradTape()
            uu, vv = tape.leaf(u), tape.leaf(v)
            r = nm.sub(nm.matmul(uu, vv), target)
            g_u, g_v = nm.grad(nm.mean_all(nm.mul(r, r)), [uu, vv])
            if step == 0:
                first_grads = (g_u.data, g_v.data)
            u = nm.sub(u, nm.mul(g_u, self.lr)).data
            v = nm.sub(v, nm.mul(g_v, self.lr)).data
        start = (self.u, self.v)
        self.u, self.v = u, v
        return start, first_grads, (u, v), (pc.quantize(u, Q), pc.quantize(v, Q))

    def round(self, k):
        fu, fv = self._target_factors(k)
        target = (fu @ fv).astype(F32)
        yield (lambda: self.fit(target)), (lambda out: self.check(target, *out))

    def check(self, target, start, first_grads, final, codes):
        t64 = target.astype(F64)
        checks.fit_gradient(*first_grads, *start, target)
        first = np.linalg.norm(start[0].astype(F64) @ start[1].astype(F64) - t64)
        last = np.linalg.norm(final[0].astype(F64) @ final[1].astype(F64) - t64)
        checks.fit_residual(first, last)
        levels = []
        for qm, source in zip(codes, final):
            checks.codes_in_range(qm.codes, qm.q)
            lv = checks.levels_of(qm.codes, qm.q, qm.scale, qm.shape)
            checks.dequantized(lv, source, qm.scale)
            levels.append(lv)
        counts = (codes[0].codes.size, codes[1].codes.size)
        self.bits += checks.code_bits(counts, Q, self.RANK, D, pc.bitrate_estimate(D, self.RANK, Q, KEYFRAMES_PER_S))
        self.keyframes += 1
        err = levels[0] @ levels[1] - t64
        self.sq_err += float(np.vdot(err, err))
        self.entries += err.size
        self.rel_residual += last / np.linalg.norm(t64)

    def metrics(self):
        return {
            "wire_bits_per_s": self.bits / max(self.keyframes, 1) * KEYFRAMES_PER_S,
            "prompt_rmse": (self.sq_err / max(self.entries, 1)) ** 0.5,
            "fit_rel_residual": self.rel_residual / max(self.keyframes, 1),
        }


WORKLOADS = {w.name: w for w in (DecodeGop30, RenderFrame, EncodeFit)}
