"""Deterministic, splittable random streams and the distributions every
sampler in this package is built on.

The generator is Philox-4x64, a counter-based PRNG whose raw 64-bit output
sequence is a fixed function of its 128-bit key.  Stream derivation is the
simplest documented rule there is: the key is the pair
``(master_seed, stream_index)``.  Distinct keys give statistically
independent counter sequences by construction, so the chunks of a Monte
Carlo job get independent streams by using their chunk index as
``stream_index``, and a fixed seed pair reproduces the identical byte
stream on every platform and numpy version.

Distributions are implemented as explicit transforms of the uniform stream:
polar Box-Muller for normals, Marsaglia-Tsang for Gamma, normalized Gamma
variates for the symmetric Dirichlet.  Every draw method returns an array
of n draws; one draw is the batch of one, e.g. ``uniforms(1)[0]``.

Uniforms are buffered.  A request that the buffer cannot serve refills
only its shortfall, at least 4096 raw outputs at a time.  Polar normals
screen their candidate pairs in one vectorised pass over a lookahead of
the buffer: need/p + 4 sqrt(need (1-p))/p pairs for need accepted pairs,
p = pi/4, i.e. the negative-binomial mean plus four standard deviations.
A call then consumes exactly the uniforms up to the last pair it used, so
every call leaves the stream exactly where drawing the pairs round by
round would, and the pairs it looked at but did not use stay buffered for
the next call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .errors import ParameterError

_BLOCK = 4096
_INV_2_53 = 2.0**-53
_SQRT_HALF = math.sqrt(0.5)
_POLAR_ACCEPT = math.pi / 4.0  # P(u^2 + v^2 < 1) for (u, v) uniform on [-1, 1)^2


def _polar_lookahead(need: int) -> int:
    """Polar pairs to screen for need accepted ones: the negative binomial
    mean need/p plus four of its standard deviations sqrt(need (1-p))/p."""
    return math.ceil((need + 4.0 * math.sqrt(need * (1.0 - _POLAR_ACCEPT))) / _POLAR_ACCEPT)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus substream index identifying one random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        # a float would pass the range test and be truncated by the key cast
        for name, value, bits in (("master_seed", self.master_seed, 64),
                                  ("stream_index", self.stream_index, 32)):
            if not (isinstance(value, (int, np.integer)) and 0 <= value < 2**bits):
                raise ParameterError(f"{name} must be a {bits}-bit unsigned integer, got {value!r}")


class RngStream:
    """Single-owner random stream; never share one between concurrent tasks.

    All derived draws consume the underlying uniform sequence in a fixed,
    documented order, so any fixed call sequence is bit-reproducible.  The
    i-th uniform is the top 53 bits of the i-th raw Philox output, scaled
    to [0, 1).
    """

    def __init__(self, seed: SeedSpec):
        key = np.array([seed.master_seed, seed.stream_index], dtype=np.uint64)
        self._bitgen = Philox(key=key)
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0
        self._spare_normal: float | None = None

    # -- uniform layer ------------------------------------------------------

    def uniforms(self, n: int) -> np.ndarray:
        """Next n i.i.d. uniforms on [0, 1) as float64."""
        if n < 0:
            raise ParameterError(f"n must be nonnegative, got {n}")
        out = self._lookahead(n).copy()
        self._pos += n
        return out

    def _lookahead(self, n: int) -> np.ndarray:
        """The next n uniforms, as a view of the buffer, without consuming them.

        Refills only the shortfall, at least _BLOCK raw outputs at a time.
        The block size only affects buffering: the i-th uniform is always
        derived from the i-th raw output.
        """
        short = n - (self._buf.size - self._pos)
        if short > 0:
            raw = self._bitgen.random_raw(max(_BLOCK, short))
            self._buf = np.concatenate([self._buf[self._pos:], (raw >> np.uint64(11)) * _INV_2_53])
            self._pos = 0
        return self._buf[self._pos:self._pos + n]

    # -- normal layer -------------------------------------------------------

    def normals(self, n: int) -> np.ndarray:
        """Next n i.i.d. standard normals via the polar Box-Muller transform.

        Pairs (u, v) uniform on [-1, 1)^2 are accepted when s = u^2 + v^2
        lies in (0, 1); each accepted pair yields the two normals
        u*sqrt(-2 ln s / s), v*sqrt(-2 ln s / s).  A single leftover normal
        is cached on the stream and used first by the next call.

        The pairs are screened in one pass over the lookahead described in
        the module docstring.  In the rare case that it holds too few
        accepted pairs, the call consumes it all and looks ahead again for
        the rest.
        """
        if n < 0:
            raise ParameterError(f"n must be nonnegative, got {n}")
        out = np.empty(n, dtype=np.float64)
        filled = 0
        if self._spare_normal is not None and n > 0:
            out[0] = self._spare_normal
            self._spare_normal = None
            filled = 1
        while filled < n:
            need = (n - filled + 1) // 2
            u = self._lookahead(2 * _polar_lookahead(need)) * 2.0 - 1.0
            x = u[0::2]
            y = u[1::2]
            s = x * x + y * y
            ok = np.flatnonzero((s > 0.0) & (s < 1.0))[:need]
            used = ok[-1] + 1 if ok.size == need else x.size
            self.uniforms(2 * int(used))
            xs, ys, ss = x[ok], y[ok], s[ok]
            f = np.sqrt(-2.0 * np.log(ss) / ss)
            block = np.empty(2 * xs.size, dtype=np.float64)
            block[0::2] = f * xs
            block[1::2] = f * ys
            take = min(block.size, n - filled)
            out[filled:filled + take] = block[:take]
            filled += take
            if take < block.size:
                # need pairs give at most n - filled + 1 normals: one is left over
                self._spare_normal = float(block[take])
        return out

    # -- complex Gaussian layer ----------------------------------------------

    def complex_gaussians(self, n: int) -> np.ndarray:
        """Next n complex standard Gaussians: Re, Im i.i.d. N(0, 1/2), E|z|^2 = 1.

        Consumes 2n normals in (re, im) interleaved order.
        """
        if n < 0:
            raise ParameterError(f"n must be nonnegative, got {n}")
        nrm = self.normals(2 * n)
        return _SQRT_HALF * (nrm[0::2] + 1j * nrm[1::2])

    # -- Gamma / Dirichlet layer ----------------------------------------------

    def gammas(self, shape, n: int) -> np.ndarray:
        """Next n draws from Gamma(shape, scale=1) by Marsaglia-Tsang.

        shape is one shape for all n draws or a length-n array of shapes,
        one per draw; each draw then runs with its own d = a - 1/3 and
        c = 1/sqrt(9d), and a scalar shape draws exactly what the array of
        n copies of it draws.  Each rejection round consumes one normal and
        one uniform per pending slot (the uniform is drawn unconditionally;
        it is independent of the candidate, so discarding it on rejection
        is harmless).  A draw with shape < 1 is boosted from
        Gamma(shape + 1) by the factor (1 - U)^(1/shape); the boost uniforms
        are drawn after all rounds, one per boosted draw, in draw order.
        """
        if n < 0:
            raise ParameterError(f"n must be nonnegative, got {n}")
        shapes = np.asarray(shape, dtype=np.float64)
        if shapes.ndim and shapes.shape != (n,):
            raise ParameterError(f"expected one gamma shape or {n} of them, got shape {shapes.shape}")
        if not ((shapes > 0.0) & (shapes < math.inf)).all():
            raise ParameterError(f"gamma shapes must be finite and positive, got {shape!r}")
        per_draw = shapes.ndim == 1
        d = shapes + (shapes < 1.0) - 1.0 / 3.0  # boosted draws run at shape + 1
        c = 1.0 / np.sqrt(9.0 * d)

        # the first round runs on the full arrays, later rounds on the few
        # draws still pending (None until the first round is done)
        out = np.empty(n, dtype=np.float64)
        pending = None
        k = n
        while k:
            dk, ck = (d[pending], c[pending]) if per_draw and pending is not None else (d, c)
            x = self.normals(k)
            u = self.uniforms(k)
            t = 1.0 + ck * x
            v = t * t * t
            pos = v > 0.0
            # accept = pos & (squeeze | log test), with the cheap log test
            # first and the squeeze only where it failed: x**4 of a negative
            # x costs far more than a log
            logv = np.log(np.where(pos, v, 1.0))
            accept = pos & (np.log(u) < 0.5 * x * x + dk * (1.0 - v + logv))
            retry = np.flatnonzero(pos & ~accept)
            if retry.size:
                accept[retry] = u[retry] < 1.0 - 0.0331 * x[retry]**4
            if pending is None:
                np.multiply(dk, v, out=out)
                pending = np.flatnonzero(~accept)
            else:
                out[pending[accept]] = (dk[accept] if per_draw else dk) * v[accept]
                pending = pending[~accept]
            k = pending.size
        boosted = np.flatnonzero(shapes < 1.0) if per_draw else np.arange(n if shapes < 1.0 else 0)
        if boosted.size:
            u = self.uniforms(boosted.size)
            if not per_draw:
                out *= (1.0 - u) ** (1.0 / float(shapes))
            else:
                # one scalar power per distinct shape, as a scalar shape
                # boosts: numpy special-cases some scalar exponents, so an
                # array of exponents could differ from them in the last bit
                for a in np.unique(shapes[boosted]):
                    sel = shapes[boosted] == a
                    out[boosted[sel]] *= (1.0 - u[sel]) ** (1.0 / float(a))
        return out

    def sample_symmetric_dirichlet(self, m: int, alpha: float) -> np.ndarray:
        """One draw from Dirichlet(alpha, ..., alpha) of length m.

        Built as m independent Gamma(alpha) variates normalized by their sum.
        """
        if m < 1:
            raise ParameterError(f"Dirichlet length must be >= 1, got {m}")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ParameterError(f"Dirichlet concentration must be finite and positive, got {alpha}")
        g = self.gammas(alpha, m)
        return g / g.sum()
