"""Deterministic, splittable random streams and the distributions every
sampler in this package is built on.

The generator is Philox-4x64, a counter-based PRNG whose raw 64-bit output
sequence is a fixed function of its 128-bit key.  Stream derivation is the
simplest documented rule there is: the key is the pair of 64-bit words
``(master_seed, domain * 2**32 + stream_index)``.  Distinct keys give
statistically independent counter sequences by construction, so the chunks
of a Monte Carlo job get independent streams by using their chunk index as
``stream_index``, each family of draws gets its own by its ``domain``, and
a fixed seed reproduces the identical byte stream on every platform and
numpy version.  Domain 0 gives the key (master_seed, stream_index).

Distributions are implemented as explicit transforms of the uniform stream:
polar Box-Muller for normals; for Gamma, the Erlang sum
-ln prod_{j<a} (1 - U_j) at integer shapes a <= _ERLANG_MAX_SHAPE and
Marsaglia-Tsang at every other shape.  Gamma shapes below 1 are refused:
every variate the ensembles draw has an integer shape of at least 1.  A
gammas call takes the pattern of shapes that its draws repeat (the m or
2m - 1 shapes of one sampled matrix), and splits and prepares that pattern
once, however many draws repeat it.  Its draws form a table of one row per
repeat and one column per shape.  The Erlang products of a pattern of up
to _ERLANG_COLUMNS shapes multiply whole factor columns left to right,
since numpy's reduceat along a short row costs per row; Marsaglia-Tsang's
per-shape constants d and c broadcast against the table.  Every draw
method returns an array of n draws; one draw is the batch of one, e.g.
``uniforms(1)[0]``.

Uniforms are buffered.  A request that the buffer cannot serve refills
exactly its shortfall.  Polar normals screen their candidate pairs in
vectorised passes over a lookahead of the buffer: need/p +
4 sqrt(need (1-p))/p pairs for need accepted pairs, p = pi/4, i.e. the
negative-binomial mean plus four standard deviations, but at most 8192
pairs a pass, so that a call's working memory beyond its output is
bounded whatever n is.  Each pass consumes exactly the uniforms
up to the last pair it used (all of them, if it used every pair), so every
call leaves the stream exactly where drawing the pairs round by round
would, and the pairs it looked at but did not use stay buffered for the
next call.  The Marsaglia-Tsang rounds likewise work in a fixed set of
buffers per round, reused in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .errors import ParameterError, check_integer

_INV_2_53 = 2.0**-53
_SQRT_HALF = math.sqrt(0.5)
_POLAR_ACCEPT = math.pi / 4.0  # P(u^2 + v^2 < 1) for (u, v) uniform on [-1, 1)^2
# polar pairs screened per pass: the 4096 pairs of 8192 normals (the most a
# stack of 4096 complex Gaussians asks for) need a lookahead of 5366 pairs,
# so such a call still takes one pass
_PAIRS_PER_PASS = 1 << 13
# largest integer shape drawn as an Erlang sum: its cost grows with the shape
# (one uniform per unit of shape) and Marsaglia-Tsang's does not.  Measured
# per entry on a 2-vCPU Xeon host with the products formed by columns,
# Erlang is 6-7x faster at shape 1 (7 ns against 45-49) and breaks even
# between shapes 5 and 6 in calls of 16 384 entries, the largest an
# estimator chunk makes (at about shape 7 in calls of 4000, past 12 in
# calls of 400).  The cutoff is kept at 4 even so: moving it would change the
# draws of every shape it moves.  Every factor 1 - U is at least 2^-53, so
# the product of up to 19 of them stays a normal float
_ERLANG_MAX_SHAPE = 4
# widest pattern whose Erlang products are formed column by column (_erlang);
# a wider one goes to np.multiply.reduceat.  The ensembles' patterns have at
# most 8 Erlang shapes, 4 on the Laguerre diagonal and 4 below it.  Measured
# on a 2-vCPU Xeon host at 8 shapes of 1-4, reduceat takes 74 us on 1000
# rows and 411 on 5461, the column loop 36 and 203; on one row 3 us against
# 18, and on a pattern of 10 000 shapes, one per draw, 0.18 ms against 17 ms
_ERLANG_COLUMNS = 8


def _polar_lookahead(need: int) -> int:
    """Polar pairs to screen for need accepted ones: the negative binomial
    mean need/p plus four of its standard deviations sqrt(need (1-p))/p."""
    return math.ceil((need + 4.0 * math.sqrt(need * (1.0 - _POLAR_ACCEPT))) / _POLAR_ACCEPT)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed, substream index and domain identifying one random
    stream: its Philox key is (master_seed, domain * 2**32 + stream_index)."""

    master_seed: int
    stream_index: int = 0
    domain: int = 0

    def __post_init__(self):
        check_integer("master_seed", self.master_seed, 0, 2**64)
        check_integer("stream_index", self.stream_index, 0, 2**32)
        check_integer("domain", self.domain, 0, 2**32)


class RngStream:
    """Single-owner random stream; never share one between concurrent tasks.

    All derived draws consume the underlying uniform sequence in a fixed,
    documented order, so any fixed call sequence is bit-reproducible.  The
    i-th uniform is the top 53 bits of the i-th raw Philox output, scaled
    to [0, 1).
    """

    def __init__(self, seed: SeedSpec):
        key = np.array([seed.master_seed, (int(seed.domain) << 32) | int(seed.stream_index)], dtype=np.uint64)
        self._bitgen = Philox(key=key)
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0
        self._spare_normal: float | None = None

    # -- uniform layer ------------------------------------------------------

    def uniforms(self, n: int) -> np.ndarray:
        """Next n i.i.d. uniforms on [0, 1) as float64."""
        check_integer("n", n, 0)
        out = self._lookahead(n).copy()
        self._pos += n
        return out

    def _lookahead(self, n: int) -> np.ndarray:
        """The next n uniforms, as a view of the buffer, without consuming them.

        Refills exactly the shortfall, so the buffer holds only uniforms
        that some request looked at: the i-th uniform is always derived from
        the i-th raw output, however the requests split the stream.
        """
        rest = self._buf.size - self._pos
        if n > rest:
            raw = self._bitgen.random_raw(n - rest)
            raw >>= np.uint64(11)
            buf = np.empty(rest + raw.size, dtype=np.float64)
            buf[:rest] = self._buf[self._pos:]
            np.multiply(raw, _INV_2_53, out=buf[rest:])
            self._buf, self._pos = buf, 0
        return self._buf[self._pos:self._pos + n]

    # -- normal layer -------------------------------------------------------

    def normals(self, n: int) -> np.ndarray:
        """Next n i.i.d. standard normals via the polar Box-Muller transform.

        Pairs (u, v) uniform on [-1, 1)^2 are accepted when s = u^2 + v^2
        lies in (0, 1); each accepted pair yields the two normals
        u*sqrt(-2 ln s / s), v*sqrt(-2 ln s / s).  A single leftover normal
        is cached on the stream and used first by the next call.

        The pairs are screened in passes over the lookahead described in
        the module docstring, each pass writing its normals straight into
        the output.  A pass that holds too few accepted pairs (every pass
        but the last of a large call, and rarely the last one) consumes its
        whole lookahead and the next pass looks ahead again for the rest.
        """
        check_integer("n", n, 0)
        out = np.empty(n, dtype=np.float64)
        filled = 0
        if self._spare_normal is not None and n > 0:
            out[0] = self._spare_normal
            self._spare_normal = None
            filled = 1
        while filled < n:
            filled = self._polar_pass(out, filled)
        return out

    def _polar_pass(self, out: np.ndarray, filled: int) -> int:
        """One screening pass of normals: write the normals of the accepted
        pairs of one lookahead into out from index filled on, consume the
        uniforms up to the last pair used, and return the new fill level."""
        n = out.size
        need = (n - filled + 1) // 2
        w = self._lookahead(2 * min(_polar_lookahead(need), _PAIRS_PER_PASS)) * 2.0
        w -= 1.0
        x = w[0::2]
        y = w[1::2]
        s = x * x
        s += y * y
        ok = np.flatnonzero((s > 0.0) & (s < 1.0))[:need]
        used = ok[-1] + 1 if ok.size == need else x.size
        # f = sqrt(-2 ln s / s) on the accepted pairs; each full-pass array
        # is dropped as soon as it is read for the last time
        ss = s[ok]
        del s
        f = np.log(ss)
        f *= -2.0
        f /= ss
        del ss
        np.sqrt(f, out=f)
        xs, ys = x[ok], y[ok]
        del w, x, y
        self.uniforms(2 * int(used))
        # need pairs give at most n - filled + 1 normals: the last pair may
        # only fit its first normal, and its second is left over
        full = min(ok.size, (n - filled) // 2)
        np.multiply(f[:full], xs[:full], out=out[filled:filled + 2 * full:2])
        np.multiply(f[:full], ys[:full], out=out[filled + 1:filled + 2 * full:2])
        filled += 2 * full
        if full < ok.size:
            out[filled] = f[full] * xs[full]
            self._spare_normal = float(f[full] * ys[full])
            filled += 1
        return filled

    # -- complex Gaussian layer ----------------------------------------------

    def complex_gaussians(self, n: int) -> np.ndarray:
        """Next n complex standard Gaussians: Re, Im i.i.d. N(0, 1/2), E|z|^2 = 1.

        Consumes 2n normals in (re, im) interleaved order.
        """
        check_integer("n", n, 0)
        nrm = self.normals(2 * n)
        nrm *= _SQRT_HALF
        # (re, im) pairs are the memory layout of a complex array
        return nrm.view(np.complex128)

    # -- Gamma layer ----------------------------------------------------------

    def gammas(self, shape, n: int) -> np.ndarray:
        """Next n draws from Gamma(shape, scale=1).

        shape is a pattern of p shapes that the n draws repeat n/p times:
        draw i has shape shape[i % p].  One shape (a scalar, or p = 1) is
        drawn n times, and n shapes (p = n) give one to each draw; p must
        divide n, and each shape must be finite and at least 1
        (ParameterError otherwise).  A pattern draws exactly what the array
        of its n/p copies draws.  The method is chosen per pattern entry by
        its shape:

        - an integer shape a <= _ERLANG_MAX_SHAPE is the Erlang sum
          -ln prod_{j<a} (1 - U_j) (Devroye, Non-Uniform Random Variate
          Generation, 1986, ch. IX), which needs no normals and no
          rejection;
        - every other shape runs Marsaglia-Tsang (_marsaglia_tsang).

        The Erlang draws take their uniforms first, in draw order, a
        consecutive uniforms for a draw of shape a; the Marsaglia-Tsang
        rounds then run on the other draws, in draw order.  The pattern is
        checked and split once, and each group fills its columns of the
        (n/p, p) table of draws through the pattern's boolean mask.
        """
        check_integer("n", n, 0)
        pattern = np.atleast_1d(np.asarray(shape, dtype=np.float64))
        p = pattern.size
        # an empty pattern only fits an empty call
        if pattern.ndim != 1 or (n % p if p else n):
            raise ParameterError(f"expected a pattern of gamma shapes whose length divides {n}, "
                                 f"got shape {pattern.shape}")
        if not ((pattern >= 1.0) & (pattern < math.inf)).all():
            raise ParameterError(f"gamma shapes must be finite and at least 1, got {shape!r}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        rows = n // p
        erlang = (pattern <= _ERLANG_MAX_SHAPE) & (pattern == np.floor(pattern))
        if erlang.all():
            return self._erlang(pattern, rows).ravel()
        if not erlang.any():
            return self._marsaglia_tsang(pattern, rows).ravel()
        out = np.empty((rows, p), dtype=np.float64)
        out[:, erlang] = self._erlang(pattern[erlang], rows)
        out[:, ~erlang] = self._marsaglia_tsang(pattern[~erlang], rows)
        return out.ravel()

    def _erlang(self, shapes: np.ndarray, rows: int) -> np.ndarray:
        """A (rows, p) table of Gamma variates of the integer shapes a
        (p >= 1 of them) in each row: -ln of the product of a consecutive
        factors 1 - U each, from one block of rows * sum(a) uniforms.  Each
        factor lies in (0, 1], so the product is positive and finite, and
        its log too.  Up to _ERLANG_COLUMNS shapes, the products are formed
        by columns, left to right: column j of the output is a copy of the
        first of its a factor columns, multiplied by each later one in turn,
        where reduceat along the short rows would cost per row.  A wider
        pattern is reduced by reduceat, whose products also run left to
        right, so the bits are the same either way."""
        counts = shapes.astype(np.intp)
        ends = np.cumsum(counts)
        # a new array: an array that uniforms() returned is never overwritten
        factors = np.subtract(1.0, self.uniforms(rows * int(ends[-1]))).reshape(rows, -1)
        if counts.size > _ERLANG_COLUMNS:
            out = np.multiply.reduceat(factors, ends - counts, axis=1)
        else:
            out = np.empty((rows, counts.size))
            start = 0
            for j, count in enumerate(counts.tolist()):
                col = out[:, j]
                col[...] = factors[:, start]
                for i in range(start + 1, start + count):
                    col *= factors[:, i]
                start += count
        np.log(out, out=out)
        np.negative(out, out=out)
        return out

    def _marsaglia_tsang(self, shapes: np.ndarray, rows: int) -> np.ndarray:
        """A (rows, p) table of Gamma variates by Marsaglia-Tsang, column j
        of shape shapes[j].

        Each column runs with its own d = a - 1/3 and c = 1/sqrt(9d),
        computed once.  Each rejection round consumes one normal and one
        uniform per pending slot (the uniform is drawn unconditionally; it
        is independent of the candidate, so discarding it on rejection is
        harmless).
        """
        p = shapes.size
        d = shapes - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)

        # the first round runs on the whole table, and its candidates become
        # the output; later rounds run on the few draws still pending, the
        # flat index of each giving its column
        k = rows * p
        accept, v = _marsaglia_tsang_round(self.normals(k).reshape(rows, p),
                                           self.uniforms(k).reshape(rows, p), d, c)
        v *= d
        out = v.ravel()
        pending = np.flatnonzero(~accept)
        while pending.size:
            col = pending % p
            dk = d[col]
            accept, v = _marsaglia_tsang_round(self.normals(pending.size), self.uniforms(pending.size),
                                               dk, c[col])
            out[pending[accept]] = dk[accept] * v[accept]
            pending = pending[~accept]
        return out.reshape(rows, p)


def _marsaglia_tsang_round(x: np.ndarray, u: np.ndarray, d: np.ndarray,
                           c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Marsaglia-Tsang round on normals x and uniforms u at
    d = a - 1/3 and c = 1/sqrt(9d) (arrays that broadcast against x): the
    accept mask and v = (1 + c x)^3.  A candidate is accepted when v > 0
    and the log test or the squeeze passes; the cheap log test runs first
    and the squeeze only where it failed, since x**4 of a negative x costs
    far more than a log.  Works in two buffers besides x, u and v, each
    value computed by the same operations in the same order as the
    textbook expression."""
    t = x * c
    t += 1.0
    v = t * t
    v *= t
    pos = v > 0.0
    # log v where v > 0, log 1 = 0 elsewhere
    t.fill(0.0)
    np.log(v, out=t, where=pos)
    w = np.subtract(1.0, v)
    w += t
    w *= d
    np.multiply(x, 0.5, out=t)
    t *= x
    t += w  # 0.5 x^2 + d (1 - v + log v)
    np.log(u, out=w)
    accept = w < t
    accept &= pos
    retry = np.nonzero(pos & ~accept)
    if retry[0].size:
        accept[retry] = u[retry] < 1.0 - 0.0331 * x[retry]**4
    return accept, v
