"""Orthonormal bases and evaluation of polyanalytic polynomial kernels.

The space span{conj(z)^r z^j : 0 <= r < q, 0 <= j < n} carries the inner
product of L^2(e^{-mQ} dA).  For a radial weight its monomials split into
mutually orthogonal blocks by degree offset d = j - r.  With t = |z|^2,
block d holds |z|^{|d|} t^k e^{i d arg z}, so its orthonormal basis is
|z|^{|d|} M_{|d|}^{-1/2} pi_k(t) e^{i d arg z}, where pi_k are the
orthonormal polynomials of the probability measure t^{|d|} e^{-mQ} dt / M_{|d|}
(for ginibre, Laguerre polynomials L_k^{(|d|)}(mt); Haimi and Hedenmalm,
J. Stat. Phys. 153 (2013)).  A block is thus the coefficients alpha_k, beta_k
of their three-term recurrence (Gautschi, Orthogonal Polynomials:
Computation and Approximation, 2004, section 2.2), found by Lanczos on a
trapezoid grid in u = log t (quadrature.MomentRule).  Blocks d and -d share
that measure, and the smaller block's pi_k are the first rows of the larger
block's, so the recurrence is computed once per |d|, for the larger block's
rows.  Every measure runs in one batch, so a build makes one batched pass
(more only where the batch is split by size or a grid grows), whatever q and
n.  The Gram blocks, of condition 1e15 and more for q >= 10, are never formed
or factored.

For a weight of one term, Q = c t^K, the measure of block d is
(mc)^{-(|d|+1)/K} s^{|d|} e^{-s^K} ds in s = (mc)^{1/K} t, which depends on
m only through its constant factor.  So a build at m serves any m' and any
n' up to its own (``GramFactorization._rebased``): alpha and beta scale by
(m/m')^{1/K}, the blocks are cut to n' rows, and log M_p comes from the
build's own moment rule at shifted modes.  The one ladder path of
``asymptotics`` (``_ladder_spaces``) uses this to make one build per ladder;
every other build is computed at its own m.

Every quantity comes from one feature map Phi_a(z) = e_a(z) e^{-mQ(z)/2} over
the orthonormal basis e_a: the correlation kernel is
sum_a Phi_a(z) conj(Phi_a(w)).  The map never exponentiates a large log: a
block is a real vector of recurrence values pi_k(t) plus one log shift per
(block, point).  The values are laid out (row, block, point) and computed in
place, one chunk of points at a time.
Block d carries the phase e^{i d (arg z - arg w)}; it is one complex product
of entries from two tables of about sqrt(blocks) entries per point, not one
complex exp per (block, point), and each entry comes from one half-angle
tangent (``_block_phases``).  Float64 ufunc costs per element, numpy 2.4.6
on an AMD EPYC with AVX-512: np.cos 13 ns and np.sin 14 ns (scalar libm),
np.tan 0.8 ns, np.arctan2 1.3 ns, np.exp and np.log 0.5 ns, a product
0.25 ns.  So np.cos and np.sin stay out of every per-point path.  Pair
evaluation recombines the blocks under
a global running scale, so the log-moment table keeps m ~ 200 inside double
range.

Builds and evaluations work in one pool of buffers per thread (``_buffer``),
shared by every space that the thread builds or evaluates, so a fresh space
reuses the working memory of the last one and pages none in anew.  A pair
evaluation of two whole chunks or more deals its chunks across the usable
CPUs (``_deal``): chunk i runs on thread i mod T, the caller being thread 0,
each thread in its own pool.  Numpy releases the GIL inside each chunk's
array passes, so the threads overlap.  Chunk boundaries and each chunk's
operations are those of a serial loop, so every result is bitwise the same
whatever the thread count.  Builds stay serial: their Lanczos steps are
small and GIL-bound.  A KernelEvaluator is immutable after construction
and safe for concurrent evaluation from many threads.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import queue
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericalDegeneracyError, require_finite,
                     require_finite_points, require_integer, require_positive)
from .quadrature import TAIL_BOUND, MomentRule, gauss_legendre_on
from .weights import RadialEquilibrium, WeightModel

# Least log-drop of the integrand of a block's lowest row at the first left end
# of the block's node grid, twice a moment rule's reach: at a moment rule's 40,
# more grids must grow, and power:p=3 q=16 n=m=40 builds about 20% slower.
GRAM_LEFT_TAIL = 80.0
NEGATIVE_DET_CLAMP = 1e-10
LOG_FLOOR = -745.0  # double underflow boundary for logged magnitudes
PAIR_CHUNK = 1 << 17  # about 1 MB per float64 working array
GRAM_PAD = 1.5  # most nodes a batch pads a block's grid to, over its own count


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters (q, n, m): polyanalytic order, degree count, scaling."""

    q: int
    n: int
    m: float

    def __post_init__(self):
        require_integer(self.q, "q", 1)
        require_integer(self.n, "n", 1)
        require_positive(self.m, "m")

    @property
    def dim(self) -> int:
        return self.q * self.n


def _lanczos(t: np.ndarray, start: np.ndarray, steps: int):
    """alpha_k, beta_{k+1} (k < steps) of sum_i start_i^2 delta(t_i), and the basis.

    Batched over the rows of t and start, each an independent problem:
    Lanczos on diag(t), each new vector orthogonalized twice against all
    earlier ones of its row (Gragg and Harrod, Numer. Math. 44 (1984)).
    A node where start is 0 stays 0 in every vector, so rows of different
    lengths may be padded with zeros.  The start norm, and alpha_k and
    beta_{k+1}^2 of each step, are summed in long double; the two sums of a
    step are one reduction of their stacked products, since the
    orthogonalization does not read alpha_k.  The basis, the vector v, its
    products and its projections live in the thread's pool (``_buffer``), so
    the basis returned is overwritten by the next call.
    """
    nb, size = start.shape
    basis = _buffer("lanczos", "basis", (nb, steps + 1, size))
    v = _buffer("lanczos", "v", (nb, size))
    prod = _buffer("lanczos", "prod", (nb, 2, size))  # products of alpha_k, beta_{k+1}^2
    proj = _buffer("lanczos", "proj", (nb, 1, size))
    norm = np.sqrt(np.sum(np.multiply(start, start, out=v), axis=-1, dtype=np.longdouble))
    np.divide(start, norm.astype(float)[:, None], out=basis[:, 0])
    alpha, beta = np.empty((nb, steps)), np.empty((nb, steps))
    # a beta of 0 or past double range leaves inf or NaN: _set_blocks refuses it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(steps):
            np.multiply(t, basis[:, k], out=v)
            np.multiply(basis[:, k], v, out=prod[:, 0])
            done = basis[:, :k + 1]
            for _ in range(2):  # v -= done^T (done v), row by row
                v -= np.matmul(np.matmul(done, v[:, :, None]).transpose(0, 2, 1), done,
                               out=proj)[:, 0]
            np.multiply(v, v, out=prod[:, 1])
            sums = np.sum(prod, axis=-1, dtype=np.longdouble)
            alpha[:, k] = sums[:, 0]
            beta[:, k] = np.sqrt(sums[:, 1])
            np.divide(v, beta[:, k, None], out=basis[:, k + 1])
    return alpha, beta, basis


def _recurrences(rule: MomentRule, p: np.ndarray):
    """Recurrence coefficients of the measures t^{|d|} e^{-mQ} dt, one per row of p.

    Row i of ``p`` holds the exponents |d| + 2k of the rows k < need_i that the
    measure's blocks use, padded to the common width by repeating its last
    exponent; ``rule`` holds the exponents 0..n+q-2 in order, so its rows are
    the exponents themselves.  Measure i runs Lanczos on one trapezoid grid in u
    that covers the rules of its need_i rows, started from
    sqrt(exp(f_{p_i0}(u))), the measure t^{|d|} e^{-mQ} dt = exp(f_{|d|}(u)) du.
    Every measure takes p.shape[1] - 1 steps; those past need_i - 1 are unused.
    The measures run in batches of similar node count (``_chunks``), the node
    axis innermost and each grid padded with zeros to the longest of its batch.
    Only the measures whose first need_i polynomials keep more than TAIL_BOUND
    of their norm at the left end double their grid's left reach and run again.
    """
    nb, size = p.shape
    live = np.arange(size) < 1 + np.count_nonzero(np.diff(p, axis=1), axis=1)[:, None]
    step = np.min(rule.step[p], axis=1)
    left, right = rule.reach(p, GRAM_LEFT_TAIL)
    lo, hi = np.min(left, axis=1), np.max(right, axis=1)
    alpha, beta = np.empty((nb, size - 1)), np.empty((nb, size - 1))
    todo = np.arange(nb)
    while todo.size:
        count = np.ceil((hi[todo] - lo[todo]) / step[todo]).astype(int) + 1
        order = np.argsort(count, kind="stable")
        todo, count = todo[order], count[order]
        grow = []
        for part in _chunks(count, size):
            idx, cnt = todo[part], count[part]
            j = np.arange(cnt[-1])
            # padded nodes repeat a grid's last node, so t stays finite, and start
            # is zero there
            u = lo[idx, None] + step[idx, None] * np.minimum(j, cnt[:, None] - 1)
            start = np.exp(0.5 * rule.log_integrand(p[idx, :1], u)) * (j < cnt[:, None])
            alpha[idx], beta[idx], basis = _lanczos(np.exp(u), start, size - 1)
            edge = np.where(live[idx], basis[:, :, 0] ** 2, 0.0)
            grow.append(idx[np.max(edge, axis=1) > TAIL_BOUND])
        todo = np.concatenate(grow)  # a NaN edge stops; _set_blocks refuses it
        lo[todo] -= hi[todo] - lo[todo]
    return alpha, beta


def _conditions(alpha: np.ndarray, beta: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Condition of each block's Gram matrix scaled to unit diagonal.

    Block i uses the first size[i] - 1 entries of its rows of alpha and beta,
    all finite and every beta > 0 (``GramFactorization._set_blocks`` refuses
    any other block); no build calls this, ``condition_report`` does on its
    first read.  On its grid the scaled monomial of row r,
    sqrt(exp(f_{p_0+2r}(u))), is t^r times that of row 0 up to a constant, so
    in the Lanczos basis it is J^r e_0 up to scale, with J the Jacobi matrix
    of alpha and beta.  J has positive entries, so these vectors are computed
    without cancellation; the condition is that of their normalized stack,
    squared.  Each stack is padded to the widest with identity rows and all
    run in one stacked SVD: with unit rows, sigma_max >= 1 >= sigma_min, so
    the padding leaves the condition as it is.
    """
    nb, width = alpha.shape[0], alpha.shape[1] + 1
    live = np.arange(width - 1) < size[:, None] - 1
    a, b = np.where(live, alpha, 1.0), np.where(live, beta, 1.0)
    krylov = np.zeros((nb, width, width))
    krylov[:, 0, 0] = 1.0
    for r in range(1, width):
        prev, row = krylov[:, r - 1], krylov[:, r]
        row[:, :-1] = a * prev[:, :-1] + b * prev[:, 1:]
        row[:, 1:] += b * prev[:, :-1]
        row /= np.linalg.norm(row, axis=1)[:, None]
    pad = np.arange(width) >= size[:, None]
    krylov[pad] = np.eye(width)[np.nonzero(pad)[1]]
    sv = np.linalg.svd(krylov, compute_uv=False)
    with np.errstate(divide="ignore"):
        return (sv[:, 0] / sv[:, -1]) ** 2


def _chunks(count: np.ndarray, size: int):
    """Consecutive slices of the ascending node counts ``count``, one batch each.

    A batch's padded (block, vector, node) arrays of ``size`` vectors hold at
    most PAIR_CHUNK entries, and no grid in it is padded past GRAM_PAD times
    its own node count; a batch holds one block at least.
    """
    first = 0
    while first < count.size:
        rest = count[first:]
        fits = (np.arange(rest.size) + 1) * size * rest <= PAIR_CHUNK
        fits &= rest <= GRAM_PAD * rest[0]
        last = first + max(1, int(np.sum(fits)))
        yield slice(first, last)
        first = last


class GramFactorization:
    """Log-moment table plus the three-term recurrence of every Gram block.

    Block i has degree offset d[i] and size[i] basis rows r = r0[i] + k,
    j = r + d[i], of exponents 2r + d = |d| + 2k.  Row i of alpha and beta
    holds its alpha_0 .. alpha_{s-2} and beta_1 .. beta_{s-1} for s = size[i],
    zero past them, in rows as wide as the widest block's, min(q, n) - 1.
    Blocks d and -d take them from the one recurrence of their measure, so
    the smaller block's row is a prefix of the larger's.  A build refuses a
    block whose coefficients are not all finite with every beta > 0
    (``_set_blocks``); ``condition_report``, each block's scaled Gram
    condition, is computed on its first read, not by the build.
    A build of a weight of one term can be re-based (``_rebased``) to any m
    and any n up to its own.
    """

    def __init__(self, weight: WeightModel, spec: SpaceSpec):
        self.weight = weight
        self.spec = spec
        q, n, m = spec.q, spec.n, spec.m
        self._rule = MomentRule(weight, m, np.arange(n + q - 1))
        self._one_term = len(self._rule._mc) == 1  # whether ``_rebased`` applies
        self.log_moments = self._rule.log_moments()
        self._layout()
        # measure |d| serves blocks d and -d, so it needs the larger one's rows
        a = np.abs(self.d)
        need = np.zeros(a.max() + 1, dtype=int)
        np.maximum.at(need, a, self.size)
        alpha, beta = np.zeros((2, need.size, need.max() - 1))
        many = need > 1
        k = np.arange(need.max())
        p = np.flatnonzero(many)[:, None] + 2 * np.minimum(k, need[many, None] - 1)
        alpha[many], beta[many] = _recurrences(self._rule, p)
        self._set_blocks(alpha[a], beta[a])

    def _layout(self) -> None:
        """The blocks: rows r < q with 0 <= j = r + d < n."""
        q, n = self.spec.q, self.spec.n
        self.d = np.arange(-(q - 1), n)
        self.r0 = np.maximum(0, -self.d)
        self.size = np.minimum(q - 1, n - 1 - self.d) - self.r0 + 1

    def _set_blocks(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Each block's rows of alpha and beta, cut to its size; a block with a
        coefficient that is not finite, or a beta <= 0, is refused."""
        keep = np.arange(alpha.shape[1]) < self.size[:, None] - 1
        self.alpha, self.beta = np.where(keep, alpha, 0.0), np.where(keep, beta, 0.0)
        good = np.isfinite(self.alpha) & np.isfinite(self.beta) & (self.beta > 0.0)
        bad = np.flatnonzero(~np.all(good | ~keep, axis=1))
        if bad.size:
            i = bad[0]
            raise NumericalDegeneracyError(
                f"Gram block d={self.d[i]} is numerically degenerate: its recurrence has "
                f"beta {np.array2string(self.beta[i, :self.size[i] - 1], precision=3)} "
                f"(condition inf; weight {self.weight.label}, "
                f"q={self.spec.q}, n={self.spec.n}, m={self.spec.m})"
            )

    @functools.cached_property
    def condition_report(self) -> dict:
        """Condition of each block's scaled Gram matrix, by d (``_conditions``),
        computed on first read (concurrent first reads compute the same report)."""
        return dict(zip(self.d.tolist(), _conditions(self.alpha, self.beta, self.size).tolist()))

    def _rebased(self, spec: SpaceSpec) -> "GramFactorization":
        """The factorization of ``spec`` (this q, n up to this n, any m) from
        this build, for a weight of one term c t^K.

        In s = (mc)^{1/K} t the measure t^{|d|} e^{-mQ} dt of block d is
        (mc)^{-(|d|+1)/K} s^{|d|} e^{-s^K} ds, m-free up to that factor.  So
        at m' = m e^{-K shift}, every alpha and beta is this build's times
        rho = e^{shift}, and block d of n' <= n rows is a prefix of this
        build's block d; log M_p comes from this build's rule
        (``MomentRule.log_moments``, with its log-convexity check).  Its
        ``condition_report`` is that of the cut blocks.  The result keeps no
        rule, so it is not re-based again.
        """
        if not self._one_term or spec.q != self.spec.q or spec.n > self.spec.n:
            raise ConfigurationError(
                f"cannot re-base q={self.spec.q}, n={self.spec.n} of weight "
                f"{self.weight.label} to q={spec.q}, n={spec.n}")
        shift = np.log(np.longdouble(self.spec.m) / np.longdouble(spec.m)) / self._rule._mc[0][0]
        rho = float(np.exp(shift))
        out = object.__new__(GramFactorization)
        out.weight, out.spec, out._one_term = self.weight, spec, False
        out.log_moments = self._rule.log_moments(shift)[:spec.n + spec.q - 1]
        out._layout()
        # both d axes start at -(q - 1), so block i is the same d in both; the
        # widest block of n' <= n holds min(q, n') rows
        cut = (slice(out.d.size), slice(out.size.max() - 1))
        out._set_blocks(rho * self.alpha[cut], rho * self.beta[cut])
        return out


@functools.lru_cache(maxsize=16)
def _phase_plan(d0: int, nb: int):
    """How ``_block_phases`` splits the offsets d0, ..., d0 + nb - 1.

    With S = ceil(sqrt(nb)), d = a S + b for 0 <= b < S (floor division),
    so d = 0 is a = b = 0.  Returns S; the b of d0 and the number of offsets
    that share its a (``head``); the number of full groups of S offsets after
    those, and of offsets left over; the table exponents k as floats (the
    b < S, then a S for every a), the rows k / 2, k^2 / 2 and k^3 / 6 that
    scale the tables' arguments, and Dekker's splitter for k.
    """
    s = math.isqrt(nb - 1) + 1
    a0, b0 = divmod(d0, s)
    head = min(nb, s - b0)
    whole, rest = divmod(nb - head, s)
    k = np.concatenate([np.arange(s), s * np.arange(a0, a0 + whole + 2)])
    kf = k.astype(float)
    powers = np.stack([0.5 * kf, 0.5 * kf * kf, kf * kf * kf / 6.0])
    for a in (kf, powers):
        a.flags.writeable = False
    split = float(2 ** int(np.max(np.abs(k))).bit_length() + 1)
    return s, b0, head, whole, rest, kf, powers, split


def _block_phases(d: np.ndarray, theta: np.ndarray, out: np.ndarray | None = None):
    """(block, angle) table of e^{i d theta} for consecutive offsets d.

    With S = ceil(sqrt(blocks)) and d = a S + b for 0 <= b < S, e^{i d theta}
    is one complex product of e^{i a S theta} and e^{i b theta}: about 2 S
    table entries per angle, in place of one complex exp per (block, angle),
    and e^{i 0 theta} = 1 exactly.  An entry e^{i k theta} is
    e^{i k hi} e^{i k lo} for theta = hi + lo split (Dekker) so that every
    k hi is exact, with e^{i y} = 1 - y^2/2 + i (y - y^3/6) at the tiny
    y = k lo.  The first factor is e^{i x} = (1 - u^2 + 2 i u) / (1 + u^2)
    with u = tan(x / 2): np.tan is a vectorized loop, where np.cos and
    np.sin are scalar and took three quarters of this table's time (costs
    in the module docstring).  An entry is within about two ulp of
    e^{i k theta} however large k theta is (at most 2.2 eps max(1, |k theta|)
    over the tests' angles), where np.exp(1j * k * theta) carries the
    rounding of k theta.  The split and the tangent are odd in theta, so the
    table at -theta is exactly the conjugate of the table at theta (an exact
    zero may differ in sign), and the kernel stays exactly Hermitian.
    """
    nb = d.size
    s, b0, head, whole, rest, kf, (half, sq, cube), split = _phase_plan(int(d[0]), nb)
    c = split * theta
    hi = c - (c - theta)
    lo = theta - hi
    u = np.multiply.outer(half, hi)
    np.tan(u, out=u)
    w = np.multiply(u, u)
    table = np.empty(u.shape, dtype=complex)
    np.subtract(1.0, w, out=table.real)
    w += 1.0
    table.real /= w
    u += u
    np.divide(u, w, out=table.imag)
    tail = np.empty_like(table)
    np.multiply.outer(sq, lo * lo, out=tail.real)
    np.subtract(1.0, tail.real, out=tail.real)
    np.multiply.outer(kf, lo, out=tail.imag)
    tail.imag -= np.multiply.outer(cube, lo * lo * lo, out=w)
    table *= tail
    small, big = table[:s], table[s:]
    if out is None:
        out = np.empty((nb, theta.size), dtype=complex)
    np.multiply(big[0], small[b0:b0 + head], out=out[:head])
    np.multiply(big[1:whole + 1, None], small,
                out=out[head:head + whole * s].reshape(whole, s, theta.size))
    if rest:
        np.multiply(big[whole + 1], small[:rest], out=out[nb - rest:])
    return out


class _Pool(threading.local):
    """One thread's working arrays (``_buffer``), shared by every build and
    every evaluator that runs on the thread, so that a fresh space finds its
    working memory already paged in.  An evaluation keeps the features of
    one side of a pair ("z"), of the other side ("w") and their pairing
    ("pair"): at most (2 + 9/r) PAIR_CHUNK doubles for blocks of at most
    r = min(q, n) rows, 6.8 MB at r = 2 and 11.5 MB at r = 1.  Each worker
    thread of ``_deal`` holds a pool of its own, so a dealt evaluation
    keeps that much once per thread: 6.8 MB more per worker at r = 2.  A
    build's Lanczos batches ("lanczos") keep at most 3 PAIR_CHUNK doubles
    more, 3.1 MB."""

    def __init__(self):
        self.arrays = {}


_POOL = _Pool()


def _buffer(group: str | None, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized array of ``shape`` and ``dtype``.

    With a ``group`` it is a view of this thread's pooled array (group, name,
    dtype) if that is large enough; otherwise it is new, and pooled if it
    holds at most PAIR_CHUNK entries.  So the next request of that key in
    the thread overwrites it.  Without a group it is a new array."""
    if group is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    key = (group, name, np.dtype(dtype))
    buf = _POOL.arrays.get(key)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        if size <= PAIR_CHUNK:
            _POOL.arrays[key] = buf
    return buf[:size].reshape(shape)


def _workers() -> int:
    """Threads besides the caller that ``_deal`` may use: one per usable CPU
    (the process's affinity set where the platform has one), less the caller's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


class _DealPool:
    """Daemon threads that run ``_deal``'s shares, fed by one queue; the
    process has one, ``_DEAL_POOL``, shared by concurrent callers.  Not a
    ThreadPoolExecutor: importing concurrent.futures loads logging, 5-6 ms
    at the first dealt call."""

    def __init__(self):
        self.tasks = queue.SimpleQueue()
        self.threads = 0
        self.lock = threading.Lock()

    def grow(self, threads: int) -> None:
        """Start threads until the pool has ``threads``."""
        with self.lock:
            while self.threads < threads:
                threading.Thread(target=self._serve, name="polykernel", daemon=True).start()
                self.threads += 1

    def _serve(self) -> None:
        while True:
            run, done = self.tasks.get()
            done.put(run())


_DEAL_POOL = _DealPool()  # no thread starts before a call is dealt


def _forget_deal_pool() -> None:
    """In a forked child: the parent's worker threads do not exist there, so
    work queued to them would wait for ever; the child starts its own."""
    global _DEAL_POOL
    _DEAL_POOL = _DealPool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_deal_pool)


def _deal(work, items, whole: int) -> None:
    """work(item) for every item of the sequence, item i on thread i mod T.

    ``whole`` counts the items of full size; with two or more, T is
    min(whole, 1 + ``_workers()``), else 1 and no thread starts.  Thread 0
    is the caller; the others come from ``_DEAL_POOL`` and run their
    shares in copies of the caller's context, so numpy's ``errstate`` holds
    there too.  A share stops at its first exception.  Once every share is
    done, the exception of the first failing item in item order is raised:
    every item before it has run, so it is the one that a serial loop would
    raise.
    """
    threads = min(whole, 1 + _workers()) if whole > 1 else 1
    if threads < 2:
        for item in items:
            work(item)
        return

    def share(t: int):
        for i in range(t, len(items), threads):
            try:
                work(items[i])
            except Exception as exc:
                return i, exc
        return None

    pool, results = _DEAL_POOL, queue.SimpleQueue()
    pool.grow(threads - 1)
    for t in range(1, threads):
        pool.tasks.put((functools.partial(contextvars.copy_context().run, share, t), results))
    done = [share(0)] + [results.get() for _ in range(1, threads)]
    failed = [outcome for outcome in done if outcome is not None]
    if failed:
        raise min(failed)[1]  # (item, exception) pairs of distinct items


class _FeatureMap:
    """Weighted orthonormal features of every Gram block, batched over points.

    The feature of row k of block d at z is
    Phi(z) = e^{shift} * mantissa * e^{i d arg z}, with one real log shift per
    (block, point) that carries |z|^{|d|} M_{|d|}^{-1/2} e^{-power mQ(z)} and
    the largest |pi_k(t)| of the block, and the mantissa pi_k(t) divided by
    it.  Mantissas are laid out (row, block, point), so that each step of the
    recurrence beta_{k+1} pi_{k+1} = (t - alpha_k) pi_k - beta_k pi_{k-1}, the
    maximum over rows and the division by it run in place on contiguous
    (block, point) slabs.  The coefficients are zero past a block's rows, so
    those rows are 0.
    """

    def __init__(self, factorization: GramFactorization):
        f = factorization
        rows, nb = f.alpha.shape[1] + 1, f.d.size  # rows of the widest block, min(q, n)
        self.weight, self.m = f.weight, f.spec.m
        self.d = f.d
        self.mask = np.arange(rows) < f.size[:, None]
        self.p = np.where(self.mask, np.abs(f.d)[:, None] + 2.0 * np.arange(rows), 0.0)
        beta = f.beta.T
        live = beta > 0.0  # beta_{k+1} of a row k + 1 of the block
        self.center = np.zeros((rows, nb, 1))  # alpha_k
        self.gain = np.zeros((rows, nb, 1))    # 1 / beta_{k+1}
        self.back = np.zeros((rows, nb, 1))    # beta_k / beta_{k+1}
        self.center[:rows - 1, :, 0] = f.alpha.T
        np.divide(1.0, beta, out=self.gain[:rows - 1, :, 0], where=live)
        np.divide(beta[:-1], beta[1:], out=self.back[1:rows - 1, :, 0], where=live[1:])
        low = np.abs(self.d)[:, None]
        self.half_logm = 0.5 * f.log_moments[low]
        self.low = low.astype(float)  # the shift's |d|, cast once here, not per call
        self.origin = f.spec.q - 1  # the block d = 0
        # Row k of block i is row first[i] + k of ``weighted``.  The blocks of
        # the most rows are consecutive and fill consecutive rows, written by
        # one strided product; the others, at most 2(rows - 1), by index, one
        # gather per row k.
        size = f.size
        first = np.concatenate([[0], np.cumsum(size)[:-1]])
        full = np.flatnonzero(size == rows)
        self.dim = int(size.sum())
        self.full = (slice(full[0], full[-1] + 1), rows,
                     slice(first[full[0]], first[full[-1]] + rows))
        self.ramps = []
        for k in range(rows - 1):
            b = np.flatnonzero((size > k) & (size < rows))
            self.ramps.append((k, b, first[b] + k))

    def __call__(self, z: np.ndarray, weight_power: float, side: str | None = None):
        """(shift, mantissa, angles) at flat points z, weighted by e^{-power mQ}.

        shift is (block, point) and mantissa (row, block, point).  Both live
        in the thread's pool under ``side`` if one is given (``_buffer``), so
        the next call for that side in the thread overwrites them.  A block
        that vanishes at z (|d| > 0 at the origin) has shift -inf.
        """
        require_finite_points(z, "evaluation points")
        rows, nb = self.center.shape[:2]
        x = _buffer(side, "x", (rows, nb, z.size))
        work = _buffer(side, "work", (nb, z.size))
        top = _buffer(side, "top", (nb, z.size))
        # where t or the recurrence leaves double range, top is inf or NaN and
        # the point is refused; where m Q does, the weight is e^{-inf} = 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = z.real ** 2 + z.imag ** 2
            # pi_0 = 1, so its products are exact and left out, and its row is
            # written only once normalized
            for k in range(rows - 1):
                row = x[k + 1]
                np.subtract(t, self.center[k], out=row)
                row *= self.gain[k]
                if k:
                    row *= x[k]
                    row -= self.back[k] if k == 1 else \
                        np.multiply(self.back[k], x[k - 1], out=work)
            top.fill(1.0)
            for k in range(1, rows):
                np.maximum(top, np.abs(x[k], out=work), out=top)
            if not np.isfinite(top.max()):
                raise NumericalDegeneracyError(f"features at |z| up to {np.abs(z).max():.4g} "
                                               f"leave double range (weight {self.weight.label})")
            np.divide(1.0, top, out=x[0])
            x[1:] /= top
            shift = np.multiply(self.low, np.log(np.abs(z)), out=work)
            shift[self.origin] = 0.0  # |z|^0 = 1, also at 0
            np.log(top, out=top)
            top -= self.half_logm
            shift += top
            if weight_power:
                shift -= weight_power * self.m * self.weight.eval_weight(z)
        return shift, x, np.angle(z)

    def weighted(self, z) -> np.ndarray:
        """(dim, N) correlation-kernel features Phi(z), rows in block order.

        Each row is written once, straight into the result: no complex
        (row, block, point) array is formed.  By Bessel's inequality every
        |Phi_a(z)| is at most sqrt(one-point intensity), so the dense form
        cannot overflow.
        """
        shift, x, ang = self(np.asarray(z, dtype=complex).ravel(), 0.5, "z")
        phase = _block_phases(self.d, ang, _buffer("pair", "phase", shift.shape, complex))
        phase *= np.exp(shift, out=shift)
        out = np.empty((self.dim, ang.size), dtype=complex)
        blocks, rows, dest = self.full
        np.multiply(x[:, blocks].transpose(1, 0, 2), phase[blocks, None],
                    out=out[dest].reshape(-1, rows, ang.size))
        for k, b, dest in self.ramps:
            out[dest] = x[k, b] * phase[b]
        return out


class KernelEvaluator:
    """Evaluates the reproducing kernel and derived statistical quantities.

    Immutable after construction; all evaluation paths stay in the log
    domain until the final recombination, so weighted quantities survive
    separations where the plain kernel would overflow or underflow doubles.
    Every path takes its features from ``_FeatureMap``, which refuses an
    evaluation point that is not finite with ConfigurationError.
    """

    def __init__(self, factorization: GramFactorization):
        self.factorization = factorization
        self.weight = factorization.weight
        self.spec = factorization.spec
        self.equilibrium = RadialEquilibrium.solve(self.weight)
        self._disk_radius = self.equilibrium.droplet_radius + 12.0 / math.sqrt(self.spec.m)
        self._features = _FeatureMap(factorization)

    def _pair_eval(self, z, w, power: float):
        """Pairwise kernel values as (log_scale, complex mantissa) arrays, each
        side's features carrying the weight factor e^{-power m Q}.

        Points are taken in chunks of about PAIR_CHUNK (row, block, point)
        entries, so that the working arrays stay in cache, and each chunk
        works in place in its thread's pooled buffers.  A call of two whole
        chunks or more deals them across min(whole chunks, usable CPUs)
        threads (``_deal``); each chunk is computed as in a serial loop, on
        the same boundaries, so the result does not depend on the thread
        count, and a failing call raises what the serial loop would.  The
        features are computed once on the diagonal (z is w) and once for a side
        holding a single point, which is then broadcast; two single points
        share one feature pass, which gives each the values of its own pass,
        since every feature operation is per point.  On the diagonal
        every block phase is e^0 = 1, so the blocks are summed as reals;
        elsewhere the phases e^{i d (arg z - arg w)} come from
        ``_block_phases``.
        """
        fm = self._features
        same = z is w
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if z.size == w.size == 1 and not same:
            shift, x, ang = fm(np.concatenate([z.ravel(), w.ravel()]), power)
            once_z = shift[:, :1], x[:, :, :1], ang[:1]
            once_w = shift[:, 1:], x[:, :, 1:], ang[1:]
        else:
            once_z = z.size == 1 and fm(z.ravel(), power)
            once_w = w.size == 1 and not same and fm(w.ravel(), power)
        z, w = np.broadcast_arrays(z, w)
        shape = z.shape
        zf, wf = z.ravel(), w.ravel()
        top = np.empty(zf.size)
        mant = np.empty(zf.size, dtype=complex)
        step = max(1, PAIR_CHUNK // fm.p.size)

        def chunk(lo: int) -> None:
            part = slice(lo, lo + step)
            sz, az, ang_z = once_z or fm(zf[part], power, "z")
            sw, aw, ang_w = (sz, az, ang_z) if same else once_w or fm(wf[part], power, "w")
            slab = np.broadcast_shapes(sz.shape, sw.shape)
            logs = np.add(sz, sw, out=_buffer("pair", "logs", slab))
            vals = np.multiply(az[0], aw[0], out=_buffer("pair", "vals", slab))
            work = _buffer("pair", "work", slab)
            for r in range(1, len(az)):
                vals += np.multiply(az[r], aw[r], out=work)
            t = np.max(logs, axis=0)
            t = np.where(np.isfinite(t), t, 0.0)
            top[part] = t
            logs -= t
            np.exp(logs, out=logs)
            if not same:
                phase = _block_phases(fm.d, ang_z - ang_w,
                                      _buffer("pair", "phase", slab, complex))
                phase *= vals
                vals = phase
            vals *= logs
            mant[part] = np.sum(vals, axis=0)

        _deal(chunk, range(0, zf.size, step), zf.size // step)
        return top.reshape(shape), mant.reshape(shape)

    # -- public evaluation --------------------------------------------------

    def kernel(self, z, w):
        """Plain kernel value; refuses past double range (large m Q)."""
        scale, mant = self._pair_eval(z, w, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            out = mant * np.exp(scale)
        require_finite(out, scale, "log-scale of K(z, w)", self.spec.m)
        return out if out.shape else complex(out)

    def weighted_kernel(self, z, w):
        """Correlation kernel: weight factors e^{-mQ/2} folded per side."""
        scale, mant = self._pair_eval(z, w, 0.5)
        out = mant * np.exp(scale)
        return out if out.shape else complex(out)

    def log_abs_weighted_kernel(self, z, w):
        """log |weighted kernel|; -inf where the value is an exact zero."""
        scale, mant = self._pair_eval(z, w, 0.5)
        with np.errstate(divide="ignore"):
            out = scale + np.log(np.abs(mant))
        return out if out.shape else float(out)

    def one_point_intensity(self, z):
        """Expected point density K(z,z) e^{-mQ(z)} >= 0."""
        scale, mant = self._pair_eval(z, z, 0.5)
        out = np.maximum(np.real(mant), 0.0) * np.exp(scale)
        return out if out.shape else float(out)

    def log_one_point_intensity(self, z):
        scale, mant = self._pair_eval(z, z, 0.5)
        with np.errstate(divide="ignore"):
            out = scale + np.log(np.maximum(np.real(mant), 0.0))
        return out if out.shape else float(out)

    def _weighted_matrix(self, points: np.ndarray) -> np.ndarray:
        """All pairwise weighted kernel values, Phi^T conj(Phi)."""
        phi = self._features.weighted(points)
        return phi.T @ phi.conj()

    def k_point_intensity(self, points) -> float:
        """Determinant of the weighted kernel matrix at the given points."""
        pts = np.asarray(points, dtype=complex).ravel()
        k = pts.size
        if not (1 <= k <= self.spec.dim):
            raise ConfigurationError(
                f"k-point intensity needs 1 <= k <= {self.spec.dim}, got {k}"
            )
        mat = self._weighted_matrix(pts)
        det = float(np.real(np.linalg.det(mat)))
        scale = float(np.prod(np.maximum(np.real(np.diag(mat)), 0.0)))
        if det < 0.0:
            if det < -NEGATIVE_DET_CLAMP * max(scale, 1e-300):
                warnings.warn(
                    f"{k}-point intensity determinant {det:.3e} is negative beyond "
                    f"roundoff (scale {scale:.3e}); clamping to 0",
                    stacklevel=2,
                )
            det = 0.0
        return det

    def joint_density(self, points) -> float:
        """Symmetric density of the full nq-point configuration."""
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size != self.spec.dim:
            raise ConfigurationError(
                f"joint density needs exactly {self.spec.dim} points, got {pts.size}"
            )
        mat = self._weighted_matrix(pts)
        sign, logabs = np.linalg.slogdet(mat)
        if not np.isfinite(logabs) or np.real(sign) <= 0.0:
            return 0.0
        return float(np.real(sign) * np.exp(logabs - math.lgamma(self.spec.dim + 1)))

    def berezin_density(self, z, w):
        """Probability density |K(w,z)|^2 e^{-mQ(w)} / K(z,z) centred at z."""
        log_gamma = self.log_one_point_intensity(z)
        if not np.all(np.isfinite(np.atleast_1d(log_gamma))):
            raise NumericalDegeneracyError(
                f"berezin centre z={z} has vanishing diagonal kernel"
            )
        log_k = self.log_abs_weighted_kernel(w, z)
        out = np.exp(2.0 * np.asarray(log_k) - log_gamma)
        return out if out.shape else float(out)

    def _radial_rule(self, least: int):
        """Gauss-Legendre radii and weights on gamma's disk [0, R + 12 m^{-1/2}].

        gamma is e^{-mQ} times a polynomial of degree 2(n+q-2) in rho, which
        needs 3(n+q) radii.  For a weight of degree K in |z|^2 the edge of
        gamma also steepens with K and carries more ripples as q grows: over
        power:p=2..8, q = 2..40 and n = m in {60, 115}, the least count (in
        steps of 25) for a trace within 1e-12 nq, where above 200, was 20.6
        to 29.1 times K + sqrt(K q).  So the node count is
        max(least, 3(n+q), 28(K + sqrt(K q))).
        """
        q, k = self.spec.q, self.weight.degree
        count = max(least, 3 * (self.spec.n + q), math.ceil(28 * (k + math.sqrt(k * q))))
        return gauss_legendre_on(count, 0.0, self._disk_radius)

    def _reproduced_monomials(self, z: complex) -> np.ndarray:
        """(q, n) table of int conj(w)^r w^j K(z,w) e^{-mQ(w)} dA(w), w on gamma's disk.

        In polar coordinates the block d part of K(z,w) carries the phase
        e^{i d (arg z - arg w)} and the monomial the phase e^{i (j-r) arg w},
        so the angular integral keeps block d = j - r alone and is exact.  A
        polar grid gives the same numbers: the integrand's Fourier modes in
        arg w lie in [-(n+q-2), n+q-2], and the trapezoid rule on
        n_phi > n+q-2 angles integrates each of them exactly (Trefethen and
        Weideman, SIAM Review 56 (2014)).  What is left is one radial
        integral per basis monomial, on the radii of ``_radial_rule`` (at
        least 128) on the positive real axis:

            e^{i d arg z} sum_k 2 w_k rho_k rho_k^{2r+d}
                          sum_s e_s(z) e_s(rho_k) e^{-mQ(rho_k)},

        contracted in the log domain over the features of block d.
        """
        q, n = self.spec.q, self.spec.n
        fm = self._features
        rho, w_rho = self._radial_rule(128)
        sz, az, ang_z = fm(np.array([z], dtype=complex), 0.0, "w")
        sr, ar, _ = fm(rho.astype(complex), 1.0, "z")
        mant = np.einsum("sb,sbk->bk", az[:, :, 0], ar)
        # log of e^{shifts} * 2 w_k rho_k * rho_k^p, for every (block, row, radius)
        logs = fm.p[:, :, None] * np.log(rho)
        logs += (sz + sr + np.log(2.0 * w_rho * rho))[:, None, :]
        t = np.max(logs, axis=2)
        t = np.where(np.isfinite(t), t, 0.0)
        logs -= t[:, :, None]
        np.exp(logs, out=logs)
        logs *= mant[:, None, :]
        vals = np.exp(t) * np.sum(logs, axis=2)
        vals = vals * _block_phases(fm.d, ang_z)
        r = self.factorization.r0[:, None] + np.arange(fm.mask.shape[1])
        table = np.empty((q, n), dtype=complex)
        table[r[fm.mask], (r + fm.d[:, None])[fm.mask]] = vals[fm.mask]
        return table

    def reproducing_residual(self, z: complex) -> float:
        """Worst basis-monomial reproduction defect at the probe point.

        max over basis monomials phi of
        | int phi(w) K(z,w) e^{-mQ(w)} dA(w) - phi(z) | / (1 + |phi(z)|),
        with the integrals of ``_reproduced_monomials``: exact in the angle, on
        the max(128, 3(n+q), 28(K + sqrt(K q))) radii of ``_radial_rule``.
        """
        q, n = self.spec.q, self.spec.n
        vals = self._reproduced_monomials(z)
        phi_z = np.outer(np.conjugate(z) ** np.arange(q), z ** np.arange(n))
        return float(np.max(np.abs(vals - phi_z) / (1.0 + np.abs(phi_z))))

    def total_intensity(self) -> float:
        """Quadrature of the one-point intensity; equals nq by orthonormality.

        gamma is radial, so this is int 2 rho gamma(rho) d rho on the radii of
        ``_radial_rule``, at least 400.  The sampler's disk check reads it.
        """
        rho, w_rho = self._radial_rule(400)
        return float(np.sum(2.0 * w_rho * rho * self.one_point_intensity(rho.astype(complex))))


def build_space(weight: WeightModel, spec: SpaceSpec) -> KernelEvaluator:
    """Assemble moments, blocks, and their recurrences for one space."""
    return KernelEvaluator(GramFactorization(weight, spec))


def _ladder_spaces(weight: WeightModel, q: int, ms, ns):
    """The rungs (m, K) of an m ladder in the order of ms.  The top rung (largest
    n, ties to largest m) is built first, when first read; a one-term weight
    re-bases it to every other rung (``_rebased``), other weights build each."""
    top = max(range(len(ms)), key=lambda i: (ns[i], ms[i]))
    built = GramFactorization(weight, SpaceSpec(q, ns[top], ms[top]))
    for i, (m, n) in enumerate(zip(ms, ns)):
        if i == top:
            yield m, KernelEvaluator(built)
        elif built._one_term:
            yield m, KernelEvaluator(built._rebased(SpaceSpec(q, n, m)))
        else:
            yield m, build_space(weight, SpaceSpec(q, n, m))
