"""Sequence-indexed probability vectors and causal-conditioning kernels.

A length-n sequence over an alphabet of size K is addressed by

    index(a) = sum_i a_i * K**(n - i)

with the first symbol most significant.  A causal kernel stores
p(a^n || b^{n-d}) as a matrix whose rows are indexed by a^n and whose
columns are indexed by b^{n-d}; the delay d is 0 for channels
(p(y^n || x^n)) and 1 for feedback input laws (p(x^n || y^{n-1})).
``compose_causal`` multiplies per-step conditionals into that matrix,
and ``_joint`` pairs an input kernel with a channel kernel into the
joint law the directed-information functionals sum over.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LN2 = math.log(2.0)

# Fewest entries that numpy's sum adds pairwise (in blocks of 8) rather
# than one after another.
PAIRWISE_BLOCK = 8

# Most entries that numpy's pairwise sum adds as one block, without
# splitting them in halves.
PAIRWISE_ROOT = 128

# Slack of the validity checks on pmfs, step conditionals and kernels:
# how far below zero an entry may drift, how far a pmf total may stray
# from 1, and how far a conditional row sum may.
ENTRY_FLOOR = 1e-12
PMF_SUM_TOL = 1e-9
CONDITIONAL_ROW_TOL = 1e-12

# Least weight, before normalizing, that random_policy draws for a symbol.
POLICY_FLOOR = 0.05


def sequence_index(seq, alphabet_size):
    """Lexicographic index of a symbol sequence, first symbol most significant."""
    idx = 0
    for s in seq:
        if not 0 <= s < alphabet_size:
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet_size}")
        idx = idx * alphabet_size + int(s)
    return idx


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SequencePmf:
    """Probability vector over length-n sequences, lexicographically indexed.

    values is adopted as given when it is a read-only, C-contiguous, 1-D
    float64 array that owns its data and has no entry with its sign bit
    set (no negative entry, no -0.0): clamping it would change no bit,
    and no other array can change it or be kept alive by it.  Any other
    input is copied, with entries below zero clamped to 0.

    prefix_marginal caches the sums of the PAIRWISE_ROOT-entry blocks of
    values on first use: a read-only array of len(values) / 128 entries,
    held outside the dataclass fields, so == and repr ignore it.
    """

    alphabet_size: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        owned = (
            isinstance(v, np.ndarray)
            and v.dtype == np.float64
            and v.ndim == 1
            and v.flags.c_contiguous
            and not v.flags.writeable
            and v.base is None
        )
        if not owned:
            v = np.asarray(v, dtype=float).reshape(-1)
        size = self.alphabet_size**self.n
        if v.shape[0] != size:
            raise ValueError(f"expected {size} entries, got {v.shape[0]}")
        lo = v.min() if size else 0.0
        if lo < -ENTRY_FLOOR:
            raise ValueError(f"negative probability {lo:.3e}")
        total = v.sum()
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if not (owned and (lo > 0.0 or not np.signbit(v).any())):
            # small negatives are rounding noise; clamp once at construction
            object.__setattr__(self, "values", _freeze(np.maximum(v, 0.0)))

    def entry(self, seq):
        return float(self.values[sequence_index(seq, self.alphabet_size)])

    @cached_property
    def _block_sums(self):
        """Sums of the consecutive PAIRWISE_ROOT-entry blocks of values, read-only."""
        return _freeze(self.values.reshape(-1, PAIRWISE_ROOT).sum(axis=1))

    def prefix_marginal(self, i):
        """Marginal pmf of the first i symbols.

        Each entry has the bits of numpy's sum over its tail of
        t = k^(n-i) entries.  That sum is pairwise: a run of t >= 8
        entries is split in halves rounded down to a multiple of 8 until
        at most PAIRWISE_ROOT = 128 remain, and each such block is added
        by 8 accumulators, combined pairwise.  So when t is a power of
        two, at least 128, the tail sums are the 128-entry block sums,
        cached once per pmf, halved pairwise; and at t = 8 they are the
        entries halved pairwise three times.  Every other t is summed
        directly.
        """
        if not 0 <= i <= self.n:
            raise ValueError("prefix length out of range")
        k = self.alphabet_size
        tail = k ** (self.n - i)
        if tail == PAIRWISE_BLOCK or (tail >= PAIRWISE_ROOT and not tail & (tail - 1)):
            v = self.values if tail == PAIRWISE_BLOCK else self._block_sums
            while len(v) > k**i:
                v = v[0::2] + v[1::2]
            return SequencePmf(k, i, _freeze(v))
        rows = self.values.reshape(k**i, tail)
        if tail > PAIRWISE_BLOCK:
            return SequencePmf(k, i, _freeze(rows.sum(axis=1)))
        # numpy adds fewer than PAIRWISE_BLOCK entries one after another,
        # so adding the columns in order gives the same bits without its
        # per-row cost
        v = rows[:, 0] + rows[:, 1] if tail > 1 else rows[:, 0].copy()
        for j in range(2, tail):
            v += rows[:, j]
        return SequencePmf(k, i, _freeze(v))


@dataclass(frozen=True)
class StepPolicy:
    """Per-step conditionals p(a_i | a^{i-1}, b^{i-d}) for i = 1..n.

    steps[i-1] has shape (A**(i-1), B**max(i-d, 0), A), or first axis 1
    for a step that does not depend on a^{i-1}; the last axis is the
    distribution of a_i given the (a-prefix, b-context) pair.
    """

    out_alphabet: int
    in_alphabet: int
    n: int
    delay: int
    steps: tuple

    def __post_init__(self):
        if self.delay not in (0, 1):
            raise ValueError("delay must be 0 or 1")
        if len(self.steps) != self.n:
            raise ValueError("one conditional array required per step")
        a, b = self.out_alphabet, self.in_alphabet
        frozen = []
        for i, step in enumerate(self.steps, start=1):
            arr = np.asarray(step, dtype=float)
            want = (a ** (i - 1), b ** max(i - self.delay, 0), a)
            if arr.shape not in (want, (1, *want[1:])):
                raise ValueError(f"step {i}: shape {arr.shape}, expected {want} or {(1, *want[1:])}")
            if arr.min() < -ENTRY_FLOOR or arr.max() > 1 + ENTRY_FLOOR:
                raise ValueError(f"step {i}: entries outside [0, 1]")
            rows = arr.sum(axis=-1)
            err = np.abs(rows - 1.0).max()
            if err > CONDITIONAL_ROW_TOL:
                raise ValueError(f"step {i}: conditional rows sum to 1 +/- {err:.3e}")
            frozen.append(_freeze(arr))
        object.__setattr__(self, "steps", tuple(frozen))


@dataclass(frozen=True)
class CausalKernel:
    """Matrix form of p(a^n || b^{n-d}); rows a^n, columns b^{n-d}.

    out_alphabet is the alphabet of the sequence variable a, in_alphabet
    the alphabet of the conditioning sequence b; values is a dense array.
    """

    out_alphabet: int
    in_alphabet: int
    n: int
    delay: int
    values: object

    # Always dense; read by the benchmark's tracer (bench/tracing.py).
    is_sparse = False

    def __post_init__(self):
        if self.delay not in (0, 1):
            raise ValueError("delay must be 0 or 1")
        want = (self.out_alphabet**self.n, self.in_alphabet ** (self.n - self.delay))
        v = np.asarray(self.values, dtype=float)
        if v.shape != want:
            raise ValueError(f"shape {v.shape}, expected {want}")
        if v.size and v.min() < -ENTRY_FLOOR:
            raise ValueError("negative kernel entry")
        object.__setattr__(self, "values", _freeze(v))


def compose_causal(policy: StepPolicy) -> CausalKernel:
    """Multiply per-step conditionals into the full causal kernel, one broadcast pass per step."""
    a, b, n, d = policy.out_alphabet, policy.in_alphabet, policy.n, policy.delay
    cur = np.ones((1, 1))
    for i, step in enumerate(policy.steps, start=1):
        # step axes as (a^(i-1) or 1, a_i, b-context so far, new b-symbols)
        step = step.reshape(len(step), cur.shape[1], -1, a).transpose(0, 3, 1, 2)
        cur = (cur[:, None, :, None] * step).reshape(a**i, -1)
    return CausalKernel(a, b, n, d, cur)


def _joint(input_kernel: CausalKernel, channel: CausalKernel):
    """Joint p(x^n, y^n) = p(x^n || y^{n-1}) p(y^n || x^n), indexed [y^n, x^n].

    Raises ValueError unless the two kernels form an (input, channel) pair.
    """
    if input_kernel.delay != 1 or channel.delay != 0:
        raise ValueError("expected an input kernel (d=1) and a channel kernel (d=0)")
    if input_kernel.n != channel.n:
        raise ValueError("length mismatch")
    if (
        channel.in_alphabet != input_kernel.out_alphabet
        or channel.out_alphabet != input_kernel.in_alphabet
    ):
        raise ValueError("alphabet mismatch")
    return channel.values * np.repeat(input_kernel.values.T, channel.out_alphabet, axis=0)


def random_policy(out_alphabet, in_alphabet, n, delay, rng):
    """Random strictly positive StepPolicy, for tests and probing."""
    steps = []
    for i in range(1, n + 1):
        shape = (out_alphabet ** (i - 1), in_alphabet ** max(i - delay, 0), out_alphabet)
        raw = rng.uniform(POLICY_FLOOR, 1.0, size=shape)
        steps.append(raw / raw.sum(axis=-1, keepdims=True))
    return StepPolicy(out_alphabet, in_alphabet, n, delay, tuple(steps))


def binary_entropy(p):
    """Entropy of a Bernoulli(p) in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def entropy(pmf):
    """Entropy in bits; accepts a SequencePmf or an array of probabilities."""
    v = pmf.values if isinstance(pmf, SequencePmf) else np.asarray(pmf, dtype=float)
    v = v[v > 0]
    return float(-(v * np.log2(v)).sum())
