"""Sequence-indexed probability vectors and causal-conditioning kernels.

A length-n sequence over an alphabet of size K is addressed by

    index(a) = sum_i a_i * K**(n - i)

with the first symbol most significant.  A causal kernel stores
p(a^n || b^{n-d}) as a matrix whose rows are indexed by a^n and whose
columns are indexed by b^{n-d}; the delay d is 0 for channels
(p(y^n || x^n)) and 1 for feedback input laws (p(x^n || y^{n-1})).

Such a matrix is a valid causal kernel exactly when its entries are
nonnegative, every column sums to 1, and for every prefix level i the
partial sums over the tail a_{i+1..n} agree across all conditioning
contexts that share the first i-d symbols.  ``validate_causal`` checks
these constraints, ``compose_causal``/``factorize_causal`` convert
between the matrix form and the per-step conditionals.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import tolerances

LN2 = math.log(2.0)

# Fewest entries that numpy's sum adds pairwise (in blocks of 8) rather
# than one after another.
PAIRWISE_BLOCK = 8

# Conditionals on prefixes whose partial sum falls below this are taken
# uniform (the dead-branch convention used by factorize_causal).
DEAD_BRANCH_FLOOR = 1e-12


def sequence_index(seq, alphabet_size):
    """Lexicographic index of a symbol sequence, first symbol most significant."""
    idx = 0
    for s in seq:
        if not 0 <= s < alphabet_size:
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet_size}")
        idx = idx * alphabet_size + int(s)
    return idx


def index_sequence(index, alphabet_size, n):
    """Inverse of sequence_index; returns a tuple of n symbols."""
    if not 0 <= index < alphabet_size**n:
        raise ValueError("index out of range")
    out = []
    for _ in range(n):
        index, r = divmod(index, alphabet_size)
        out.append(r)
    return tuple(reversed(out))


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SequencePmf:
    """Probability vector over length-n sequences, lexicographically indexed."""

    alphabet_size: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        size = self.alphabet_size**self.n
        if v.shape[0] != size:
            raise ValueError(f"expected {size} entries, got {v.shape[0]}")
        lo = v.min() if size else 0.0
        if lo < -tolerances.entry_floor:
            raise ValueError(f"negative probability {lo:.3e}")
        total = v.sum()
        if abs(total - 1.0) > tolerances.pmf_sum:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        # small negatives are rounding noise; clamp once at construction
        object.__setattr__(self, "values", _freeze(np.maximum(v, 0.0)))

    def as_array(self):
        """Values reshaped to one axis per position."""
        return self.values.reshape((self.alphabet_size,) * self.n)

    def entry(self, seq):
        return float(self.values[sequence_index(seq, self.alphabet_size)])

    def prefix_marginal(self, i):
        """Marginal pmf of the first i symbols."""
        if not 0 <= i <= self.n:
            raise ValueError("prefix length out of range")
        k = self.alphabet_size
        rows = self.values.reshape(k**i, k ** (self.n - i))
        if rows.shape[1] >= PAIRWISE_BLOCK:
            return SequencePmf(k, i, rows.sum(axis=1))
        # numpy adds fewer than PAIRWISE_BLOCK entries one after another,
        # so adding the columns in order gives the same bits without its
        # per-row cost
        v = rows[:, 0].copy()
        for j in range(1, rows.shape[1]):
            v += rows[:, j]
        return SequencePmf(k, i, v)

    def suffix_marginal(self, i):
        """Marginal pmf of the last i symbols."""
        if not 0 <= i <= self.n:
            raise ValueError("suffix length out of range")
        k = self.alphabet_size
        v = self.values.reshape(k ** (self.n - i), k**i).sum(axis=0)
        return SequencePmf(k, i, v)


@dataclass(frozen=True)
class StepPolicy:
    """Per-step conditionals p(a_i | a^{i-1}, b^{i-d}) for i = 1..n.

    steps[i-1] has shape (A**(i-1), B**max(i-d, 0), A); the last axis is
    the distribution of a_i given the (a-prefix, b-context) pair.
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
            if arr.shape != want:
                raise ValueError(f"step {i}: shape {arr.shape}, expected {want}")
            if arr.min() < -tolerances.entry_floor or arr.max() > 1 + tolerances.entry_floor:
                raise ValueError(f"step {i}: entries outside [0, 1]")
            rows = arr.sum(axis=-1)
            err = np.abs(rows - 1.0).max()
            if err > tolerances.conditional_row:
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
        if v.size and v.min() < -tolerances.entry_floor:
            raise ValueError("negative kernel entry")
        object.__setattr__(self, "values", _freeze(v))


@dataclass
class ValidationReport:
    """Outcome of validate_causal: every violated constraint with its size."""

    passed: bool
    max_violation: float
    tol: float
    violations: list = field(default_factory=list)

    def to_text(self):
        lines = [
            f"passed: {self.passed}",
            f"max_violation: {self.max_violation:.3e}",
            f"tol: {self.tol:.3e}",
        ]
        lines.extend(f"violation: {name} ({mag:.3e})" for name, mag in self.violations)
        return "\n".join(lines) + "\n"


def compose_causal(policy: StepPolicy) -> CausalKernel:
    """Multiply per-step conditionals into the full causal kernel."""
    a, b, n, d = policy.out_alphabet, policy.in_alphabet, policy.n, policy.delay
    cur = np.ones((1, 1))
    for i in range(1, n + 1):
        step = policy.steps[i - 1]
        ncols = b ** max(i - d, 0)
        if ncols > cur.shape[1]:
            cur = np.repeat(cur, b, axis=1)
        new = cur[:, :, None] * step
        cur = new.transpose(0, 2, 1).reshape(a**i, ncols)
    return CausalKernel(a, b, n, d, cur)


def _partial_sums(kernel, level):
    """Sum the kernel over tails a_{level+1..n}; shape (A**level, B**(n-d))."""
    a, n = kernel.out_alphabet, kernel.n
    v = kernel.values
    return v.reshape(a**level, a ** (n - level), v.shape[1]).sum(axis=1)


def validate_causal(kernel: CausalKernel, tol=None) -> ValidationReport:
    """Check nonnegativity, column normalization and prefix consistency."""
    if tol is None:
        tol = tolerances.kernel
    a, b, n, d = kernel.out_alphabet, kernel.in_alphabet, kernel.n, kernel.delay
    v = kernel.values
    violations = []
    worst = 0.0

    neg = max(0.0, float(-v.min())) if v.size else 0.0
    worst = max(worst, neg)
    if neg > tol:
        violations.append(("negativity", neg))

    col_err = np.abs(v.sum(axis=0) - 1.0)
    worst = max(worst, float(col_err.max()))
    for j in np.flatnonzero(col_err > tol):
        violations.append((f"normalization b-context {j}", float(col_err[j])))

    # prefix consistency: partial sums at level i may depend on the first
    # i-d conditioning symbols only
    for i in range(1, n):
        s = _partial_sums(kernel, i)
        j = max(i - d, 0)
        group = b ** (n - d - j)
        if group == 1:
            continue
        grouped = s.reshape(a**i, b**j, group)
        diff = np.abs(grouped - grouped[:, :, :1])
        worst = max(worst, float(diff.max()))
        for r, g, c in zip(*np.nonzero(diff > tol)):
            violations.append(
                (
                    f"prefix consistency level {i} a-prefix {r} b-context {g * group + c}",
                    float(diff[r, g, c]),
                )
            )

    return ValidationReport(worst <= tol, worst, tol, violations)


def factorize_causal(kernel: CausalKernel, tol=None) -> StepPolicy:
    """Recover per-step conditionals from a valid causal kernel.

    Conditionals on prefixes with vanishing probability are set uniform,
    so the result always composes back to the kernel on live branches.
    """
    report = validate_causal(kernel, tol)
    if not report.passed:
        raise ValueError(f"not a causal kernel (max violation {report.max_violation:.3e})")
    a, b, n, d = kernel.out_alphabet, kernel.in_alphabet, kernel.n, kernel.delay

    # prefix-sum tables, collapsed onto the symbols they may depend on
    tables = [np.ones((1, 1))]
    for i in range(1, n + 1):
        s = _partial_sums(kernel, i)
        j = max(i - d, 0)
        group = b ** (n - d - j)
        tables.append(s.reshape(a**i, b**j, group).mean(axis=2))

    steps = []
    for i in range(1, n + 1):
        j = max(i - d, 0)
        jprev = max(i - 1 - d, 0)
        num = tables[i].reshape(a ** (i - 1), a, b**j)
        den = tables[i - 1]
        if j > jprev:
            den = np.repeat(den, b, axis=1)
        den = den[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(den > DEAD_BRANCH_FLOOR, num / den, 1.0 / a)
        cond = np.clip(cond, 0.0, 1.0)
        steps.append(cond.transpose(0, 2, 1))
    return StepPolicy(a, b, n, d, tuple(steps))


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


def chain_join(input_kernel: CausalKernel, channel: CausalKernel) -> SequencePmf:
    """Joint pmf p(x^n, y^n) = p(x^n || y^{n-1}) p(y^n || x^n).

    Returned over paired symbols z_i = x_i * |Y| + y_i so that the result
    is an ordinary SequencePmf over alphabet |X| * |Y|.
    """
    joint = _joint(input_kernel, channel)
    x, y, n = input_kernel.out_alphabet, input_kernel.in_alphabet, input_kernel.n
    arr = joint.T.reshape((x,) * n + (y,) * n)
    perm = [ax for i in range(n) for ax in (i, n + i)]
    return SequencePmf(x * y, n, arr.transpose(perm).reshape(-1))


def open_loop_kernel(pmf: SequencePmf, feedback_alphabet: int) -> CausalKernel:
    """Lift a plain input pmf to a causal kernel that ignores the feedback."""
    cols = feedback_alphabet ** (pmf.n - 1)
    values = np.tile(pmf.values[:, None], (1, cols))
    return CausalKernel(pmf.alphabet_size, feedback_alphabet, pmf.n, 1, values)


def random_policy(out_alphabet, in_alphabet, n, delay, rng, low=0.05):
    """Random strictly positive StepPolicy, for tests and probing."""
    steps = []
    for i in range(1, n + 1):
        shape = (out_alphabet ** (i - 1), in_alphabet ** max(i - delay, 0), out_alphabet)
        raw = rng.uniform(low, 1.0, size=shape)
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


def kl_divergence(p, q):
    """KL divergence in bits; +inf when support(p) is not within support(q)."""
    pv = p.values if isinstance(p, SequencePmf) else np.asarray(p, dtype=float)
    qv = q.values if isinstance(q, SequencePmf) else np.asarray(q, dtype=float)
    if pv.shape != qv.shape:
        raise ValueError("shape mismatch")
    mask = pv > 0
    if np.any(qv[mask] <= 0):
        return math.inf
    return float((pv[mask] * (np.log2(pv[mask]) - np.log2(qv[mask]))).sum())
