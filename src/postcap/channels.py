"""Channel families whose state is the previous output.

Every family member is data: one column-stochastic matrix per state
class, plus the class of each state, with the state set equal to the
output alphabet.  Sequence-level matrices come from one block recursion
on the first symbol: block (i, j) of the level-n matrix from state s is
C_s[i, j] times the level-(n-1) matrix from the state named by i or j.
With C_s = p(y | x, s) it builds the channel p(y^n || x^n, s0); with the
inverse one-step matrices it builds the channel's inverse.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .probability import CausalKernel, SequencePmf, _freeze
from .tolerances import _read_key_values, tolerances

# Beyond this many matrix entries a sequence-level matrix must be sparse.
DENSE_ENTRY_CAP = 2**20

# One-step matrices with |det| at or below this count as singular.
SINGULAR_DET = 1e-9


class SingularChannelError(ValueError):
    """The sequence-level channel matrix has no inverse."""


class _StateMatrices:
    """A channel as data: one column-stochastic matrix per state class.

    class_matrices maps the representative state of each class to its
    matrix p(y | x, s), rows y and columns x; state_classes gives the
    representative of every state.  Both are built on first use.
    """

    @cached_property
    def state_classes(self):
        return tuple(range(len(self.class_matrices)))


@dataclass(frozen=True)
class PostAlpha(_StateMatrices):
    """Binary channel: a Z channel after output 0, an S channel after output 1."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @cached_property
    def class_matrices(self):
        a = self.alpha
        return {0: _freeze([[1.0, a], [0.0, 1.0 - a]]), 1: _freeze([[1.0 - a, 0.0], [a, 1.0]])}


@dataclass(frozen=True)
class PostAB(_StateMatrices):
    """Binary channel with per-state parameter pairs (a, b) and (b, a)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0):
            raise ValueError("a and b must lie in [0, 1]")

    @cached_property
    def class_matrices(self):
        a, b = self.a, self.b
        return {0: _freeze([[a, 1.0 - b], [1.0 - a, b]]), 1: _freeze([[b, 1.0 - a], [1.0 - b, a]])}


@dataclass(frozen=True)
class MaryPost(_StateMatrices):
    """The (m+1)-ary channel whose edges carry probability 1/2 or 1.

    From any state below m, an input below m is delivered intact or
    replaced by m, each with probability 1/2, while input m always
    yields m.  From state m every input below m yields m, and input m
    resets the output to 0.  The states below m form one class.
    """

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")

    @cached_property
    def state_classes(self):
        return (0,) * self.m + (self.m,)

    @cached_property
    def class_matrices(self):
        m = self.m
        below = np.zeros((m + 1, m + 1))
        below[range(m), range(m)] = 0.5
        below[m, :m] = 0.5
        below[m, m] = 1.0
        top = np.zeros((m + 1, m + 1))
        top[m, :m] = 1.0
        top[0, m] = 1.0
        return {0: _freeze(below), m: _freeze(top)}


@dataclass(frozen=True)
class CustomPost(_StateMatrices):
    """Arbitrary per-state column-stochastic matrices; state = previous output."""

    state_matrices: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.state_matrices)
        if not mats:
            raise ValueError("at least one state matrix required")
        y, x = mats[0].shape
        if len(mats) != y:
            raise ValueError("state count must equal the output alphabet")
        for m in mats:
            if m.shape != (y, x):
                raise ValueError("state matrices must share one shape")
            if m.min() < -tolerances.entry_floor:
                raise ValueError("negative channel probability")
            if np.abs(m.sum(axis=0) - 1.0).max() > tolerances.conditional_row:
                raise ValueError("state matrices must be column-stochastic")
        object.__setattr__(self, "state_matrices", tuple(_freeze(m) for m in mats))

    @cached_property
    def class_matrices(self):
        return dict(enumerate(self.state_matrices))


def output_alphabet(spec):
    return len(spec.state_classes)


def input_alphabet(spec):
    return spec.class_matrices[spec.state_classes[0]].shape[1]


def state_class(spec, state):
    """Canonical representative of states with identical behavior."""
    return spec.state_classes[state]


def initial_states(spec):
    """Initial states worth scanning (one per behavior class)."""
    return tuple(sorted(set(spec.state_classes)))


def step_kernel(spec, state):
    """One-step matrix p(y | x, state); columns indexed by x, rows by y."""
    if not 0 <= state < output_alphabet(spec):
        raise ValueError(f"state {state} out of range")
    return np.array(spec.class_matrices[spec.state_classes[state]])


def _block_matrix(coeffs, state_classes, n, target, by_column=False, sparse=False):
    """Level-n matrix of the first-symbol block recursion from class target.

    coeffs maps each class to its one-step matrix C_c.  Block (i, j) of
    the level-l matrix of class c is C_c[i, j] times the level-(l-1)
    matrix of the class of state i (of state j with by_column).  Each
    level is written into one preallocated array (dense) or one set of
    coordinate arrays (sparse); only the target class is built at the
    top level.  A dense result above DENSE_ENTRY_CAP entries raises
    before anything is allocated.
    """
    rows, cols = next(iter(coeffs.values())).shape
    entries = rows**n * cols**n
    if not sparse and entries > DENSE_ENTRY_CAP:
        raise ValueError(f"dense matrix would hold {entries} entries (cap {DENSE_ENTRY_CAP})")
    # (i, j, C_c[i, j], class whose lower-level matrix fills block (i, j))
    terms = {
        cls: [
            (i, j, mat[i, j], state_classes[j if by_column else i])
            for i, j in np.argwhere(mat).tolist()
        ]
        for cls, mat in coeffs.items()
    }
    index = np.int32 if max(rows, cols) ** n < 2**31 else np.int64
    zero = np.zeros(1, index)
    one = sp.coo_array((np.ones(1), (zero, zero)), shape=(1, 1)) if sparse else np.ones((1, 1))
    prev = dict.fromkeys(coeffs, one)
    for level in range(1, n + 1):
        r, c = rows ** (level - 1), cols ** (level - 1)
        shape = (rows * r, cols * c)
        cur = {}
        for cls in coeffs if level < n else (target,):
            if sparse:
                size = sum(prev[src].nnz for *_, src in terms[cls])
                row, col, data = np.empty(size, index), np.empty(size, index), np.empty(size)
            else:
                out = np.zeros(shape)
            pos = 0
            for i, j, w, src in terms[cls]:
                block = prev[src]
                if sparse:
                    span = slice(pos, pos + block.nnz)
                    pos += block.nnz
                    np.add(block.row, i * r, out=row[span])
                    np.add(block.col, j * c, out=col[span])
                    np.multiply(w, block.data, out=data[span])
                else:
                    np.multiply(w, block, out=out[i * r : (i + 1) * r, j * c : (j + 1) * c])
            cur[cls] = sp.coo_array((data, (row, col)), shape=shape) if sparse else out
        prev = cur
    return prev[target].tocsc() if sparse else prev[target]


def _vector_levels(coeffs, n):
    """Levels 1..n of the first-symbol block recursion on vectors, lazily.

    coeffs has shape (k, r, k): C_s for each of the k states.  Row s of
    level l is v_s = concat_i sum_j C_s[i, j] v_j of level l - 1, with
    v_s = 1 at level 0; each level is one matrix product.  A row above
    DENSE_ENTRY_CAP entries at level n raises before the first product.
    """
    k, r, _ = coeffs.shape
    if r**n > DENSE_ENTRY_CAP:
        raise ValueError(f"vector would hold {r**n} entries (cap {DENSE_ENTRY_CAP})")
    stacked = coeffs.reshape(k * r, k)
    levels = np.ones((k, 1))
    for _ in range(n):
        levels = (stacked @ levels).reshape(k, -1)
        yield levels


def _inverse_class_matrices(spec):
    """Inverse one-step matrix of every class; SingularChannelError if any has none."""
    inverses = {}
    for cls, mat in spec.class_matrices.items():
        if mat.shape[0] != mat.shape[1]:
            raise SingularChannelError("only square channels have an inverse")
        det = np.linalg.det(mat)
        if abs(det) <= SINGULAR_DET:
            raise SingularChannelError(
                f"state {cls} matrix has |det| = {abs(det):.3e} <= {SINGULAR_DET:g}"
            )
        inverses[cls] = np.linalg.inv(mat)
    return inverses


@dataclass(frozen=True)
class ChannelMatrix:
    """Sequence-level channel p(y^n || x^n, s0) with its build metadata."""

    spec: object
    n: int
    initial_state: int
    kernel: CausalKernel

    @property
    def is_sparse(self):
        return self.kernel.is_sparse


def build_sequence_kernel(spec, n, s0, storage="auto"):
    """Assemble p(y^n || x^n, s0) by the first-symbol block recursion."""
    if n < 1:
        raise ValueError("n must be positive")
    k = output_alphabet(spec)
    x = input_alphabet(spec)
    if not 0 <= s0 < k:
        raise ValueError(f"initial state {s0} out of range")
    if storage == "auto":
        storage = "dense" if k**n * x**n <= DENSE_ENTRY_CAP else "sparse"
    elif storage not in ("dense", "sparse"):
        raise ValueError(f"unknown storage mode {storage!r}")
    classes = spec.state_classes
    values = _block_matrix(spec.class_matrices, classes, n, classes[s0], sparse=storage == "sparse")
    return ChannelMatrix(spec, n, s0, CausalKernel(k, x, n, 0, values))


def invert_sequence_kernel(spec, n, s0):
    """Inverse of the sequence kernel of a square channel.

    Built by the same block recursion as the kernel itself, not by a
    generic linear solve: block (x1, y1) of the inverse from state s is
    P_s^-1[x1, y1] times the inverse from state y1.  Raises
    SingularChannelError unless every class matrix is square with
    |det| > SINGULAR_DET, and ValueError above DENSE_ENTRY_CAP entries.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= s0 < output_alphabet(spec):
        raise ValueError("initial state out of range")
    classes = spec.state_classes
    return _block_matrix(_inverse_class_matrices(spec), classes, n, classes[s0], by_column=True)


def induced_output_pmf(spec, n, s0, input_kernel: CausalKernel) -> SequencePmf:
    """Output pmf p(y^n) = sum_x p(y^n || x^n, s0) p(x^n || y^{n-1})."""
    if input_kernel.delay != 1:
        raise ValueError("input kernel must have delay 1")
    k = output_alphabet(spec)
    x = input_alphabet(spec)
    if input_kernel.out_alphabet != x or input_kernel.in_alphabet != k:
        raise ValueError("alphabet mismatch")
    if input_kernel.n != n:
        raise ValueError("length mismatch")
    channel = build_sequence_kernel(spec, n, s0).kernel
    kin = input_kernel.dense_values()
    if channel.is_sparse:
        first = kin[:, 0]
        if kin.shape[1] > 1 and np.abs(kin - first[:, None]).max() > 0:
            raise ValueError("sparse channels support open-loop inputs only")
        py = channel.values @ first
    else:
        py = (channel.values * np.repeat(kin.T, k, axis=0)).sum(axis=1)
    return SequencePmf(k, n, py)


def spec_to_config(spec) -> str:
    """Plain-text form of a channel spec; decimal-exact round trip."""
    if isinstance(spec, PostAlpha):
        return f"family = post-alpha\nalpha = {spec.alpha!r}\n"
    if isinstance(spec, PostAB):
        return f"family = post-ab\na = {spec.a!r}\nb = {spec.b!r}\n"
    if isinstance(spec, MaryPost):
        return f"family = mary\nm = {spec.m}\n"
    raise TypeError("only the named families serialize to config text")


def spec_from_config(text: str):
    fields = _read_key_values(text)
    family = fields.pop("family", None)
    if family == "post-alpha":
        return PostAlpha(alpha=float(fields.pop("alpha")))
    if family == "post-ab":
        return PostAB(a=float(fields.pop("a")), b=float(fields.pop("b")))
    if family == "mary":
        return MaryPost(m=int(fields.pop("m")))
    raise ValueError(f"unknown channel family {family!r}")
