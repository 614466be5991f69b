"""Channel families whose state is the previous output.

Every family member is data: one column-stochastic matrix per state
class, plus the class of each state, with the state set equal to the
output alphabet.  Sequence-level objects come from one block recursion
on the first symbol.  Block (i, j) of the level-n channel
p(y^n || x^n, s) is p(i | j, s) times the level-(n-1) channel from state
i.  The vector form builds segment i of the level-n vector from state s
as sum_j C_s[i, j] times the level-(n-1) vector from state j: C_s =
diag T_s gives the Markov output law q_s of an output chain T, and
C_s = P_s^-1 diag T_s, with P_s the one-step matrix of state s, the
open-loop input p_s = W_s^-1 q_s that induces it.  Matrix-free passes
apply the channel one position at a time, for q = W p and for the
divergences of W from q.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .probability import CausalKernel, SequencePmf, _freeze, _joint
from .tolerances import _read_key_values, tolerances

# No sequence-level array may hold more entries than this.
DENSE_ENTRY_CAP = 2**20

# One-step matrices with |det| at or below this count as singular.
SINGULAR_DET = 1e-9


class SingularChannelError(ValueError):
    """The sequence-level channel matrix has no inverse."""


def _check_entries(what, entries):
    """Raise ValueError before an array of more than DENSE_ENTRY_CAP entries is built."""
    if entries > DENSE_ENTRY_CAP:
        raise ValueError(f"{what} would hold {entries} entries (cap {DENSE_ENTRY_CAP})")


class _StateMatrices:
    """A channel as data: one column-stochastic matrix per state class.

    class_matrices maps the representative state of each class to its
    matrix p(y | x, s), rows y and columns x; state_classes gives the
    representative of every state; input_size is the number of columns.
    All are built on first use.
    """

    @cached_property
    def state_classes(self):
        return tuple(range(len(self.class_matrices)))

    @cached_property
    def input_size(self):
        return self.class_matrices[self.state_classes[0]].shape[1]


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
    def input_size(self):
        return self.m + 1

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
            if not np.isfinite(m).all():
                raise ValueError("non-finite channel probability")
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
    return spec.input_size


def initial_states(spec):
    """Initial states worth scanning (one per behavior class)."""
    return tuple(sorted(set(spec.state_classes)))


def step_kernel(spec, state):
    """One-step matrix p(y | x, state); columns indexed by x, rows by y."""
    if not 0 <= state < output_alphabet(spec):
        raise ValueError(f"state {state} out of range")
    return np.array(spec.class_matrices[spec.state_classes[state]])


def _block_matrix(coeffs, state_classes, n, target):
    """Level-n matrix of the first-symbol block recursion from class target.

    coeffs maps each class to its one-step matrix C_c.  Block (i, j) of
    the level-l matrix of class c is C_c[i, j] times the level-(l-1)
    matrix of the class of state i.  Each level is written into one
    preallocated array; only the target class is built at the top level.
    A result above DENSE_ENTRY_CAP entries raises before anything is
    allocated.
    """
    rows, cols = next(iter(coeffs.values())).shape
    _check_entries("dense matrix", rows**n * cols**n)
    # (i, j, C_c[i, j], class whose lower-level matrix fills block (i, j))
    terms = {
        cls: [(i, j, mat[i, j], state_classes[i]) for i, j in np.argwhere(mat).tolist()]
        for cls, mat in coeffs.items()
    }
    prev = dict.fromkeys(coeffs, np.ones((1, 1)))
    for level in range(1, n + 1):
        r, c = rows ** (level - 1), cols ** (level - 1)
        cur = {}
        for cls in coeffs if level < n else (target,):
            out = np.zeros((rows * r, cols * c))
            for i, j, w, src in terms[cls]:
                np.multiply(w, prev[src], out=out[i * r : (i + 1) * r, j * c : (j + 1) * c])
            cur[cls] = out
        prev = cur
    return prev[target]


def _vector_levels(coeffs, n):
    """Levels 1..n of the first-symbol block recursion on vectors, lazily.

    coeffs has shape (k, r, k): C_s for each of the k states.  Row s of
    level l is v_s = concat_i sum_j C_s[i, j] v_j of level l - 1, with
    v_s = 1 at level 0; each level is one matrix product.  A row above
    DENSE_ENTRY_CAP entries at level n raises before the first product.
    """
    k, r, _ = coeffs.shape
    _check_entries("vector", r**n)
    stacked = coeffs.reshape(k * r, k)
    levels = np.ones((k, 1))
    for _ in range(n):
        levels = (stacked @ levels).reshape(k, -1)
        yield levels


def _check_pass_size(spec, n, s0):
    """Raise ValueError unless the channel passes for (spec, n, s0) fit; allocates nothing.

    The passes' largest arrays are the step tensor, |Y| * |Y| * |X|
    entries, and the per-position arrays, at most max(|X|, |Y|)^n
    entries; either above DENSE_ENTRY_CAP raises, as do n < 1 and a
    state outside the output alphabet.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k = output_alphabet(spec)
    if not 0 <= s0 < k:
        raise ValueError(f"initial state {s0} out of range")
    x = input_alphabet(spec)
    _check_entries("channel pass", max(max(k, x) ** n, k * k * x))


def _channel_steps(spec, n, s0):
    """Step tensor and its entropy term for the matrix-free channel passes.

    Returns steps[s, y, x] = p(y | x, s) for every state s and
    ent[s, x] = sum_y steps ln steps, after _check_pass_size.
    """
    _check_pass_size(spec, n, s0)
    steps = np.stack([step_kernel(spec, s) for s in range(output_alphabet(spec))])
    logs = np.log(steps, where=steps > 0, out=np.zeros_like(steps))
    return steps, (steps * logs).sum(axis=1)


def _forward_pass(steps, s0, n, p):
    """q = W p for the channel W = p(y^n || x^n, s0), one position at a time.

    Before position i the array is laid out [y_(i-1), x_i..x_n, y^(i-2)],
    the state first, so each position is one matmul per state.  The
    product is written with the new output first and the old state last,
    the layout of position i + 1; the last position writes q in
    sequence order.
    """
    k, _, x = steps.shape
    cur = steps[s0] @ p.reshape(x, -1)
    for i in range(2, n + 1):
        prev = cur.reshape(k, x, -1)
        last = i == n
        cur = np.empty((prev.shape[2], k, k) if last else (k, prev.shape[2], k))
        np.matmul(steps, prev, out=cur.transpose((1, 2, 0) if last else (2, 0, 1)))
    return cur.ravel()


def _backward_pass(steps, ent, s0, n, ln_q):
    """D(x^n) = sum_y W(y^n | x^n) ln(W(y^n | x^n) / q(y^n)), from the last position.

    Before position i the array is laid out [y_(i-1), y_i, x_(i+1)..x_n,
    y^(i-2)]; each position is one matmul per state with the transposed
    step, plus ent[y_(i-1), x_i], which adds sum_y W ln W in the same
    pass because every one-step column sums to 1.
    """
    k = steps.shape[0]
    back = steps.transpose(0, 2, 1)
    # [y_(n-1), y_n, y^(n-2)], or [y_1] when n = 1
    cur = -ln_q.reshape(-1, k ** min(n, 2)).T
    for i in range(n, 1, -1):
        cur = np.matmul(back, cur.reshape(k, k, -1))
        cur += ent[:, :, None]
        if i > 2:
            cur = cur.reshape(-1, k).T
    out = back[s0] @ cur.reshape(k, -1)
    out += ent[s0][:, None]
    return out.ravel()


def _divergences(steps, ent, s0, n, p):
    """D(x^n) = D(W(. | x^n) || W p) in nats, from one forward and one backward pass.

    p . D is I(X^n; Y^n | s0) for the input pmf p.  Outputs with
    q = 0 take ln q = 0; only inputs with p = 0 reach them.
    """
    q = _forward_pass(steps, s0, n, p)
    ln_q = np.log(q, where=q > 0, out=np.zeros_like(q))
    return _backward_pass(steps, ent, s0, n, ln_q)


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


def build_sequence_kernel(spec, n, s0, storage="dense"):
    """Assemble p(y^n || x^n, s0) by the first-symbol block recursion."""
    if n < 1:
        raise ValueError("n must be positive")
    k = output_alphabet(spec)
    x = input_alphabet(spec)
    if not 0 <= s0 < k:
        raise ValueError(f"initial state {s0} out of range")
    if storage != "dense":
        raise ValueError(f"unknown storage mode {storage!r}")
    classes = spec.state_classes
    values = _block_matrix(spec.class_matrices, classes, n, classes[s0])
    return ChannelMatrix(spec, n, s0, CausalKernel(k, x, n, 0, values))


def induced_output_pmf(spec, n, s0, input_kernel: CausalKernel) -> SequencePmf:
    """Output pmf p(y^n) = sum_x p(y^n || x^n, s0) p(x^n || y^{n-1})."""
    channel = build_sequence_kernel(spec, n, s0).kernel
    return SequencePmf(channel.out_alphabet, n, _joint(input_kernel, channel).sum(axis=1))


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
    """Channel spec from spec_to_config's text.

    Raises ValueError on an unknown family and on a missing or unknown key.
    """
    fields = _read_key_values(text)
    family = fields.pop("family", None)
    families = {
        "post-alpha": (PostAlpha, ("alpha",), float),
        "post-ab": (PostAB, ("a", "b"), float),
        "mary": (MaryPost, ("m",), int),
    }
    if family not in families:
        raise ValueError(f"unknown channel family {family!r}")
    cls, keys, kind = families[family]
    missing = [key for key in keys if key not in fields]
    unknown = [key for key in fields if key not in keys]
    if missing or unknown:
        raise ValueError(f"{family} config: missing keys {missing}, unknown keys {unknown}")
    return cls(*(kind(fields[key]) for key in keys))
