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

from .probability import CONDITIONAL_ROW_TOL, ENTRY_FLOOR, CausalKernel, _freeze

# No sequence-level array may hold more entries than this.
DENSE_ENTRY_CAP = 2**20

# Columns per block of the in-place passes over a level's columns:
# 2^14 columns of two rows, 256 KiB.
COLUMN_BLOCK = 2**14

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
    All are built on first use.  free_labels holds the symbols any
    relabelling of which leaves the channel unchanged (see
    _lumped_channel); none by default.
    """

    free_labels = ()

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
    resets the output to 0.  The states below m form one class, and a
    relabelling of 1..m-1 leaves the channel unchanged.
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

    @property
    def free_labels(self):
        return range(1, self.m)

    def label_core(self, k):
        """This channel on 0, m and its first k free labels: (MaryPost(k + 1), symbols).

        symbols[c] is the symbol of this channel that symbol c of the
        core stands for: c itself, and m for k + 1.
        """
        return MaryPost(k + 1), np.array([*range(k + 1), self.m])

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
            if m.min() < -ENTRY_FLOOR:
                raise ValueError("negative channel probability")
            if np.abs(m.sum(axis=0) - 1.0).max() > CONDITIONAL_ROW_TOL:
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


def _block_matrix(spec, n, s0):
    """Level-n matrix of the first-symbol block recursion from state s0.

    Block (y, x) of the level-l matrix of a class is p(y | x) of that
    class times the level-(l-1) matrix of state y's class.  The class
    matrices are stacked once, below[y] giving the row of state y's
    class; each level is one array, filled one output symbol at a time,
    and only s0's class is built at the top level.  A result above
    DENSE_ENTRY_CAP entries raises before anything is allocated.
    """
    classes = initial_states(spec)
    below = np.searchsorted(classes, spec.state_classes)
    mats = np.stack([spec.class_matrices[c] for c in classes])
    k, x = mats.shape[1:]
    _check_entries("dense matrix", k**n * x**n)
    cur = np.ones((len(mats), 1, 1))
    for level in range(1, n + 1):
        top = mats if level < n else mats[below[s0], None]
        out = np.empty((len(top), k, cur.shape[1], x, cur.shape[2]))
        for y in range(k):
            np.multiply(top[:, y, None, :, None], cur[below[y], None, :, None, :], out=out[:, y])
        cur = out.reshape(len(top), k * cur.shape[1], x * cur.shape[2])
    return cur[0]


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


def _vector_level_row(coeffs, n, s):
    """Row s of level n of _vector_levels(coeffs, n), alone: coeffs[s] @ level n - 1.

    coeffs is square, k x k matrices for k states, as for every
    invertible channel.  So level n - 1, k rows of k^(n-1) entries,
    fills the k^n-entry result, and is built in the returned row itself.
    The levels below alternate between one scratch array of k^(n-1)
    entries and the front of the row, each one matrix product written
    with out=.  Row s is then mixed in place, COLUMN_BLOCK columns at a
    time through a small buffer: column j of the result depends only on
    column j of level n - 1.  The products are those of _vector_levels,
    so the bits are the same.  The row is a read-only array that owns
    its data.
    """
    k = len(coeffs)
    _check_entries("vector", k**n)  # level n's guard, before the first product
    if not n:
        return _freeze(np.ones(1))
    # allocated before the scratch, so that freeing it leaves no hole
    # below the row in the heap, which would raise the peak RSS
    row = np.empty(k**n)
    scratch = np.empty(k ** (n - 1))
    stacked = coeffs.reshape(k * k, k)
    # level l lives in the row when n - 1 - l is even, else in the scratch
    level = (row if n % 2 else scratch)[:k].reshape(k, 1)
    level[...] = 1.0
    for l in range(1, n):
        out = (row if (n - 1 - l) % 2 == 0 else scratch)[: k ** (l + 1)]
        np.matmul(stacked, level, out=out.reshape(k * k, -1))
        level = out.reshape(k, -1)
    buf = np.empty((k, min(level.shape[1], COLUMN_BLOCK)))
    for start in range(0, level.shape[1], COLUMN_BLOCK):
        cols = level[:, start : start + COLUMN_BLOCK]
        np.matmul(coeffs[s], cols, out=buf)
        cols[...] = buf
    return _freeze(row)


def _check_start(spec, n, s0):
    """Raise ValueError unless n is positive and s0 is a state of spec."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= s0 < output_alphabet(spec):
        raise ValueError(f"initial state {s0} out of range")


def _check_causal_kernel(spec, n, s0):
    """Raise ValueError unless a causal kernel of (spec, n, s0), |X|^n |Y|^(n-1) entries, fits."""
    _check_start(spec, n, s0)
    _check_entries("causal kernel", input_alphabet(spec) ** n * output_alphabet(spec) ** (n - 1))


def _check_pass_size(spec, n, s0):
    """Raise ValueError unless the channel passes for (spec, n, s0) fit; allocates nothing.

    The passes' largest arrays are the step tensor, |Y| * |Y| * |X|
    entries, and the per-position arrays, at most max(|X|, |Y|)^n
    entries; either above DENSE_ENTRY_CAP raises, as do n < 1 and a
    state outside the output alphabet.
    """
    _check_start(spec, n, s0)
    k, x = output_alphabet(spec), input_alphabet(spec)
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


def _check_lumped_size(spec, n, s0):
    """Raise ValueError unless the lumped channel of (spec, n, s0) fits; allocates little.

    Its input orbits are counted first, level by level, so a huge n
    stops at the first level above DENSE_ENTRY_CAP; then its nonzeros,
    one per (input orbit, reachable output sequence), from the
    transitions of the core spec.label_core(K), K = min(free labels, n).
    s0 must be a symbol every relabelling fixes.  Returns (core, core
    initial state, fixed core symbols, transitions), where transitions
    holds the arrays (key, choice, y, w, new): entry t is one
    step of an input prefix with k labels in state s, key k |core| + s,
    to the choice'th input in the order fixed symbols, labels 1..k, new
    label k + 1, and to output y, with probability w; new says the input
    is the new label.
    """
    _check_start(spec, n, s0)
    labels = spec.free_labels
    if s0 in labels:
        raise ValueError(f"initial state {s0} not fixed by relabelling")
    n_fixed, most = spec.input_size - len(labels), min(len(labels), n)
    # orbits[k]: input orbits of the current prefix length with k labels
    orbits = [1]
    for _ in range(n):
        grown = [o * (n_fixed + k) for k, o in enumerate(orbits)] + [0]
        for k, o in enumerate(orbits[:most]):
            grown[k + 1] += o
        orbits = grown if grown[-1] else grown[:-1]
        _check_entries("lumped channel's input orbits", sum(orbits))

    core, symbols = spec.label_core(most)
    size = len(symbols)
    fixed = [c for c in range(size) if c not in core.free_labels]
    steps = np.stack([step_kernel(core, s) for s in range(size)])
    rows = []
    for k in range(most + 1):
        choices = fixed + list(core.free_labels[: k + (k < most)])
        for s in range(size):
            for c, x in enumerate(choices):
                ys = np.flatnonzero(steps[s, :, x])
                rows.extend((k * size + s, c, y, steps[s, y, x], c == len(fixed) + k) for y in ys)
    transitions = tuple(np.array(column) for column in zip(*rows))
    key, _, y, _, new = transitions
    start = int(np.flatnonzero(symbols == s0)[0])
    paths = np.zeros((most + 1, size))
    paths[0, start] = 1.0
    for _ in range(n):
        grown = np.zeros_like(paths)
        np.add.at(grown, (key // size + new, y), paths[key // size, key % size])
        paths = grown
    nonzeros = int(paths.sum())
    _check_entries("lumped channel", nonzeros)
    # _lumped_channel's orbit walk keeps most + 1 symbols per nonzero
    _check_entries("lumped channel's orbit walk", nonzeros * (most + 1))
    return core, start, fixed, transitions


def _canonical_digits(k, seen, d, fixed_index):
    """Next digit of some sequences' orbit codes, for their next symbols d.

    k is each sequence's number of distinct free labels so far and
    seen[r, j] the symbol it reads as label j + 1, -1 if none yet (one
    column more than there are labels); k and seen are updated in place.
    fixed_index[d] is the place of symbol d among the fixed symbols, or
    -1 for a free label, in an integer dtype that holds every symbol.
    The digit is that fixed place, or n_fixed + label for the label's
    0-based number: the index of the symbol in _check_lumped_size's
    choices.
    """
    n_fixed = int((fixed_index >= 0).sum())
    match = seen == d[:, None]
    hit = match.any(axis=1)
    digit = fixed_index[d]
    label = match.argmax(axis=1)
    label[~hit] = k[~hit]
    free = digit < 0
    digit[free] = n_fixed + label[free]
    fresh = np.flatnonzero(free & ~hit)
    seen[fresh, k[fresh]] = d[fresh]
    k[fresh] += 1
    return digit


@dataclass(frozen=True)
class _LumpedChannel:
    """p(y^n || x^n, s0) of a channel with free labels, on orbits of sequences.

    An orbit is the set of sequences one relabelling of the free labels
    carries into another, named by its representative, in which the
    j-th distinct label is the j-th free label.  I(X^n; Y^n | s0) is
    invariant under relabelling and concave, so an orbit-constant law
    attains its maximum; with P the orbit masses of such a law, Q = A P
    is the output orbit masses, q(y) = Q_Y / |O_Y| on orbit Y, and
    D_X = ent_X - sum_Y A[Y, X] ln(Q_Y / |O_Y|) is the divergence of
    every sequence of orbit X.  Nonzero t of A is values[t] at (rows[t],
    cols[t]), W(y | x) for the representative x of orbit cols[t] and one
    output y of orbit rows[t] (repeated pairs add); ent_X = sum_y W ln W.
    The nonzeros are stored in input-orbit order, cols nondecreasing,
    counts[X] of them for orbit X, so law.repeat(counts) is law[cols].
    The size term is folded in at build: base_X = ent_X + sum_Y A[Y, X]
    ln |O_Y|, so D_X = base_X - sum_Y A[Y, X] ln Q_Y.  Input orbits are
    numbered by the rank of their code, with sizes |O|; rows numbers only
    the orbits some nonzero reaches, by the rank of their code among
    those, with log_sizes ln |O_Y|.  _merge_equal_columns returns the
    same object on classes of input orbits: cols, counts, base and sizes
    are then per class, and the rows are unchanged.
    """

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    values: np.ndarray
    base: np.ndarray
    sizes: np.ndarray
    log_sizes: np.ndarray

    def divergences(self, law):
        """D_X in nats for the orbit masses law; outputs with Q = 0 take ln Q = ln |O|, a zero term."""
        q = np.bincount(self.rows, self.values * law.repeat(self.counts), minlength=len(self.log_sizes))
        ln_q = np.log(q, where=q > 0, out=self.log_sizes.copy())
        return self.base - np.bincount(self.cols, self.values * ln_q[self.rows], minlength=len(self.sizes))


def _lumped_channel(spec, n, s0):
    """The _LumpedChannel of (spec, n, s0), built position by position after _check_lumped_size.

    Each (representative prefix, output prefix) pair with positive
    probability steps through the transitions of its label count and
    state.  Both prefixes carry an orbit code, one digit per position in
    base n_fixed + most (below 9^7 at every size the check admits): the
    input's digit is its choice, the output's the digit
    _canonical_digits reads off it.  Choices list fixed symbols first,
    then labels, so code order is the representatives' lexicographic
    order; every representative is the input of some pair, so ranking
    the input codes numbers the orbits and finds each output's size.
    """
    core, start, fixed, (key, choice, out, weight, new) = _check_lumped_size(spec, n, s0)
    size, n_fixed, most = core.input_size, len(fixed), len(core.free_labels)
    out = out.astype(np.int16)
    count = np.bincount(key, minlength=(most + 1) * size)
    offset = np.cumsum(count) - count
    falling = np.cumprod([1.0, *(len(spec.free_labels) - np.arange(most, dtype=float))])

    fixed_index = np.full(size, -1, np.int16)
    fixed_index[fixed] = np.arange(n_fixed)
    # one entry per (representative prefix, output prefix) pair, with both
    # codes and the output prefix's orbit walk state (k, seen); the arrays
    # of the last level are the channel's nonzeros
    xcode, ycode, here, prob = np.zeros(1, np.int64), np.zeros(1, np.int64), np.array([start]), np.ones(1)
    k, seen = np.zeros(1, np.int16), np.full((1, most + 1), -1, np.int16)
    for _ in range(n):
        counts = count[here]
        parent = np.repeat(np.arange(len(here)), counts)
        t = (offset[here] - np.cumsum(counts) + counts)[parent]
        t += np.arange(len(parent))
        xcode = xcode[parent] * (n_fixed + most) + choice[t]
        prob = prob[parent]
        prob *= weight[t]
        k, seen, ycode = k[parent], seen[parent], ycode[parent]
        here = (here[parent] // size + new[t]) * size + out[t]
        d = out[t]
        del parent, t  # before the walk's temporaries
        ycode = ycode * (n_fixed + most) + _canonical_digits(k, seen, d, fixed_index)
    del k, seen, d
    # number the orbits by the rank of their input code, nonzeros in that order
    order = np.argsort(xcode, kind="stable")
    xcode = xcode[order]
    first = np.empty(len(xcode), bool)
    first[0], first[1:] = True, xcode[1:] != xcode[:-1]
    codes, sizes = xcode[first], falling[here[order[first]] // size]
    del xcode, here  # before the channel's arrays
    cols = np.cumsum(first)
    cols -= 1
    rows = np.searchsorted(codes, ycode[order])
    prob = prob[order]
    # renumber the outputs among the orbits some nonzero reaches
    reached = np.zeros(len(sizes), bool)
    reached[rows] = True
    rows = (np.cumsum(reached) - 1)[rows]
    log_sizes = np.log(sizes[reached])
    return _LumpedChannel(
        rows,
        cols,
        np.bincount(cols),
        prob,
        np.bincount(cols, prob * (np.log(prob) + log_sizes[rows]), minlength=len(sizes)),
        sizes,
        log_sizes,
    )


def _merge_equal_columns(channel):
    """(The _LumpedChannel on classes of input orbits with equal columns, the class of each orbit).

    A class is a set of orbits whose (row, value) nonzeros are equal as
    multisets, so every sequence of the class has the same output law
    and, at any law, the same divergence.  The orbits with c nonzeros
    are gathered into one block, a row of c pairs per orbit; each row's
    pairs are sorted, the rows are sorted lexicographically, and a class
    starts wherever a row differs from the one before.  The sort is
    stable, so each class's first orbit is its lowest.  A class keeps its
    lowest orbit's nonzeros in their stored order and its base, and the
    summed sizes of its orbits.  Classes are numbered in the order of
    their lowest orbits.  No array holds more entries than the channel
    has nonzeros.
    """
    counts = channel.counts
    starts = np.cumsum(counts) - counts
    leader = np.arange(len(counts))
    for c in np.flatnonzero(np.bincount(counts)):
        orbits = np.flatnonzero(counts == c)
        at = starts[orbits, None] + np.arange(c)
        rows, values = channel.rows[at], channel.values[at]
        del at
        order = np.lexsort((values, rows), axis=1)
        rows = np.take_along_axis(rows, order, axis=1)
        values = np.take_along_axis(values, order, axis=1)
        order = np.lexsort((*values.T, *rows.T))
        rows, values, orbits = rows[order], values[order], orbits[order]
        new = np.ones(len(orbits), bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1) | (values[1:] != values[:-1]).any(axis=1)
        leader[orbits] = orbits[new][np.cumsum(new) - 1]
    kept = leader == np.arange(len(counts))
    classes = (np.cumsum(kept) - 1)[leader]
    entries = kept.repeat(counts)
    return (
        _LumpedChannel(
            channel.rows[entries],
            classes[channel.cols[entries]],
            counts[kept],
            channel.values[entries],
            channel.base[kept],
            np.bincount(classes, channel.sizes),
            channel.log_sizes,
        ),
        classes,
    )


def _class_inverse(mat):
    """W^-1 of a square matrix W with |det W| > SINGULAR_DET, else None."""
    if mat.shape[0] != mat.shape[1] or abs(np.linalg.det(mat)) <= SINGULAR_DET:
        return None
    return np.linalg.inv(mat)


def _inverse_class_matrices(spec):
    """Inverse one-step matrix of every class; SingularChannelError if any has none."""
    inverses = {}
    for cls, mat in spec.class_matrices.items():
        inverses[cls] = _class_inverse(mat)
        if inverses[cls] is None and mat.shape[0] != mat.shape[1]:
            raise SingularChannelError("only square channels have an inverse")
        if inverses[cls] is None:
            raise SingularChannelError(
                f"state {cls} matrix has |det| = {abs(np.linalg.det(mat)):.3e} <= {SINGULAR_DET:g}"
            )
    return inverses


@dataclass(frozen=True)
class ChannelMatrix:
    """Sequence-level channel p(y^n || x^n, s0) with its build metadata."""

    spec: object
    n: int
    initial_state: int
    kernel: CausalKernel


def build_sequence_kernel(spec, n, s0, storage="dense"):
    """Assemble p(y^n || x^n, s0) by the first-symbol block recursion.

    storage accepts only "dense", the default; bench/workloads.py still passes it.
    """
    _check_start(spec, n, s0)
    if storage != "dense":
        raise ValueError(f"unknown storage mode {storage!r}")
    values = _block_matrix(spec, n, s0)
    kernel = CausalKernel(output_alphabet(spec), input_alphabet(spec), n, 0, values)
    return ChannelMatrix(spec, n, s0, kernel)
