"""Span tracing of postcap from outside the package.

Every public function of every postcap module is replaced, under each
name a postcap module looks it up by, with a wrapper that records one
span: (id, name, start, end, parent id, op index, amount).  The metric
name is "<defining module>.<function>".  scipy's logsumexp is wrapped
where postcap.optimize looks it up, because the open-loop solver calls
it once per iteration.  Spans stay in memory until the pass ends.
"""

import functools
import inspect
import itertools
import threading
import time


def _kernel_entries(matrix):
    values = matrix.kernel.values
    return int(values.nnz) if matrix.kernel.is_sparse else int(values.size)


# Sizes read off results, computed from array shapes rather than measured.
AMOUNTS = {
    "channels.build_sequence_kernel": _kernel_entries,
    "channels.invert_sequence_kernel": lambda inverse: int(inverse.nbytes),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        amount_of = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                amount = amount_of(result) if amount_of and result is not None else 0
                self.spans.append((span_id, name, start, end, parent, self.op, amount))

        return traced

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def install(tracer, package, modules):
    """Wrap every public postcap function in every postcap namespace.

    package is the postcap package; modules maps short names
    ("optimize", ...) to its submodules.
    """
    names = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                names[obj] = f"{short}.{attr}"
    names[modules["optimize"].logsumexp] = "optimize.logsumexp"
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
