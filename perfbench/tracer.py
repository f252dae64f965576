"""Outside-in call tracing for the benchmark.

A :class:`Tracer` replaces public functions and methods of an already
imported package with wrappers that record one span per call: name,
start, end, parent span and run id.  Spans stay in memory; the caller
writes them out when the traced battery has finished.

Two details decide whether a wrapper sees every call:

* ``from .scalars import qnum`` copies the binding into the importing
  module, so a function is replaced in every module of the package that
  holds it, not only where it is defined;
* methods (``TensorOp.__mul__``, ``ModInt.inverse``, ...) are replaced
  on the class, which is where operator dispatch looks them up.

:meth:`Tracer.restore` puts every original object back.

Work a wrapper does for its own counters (``madds`` from the operands,
result sizes) is recorded as a ``trace.bookkeeping`` span, so it is
subtracted from the self and inclusive times of the spans around it.
Argument keys for distinct counts are cheap and taken inline.
"""

import functools
import sys
import time

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self, run_id, package="qdyb"):
        self.run_id = run_id
        self.package = package
        self.spans = []            # [span id, name, start, end, parent id]
        self.distinct = {}         # span name -> set of argument keys
        self.peaks = {}            # counter name -> running maximum
        self.totals = {}           # counter name -> running sum
        self._stack = []
        self._keepalive = {}
        self._undo = []

    # -- counters ----------------------------------------------------------

    def ident(self, obj):
        """A key for `obj` by identity; the object is kept alive so that
        its id cannot be reused by a later object during the run."""
        self._keepalive[id(obj)] = obj
        return id(obj)

    def add(self, counter, amount):
        self.totals[counter] = self.totals.get(counter, 0) + amount

    def peak(self, counter, value):
        if value > self.peaks.get(counter, 0):
            self.peaks[counter] = value

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        rec = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, key=None, before=None, after=None, label=None):
        """Wrapper for `fn` recording a span per call.

        key(*args)    -> hashable argument key, counted per distinct value;
        before(*args) -> counter work done on the operands, outside the span;
        after(result) -> counter work done on the result, outside the span;
        label(*args)  -> span name chosen per call (default `name`).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = label(*args, **kwargs) if label else name
            if key is not None:
                tracer.distinct.setdefault(span_name, set()).add(
                    key(*args, **kwargs))
            if before is not None:
                bk = tracer._open(BOOKKEEPING)
                before(*args, **kwargs)
                tracer._close(bk)
            rec = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                bk = tracer._open(BOOKKEEPING)
                after(result)
                tracer._close(bk)
            return result

        return wrapper

    # -- installing and restoring -------------------------------------------

    def _package_modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or
                                        name.startswith(self.package + "."))]

    def patch_function(self, module_name, attr, name, **hooks):
        """Replace `module_name.attr` in every package module bound to it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, **hooks)
        hits = 0
        for mod in self._package_modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)
                    self._undo.append((mod, binding, original))
                    hits += 1
        if not hits:
            raise LookupError("%s.%s is bound nowhere" % (module_name, attr))

    def patch_method(self, module_name, class_name, attr, name, **hooks):
        """Replace a method on its class."""
        cls = getattr(sys.modules[module_name], class_name)
        if attr not in vars(cls):
            raise LookupError("%s.%s is not defined on the class"
                              % (class_name, attr))
        original = vars(cls)[attr]
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._undo.append((cls, attr, original))

    def restore(self):
        """Put back every replaced binding, last replaced first."""
        while self._undo:
            owner, binding, original = self._undo.pop()
            setattr(owner, binding, original)
        self._keepalive.clear()


# -- analysis ----------------------------------------------------------------


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, self_s and incl_s.

    `spans` are [id, name, start, end, parent] in the order they were
    opened, so a parent always precedes its children.  self_s sums each
    span's duration minus the part covered by its child spans.  incl_s
    sums the durations of the outermost spans of a name (recursive calls
    are not counted twice).  Both exclude the time of the
    ``trace.bookkeeping`` spans inside.
    """
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    # time of the bookkeeping spans strictly inside each span, bottom-up
    bookkeeping = {}
    for sid, name, start, end, parent in reversed(spans):
        inside = bookkeeping.get(sid, 0.0)
        if name == BOOKKEEPING:
            inside += end - start
        if parent is not None and inside:
            bookkeeping[parent] = bookkeeping.get(parent, 0.0) + inside
    out = {}
    stack = []          # the open spans: ancestors of the current one
    open_names = {}
    for sid, name, start, end, parent in spans:
        while stack and stack[-1][0] != parent:
            open_names[stack.pop()[1]] -= 1
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                    "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered_length(
            children.get(sid, ()), start, end)
        if not open_names.get(name):
            row["incl_s"] += (end - start) - bookkeeping.get(sid, 0.0)
        stack.append((sid, name))
        open_names[name] = open_names.get(name, 0) + 1
    return out
