"""Spans around the public functions of each shelflife module, recorded from outside.

`Tracer.install` replaces every public function of the five modules with a
wrapper, at every binding that refers to it: the defining module, the package
namespace and the modules that import the name (`shelflife.solver.harmonic_diff`,
`shelflife.asymptotic.lambert_w0`, ...).  Calls from `cli` into `solver.*`
go through module attributes, so they are caught too.  A span records its
name, start, end, parent span, operation id and the call's first integer
argument (the horizon for `solve`, `monte_carlo`, ...).  Spans stay in flat
arrays in memory; `save` writes them out once the run has ended.

A function that a later change deletes or moves simply has no span; the
names that the per-layer metrics need and that were not found are reported
in `absent`.  Tracing is single-threaded: run it with
DURATION_SOLVER_THREADS=1 (the simulator's worker threads call only private
functions, which are never wrapped).
"""

import importlib
import json
import time
from array import array

import numpy as np

MODULES = ("special", "solver", "simulate", "asymptotic", "cli")

# Called once per enumerated rank sequence inside exhaustive_policy_value
# (9! times at n = 9); a span there would cost more than the call it times.
# Its time is covered by the exhaustive_policy_value span.
UNWRAPPED = frozenset({"simulate.realized_outcome"})


class Tracer:
    def __init__(self):
        self.names = []  # span name table; index = name id
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.key = array("q")
        self.start = array("d")
        self.end = array("d")
        self.wrapped = []
        self._stack = [-1]
        self._op_id = -1
        self._restore = []

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid, key=-1):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.key.append(key)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id, kind):
        """Open the root span of one benchmark operation."""
        self._op_id = op_id
        return self.begin(self._nid("bench." + kind))

    def _wrap(self, name, fn):
        nid = self._nid(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            key = args[0] if args and type(args[0]) is int else -1
            idx = begin(nid, key)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap the public functions of every module of `package` that exists."""
        holders = [package]
        targets = []
        for short in MODULES:
            try:
                mod = importlib.import_module(f"{package.__name__}.{short}")
            except ImportError:
                continue
            holders.append(mod)
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and f"{short}.{attr}" not in UNWRAPPED
                ):
                    targets.append((f"{short}.{attr}", obj))
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for holder in holders:
                for attr, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, attr, wrapper)
                        self._restore.append((holder, attr, fn))
            self.wrapped.append(name)

    def uninstall(self):
        for holder, attr, fn in reversed(self._restore):
            setattr(holder, attr, fn)
        self._restore.clear()

    def arrays(self):
        """Span columns as numpy views of the in-memory arrays."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "key": np.frombuffer(self.key, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path, meta):
        cols = self.arrays()
        np.savez(path, names=np.array(json.dumps(self.names)),
                 meta=np.array(json.dumps(meta)), **cols)


def _outermost(parent, group):
    """True where no ancestor span belongs to the same group (module or function)."""
    outer = np.ones(len(parent), dtype=bool)
    anc = parent.astype(np.int64)
    while True:
        live = anc >= 0
        if not live.any():
            return outer
        safe = np.where(live, anc, 0)
        outer &= ~(live & (group[safe] == group))
        anc = np.where(live, parent[safe], -1)


def summarize(cols, names):
    """Per-function and per-module busy time, self time and call counts.

    busy_s sums the spans that are not nested in a span of the same group, so
    it is the wall time the group was active; self_s sums each span's duration
    minus what its direct children cover.
    """
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    fn_id = cols["name"]
    modules = sorted({n.split(".")[0] for n in names})
    mod_id = np.array([modules.index(n.split(".")[0]) for n in names])[fn_id]
    fn_outer = _outermost(parent, fn_id)
    mod_outer = _outermost(parent, mod_id)
    out = {"functions": {}, "modules": {}}
    for i, name in enumerate(names):
        sel = fn_id == i
        out["functions"][name] = {
            "calls": int(sel.sum()),
            "busy_s": float(dur[sel & fn_outer].sum()),
            "self_s": float(self_t[sel].sum()),
        }
    for m, mod in enumerate(modules):
        sel = mod_id == m
        out["modules"][mod] = {
            "busy_s": float(dur[sel & mod_outer].sum()),
            "self_s": float(self_t[sel].sum()),
        }
    return out
