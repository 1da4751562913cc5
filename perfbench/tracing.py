"""Spans around the library's public functions, installed from outside.

The tracer replaces module attributes (and a target instance's methods)
with wrappers that record one span per call: name, start, end, parent
span, operation id and rows evaluated.  The library looks these
functions up through their module at call time, so the wrappers see
every call without any change to the library.  Spans are kept in memory
as one flat integer array and written out when the run ends.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from islandmc import ais, islands, kernels, smc

# Module functions wrapped by attribute, one span per call.
SPANNED = {
    smc: ("next_temperature", "resample", "update_logz", "run_smc"),
    kernels: ("mutate", "population_step", "leapfrog", "estimate_scaling"),
    islands: ("run_islands", "combine_weighted", "log_mean_evidence"),
    ais: ("run_ais", "ais_estimate"),
}
# smc.ess runs about 30 times per stage, nearly all inside the ESS
# bisection; a span per call would cost more than the call itself, so its
# calls are only counted, by the span they are made from, and its time
# stays with its caller.
COUNTED = {smc: ("ess",)}
TARGET_ROWS = ("log_likelihood", "grad_log_likelihood")
TARGET_PRIOR = ("log_prior", "grad_log_prior", "whiten", "unwhiten", "prior_sample")
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "rows")


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.ids = {}  # span name -> id
        self.flat = array("q")  # FIELDS per span, appended when the span ends
        self.stack = []  # (span id, name id) of the open spans
        self.counts = Counter()  # (name, caller's name id) -> calls
        self.accepted = 0
        self.proposals = 0
        self.op = -1
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn, rows_of=None):
        """Return ``fn`` wrapped to record a span named ``name``."""
        nid = self.ids.setdefault(name, len(self.ids))
        stack, flat = self.stack, self.flat

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, nid))
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                rows = rows_of(args) if rows_of is not None else 0
                flat.extend((sid, nid, t0, t1, parent, self.op, rows))

        return traced

    def _count(self, name, fn):
        counts, stack = self.counts, self.stack

        def counted(*args, **kwargs):
            counts[name, stack[-1][1] if stack else -1] += 1
            return fn(*args, **kwargs)

        return counted

    def calls_from(self, name):
        """Counted calls of ``name``, by the name of the span they came from."""
        names = {nid: n for n, nid in self.ids.items()}
        return {names.get(caller, ""): c for (n, caller), c in self.counts.items() if n == name}

    def _population_step(self, fn):
        def step(pop, *args, **kwargs):
            accepted = fn(pop, *args, **kwargs)
            self.accepted += accepted
            self.proposals += pop.theta.shape[0]
            return accepted

        return self.wrap("kernels.population_step", step)

    def _patch(self, owner, attr, wrapper):
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, wrapper)

    def install(self, target):
        """Wrap the layer functions and ``target``'s methods."""
        for module, attrs in SPANNED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                fn = getattr(module, attr)
                if (module, attr) == (kernels, "population_step"):
                    wrapper = self._population_step(fn)
                else:
                    wrapper = self.wrap(f"{short}.{attr}", fn)
                self._patch(module, attr, wrapper)
        for module, attrs in COUNTED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                self._patch(module, attr, self._count(f"{short}.{attr}", getattr(module, attr)))
        for attr in TARGET_ROWS + TARGET_PRIOR:
            rows_of = _rows if attr in TARGET_ROWS else None
            self._patch(target, attr, self.wrap(f"targets.{attr}", getattr(target, attr), rows_of))

    def uninstall(self):
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def spans(self):
        """All spans as an ``(n, len(FIELDS))`` int64 array, ordered by id."""
        table = np.frombuffer(self.flat, dtype=np.int64).reshape(-1, len(FIELDS))
        return table[np.argsort(table[:, 0], kind="stable")]

    def summary(self):
        """Per span name: calls, rows, total and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so the children never overlap.
        """
        table = self.spans()
        dur = table[:, 3] - table[:, 2]
        child = np.zeros(len(table), dtype=np.int64)
        has_parent = table[:, 4] >= 0
        np.add.at(child, table[has_parent, 4], dur[has_parent])
        own = dur - child
        out = {}
        for name, nid in self.ids.items():
            sel = table[:, 1] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "rows": int(table[sel, 6].sum()),
                "total_s": float(dur[sel].sum()) * 1e-9,
                "self_s": float(own[sel].sum()) * 1e-9,
            }
        return out

    def save(self, path):
        np.savez(path, spans=self.spans(), names=np.array(list(self.ids)), fields=np.array(FIELDS))


def _rows(args):
    theta = args[0]
    return theta.shape[0] if np.ndim(theta) > 1 else 1
