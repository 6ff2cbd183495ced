"""Span tracing around netmoment's public functions, installed from outside.

``Tracer.installed(targets)`` replaces each target at every netmoment module
that looks the name up (and each method on its class) with a wrapper that
records a span: name, start, end, parent span, operation id, process id and
an optional count taken from the call (pair elements, iterations, bytes).
Spans stay in memory.  A forked pool worker inherits the wrappers, keeps its
own spans and writes them to a per-process file when it exits; ``collect``
reads those files back.  Leaving the ``with`` block restores every original.
A target whose name no longer exists is listed in ``missing``, not raised.
"""

import contextlib
import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

import numpy as np

Span = namedtuple("Span", "span_id parent_id op_id name start end pid value")


def _evals(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["pi"]))


def _iters(args, kwargs, result):
    return int(result[1])


def _outer_iters(args, kwargs, result):
    return int(result.iterations)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


_FAMILY_CLASSES = ("LogisticFamily", "ProbitFamily", "PoissonFamily")

# (span name, defining module, attribute or Class.method, count taken from the call)
TARGETS = (
    [
        (f"families.{m}", "netmoment.families", f"{cls}.{m}", _evals)
        for m in ("mean", "mean_slope", "mean_derivs", "variance", "sample")
        for cls in _FAMILY_CLASSES
    ]
    + [
        ("network.node_pair_sums", "netmoment.network", "NetworkData.node_pair_sums", None),
        ("network.check_diagonally_balanced", "netmoment.network", "check_diagonally_balanced", None),
        ("estimation.fit", "netmoment.estimation", "fit", _outer_iters),
        ("estimation.solve_degree_params", "netmoment.estimation", "solve_degree_params", _iters),
    ]
    + [
        (f"estimation.{f}", "netmoment.estimation", f, None)
        for f in ("degree_jacobian", "standard_errors", "homophily_bias", "covariate_residuals")
    ]
    + [
        ("simulation.generate_with_truth", "netmoment.simulation", "generate_with_truth", None),
        ("simulation.run_mc_study", "netmoment.simulation", "run_mc_study", None),
    ]
    + [
        (f"dataio.{f}", "netmoment.dataio", f, _file_bytes)
        for f in (
            "read_pair_covariates",
            "read_edges",
            "write_pair_covariates",
            "write_edges",
            "write_fit_result_json",
        )
    ]
    + [("cli.main", "netmoment.cli", "main", None)]
)


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self, spool_dir, package="netmoment"):
        self.spool_dir = Path(spool_dir)
        self.package = package
        self.spans = []
        self.missing = []
        self.op_id = 0
        self._saved = []
        self._stack = []
        self._fork_parent = None
        self._pid = os.getpid()
        self._count = 0

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block."""
        self.missing = []
        try:
            for name, module, attr, counter in targets:
                self._install(name, module, attr, counter)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _install(self, name, module_name, attr, counter):
        module = sys.modules.get(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(member) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}:{attr}")
            return
        wrapper = self._wrap(name, original, counter)
        if owner_name:
            sites = [owner]
        else:
            sites = [
                mod for key, mod in list(sys.modules.items())
                if (key == self.package or key.startswith(self.package + "."))
                and vars(mod).get(member) is original
            ]
        for site in sites:
            self._saved.append((site, member, original))
            setattr(site, member, wrapper)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, counter, args, kwargs)

        return traced

    def _call(self, name, fn, counter, args, kwargs):
        if os.getpid() != self._pid:
            self._adopt_child()
        parent = self._stack[-1] if self._stack else self._fork_parent
        self._count += 1
        span_id = self._pid * 1_000_000_000 + self._count
        self._stack.append(span_id)
        value = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.op_id, name, start, end, self._pid, value))
        if counter is not None:
            self.spans[-1] = self.spans[-1]._replace(value=counter(args, kwargs, result))
        return result

    def _adopt_child(self):
        """First traced call in a forked worker: start its own span list."""
        self._fork_parent = self._stack[-1] if self._stack else None
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(None, self._spool, exitpriority=10)

    def _spool(self):
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")

    def collect(self):
        """Append the spans that exited workers wrote, then delete their files."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                self.spans.extend(Span(*json.loads(line)) for line in handle)
            path.unlink()


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children may run in other processes and overlap each other, so the
    covered part is the union of their intervals clipped to the parent.
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


def layer_totals(spans):
    """Per span name: calls, busy seconds, self seconds and summed counts.

    Busy time counts a span only when no ancestor has the same name, so a
    recursive or re-entrant call is not counted twice.
    """
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "value": 0})
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += selfs[span.span_id]
        if span.value is not None:
            entry["value"] += span.value
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            entry["busy_s"] += span.end - span.start
    return totals
