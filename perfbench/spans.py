"""Span tracer for the traced benchmark run.

The tracer replaces public names with timing wrappers at the sites where the
calling modules bound them (``approx_sense.learners.loss_values``,
``UniformQuantizer.transform_weights``, ...), so the library itself is not
edited.  Each thread keeps its own stack of open frames.  A call becomes a
span (name, start, end, parent, op id, thread) unless it is a per-candidate
leaf: those are folded into their parent span as a call count and busy time.

Self time is computed on wall-clock time: every instant of an op is split
evenly between the spans that are open and have no open child at that
instant, so the self times of one op sum to the op's wall time even when a
thread pool runs trials side by side.  In one thread this is the usual
"duration minus the children's coverage".
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("cli", "dataio", "core", "synthetic", "sensitivity", "radgeom", "learners",
          "bounds", "validation")

# Leaves called once per candidate or per sign: counted, not recorded as spans.
FOLDED = frozenset({
    "core.loss_values", "core.transform_weights", "core.feature_transform",
    "core.apply_operator", "core.empirical_error", "sensitivity.empirical",
    "sensitivity.analytic_upper", "sensitivity.deviation", "radgeom.support",
})


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: int
    folded: dict = field(default_factory=dict)  # name -> [calls, self seconds]
    extra: dict = field(default_factory=dict)   # counter name -> amount


class _Frame:
    __slots__ = ("id", "name", "fold", "parent_id", "op", "learner", "folded", "folded_time",
                 "extra", "qw", "ws", "tw_calls", "loss_calls")

    def __init__(self, span_id, name, fold, parent_id, op, learner):
        self.id = span_id
        self.name = name
        self.fold = fold
        self.parent_id = parent_id
        self.op = op
        self.learner = learner
        self.folded = {}
        self.folded_time = 0.0
        self.extra = {}


def _add(counters: dict, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


class Tracer:
    """Collects spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unattributed = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- frames -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent: _Frame | None, op=None) -> _Frame:
        fold = name in FOLDED or (parent is not None and parent.fold)
        span_id = None if fold else next(self._ids)
        if parent is None:
            frame = _Frame(span_id, name, fold, None, op, None)
        else:
            frame = _Frame(span_id, name, fold, parent.id if not parent.fold else parent.parent_id,
                           parent.op, parent.learner)
        if name == "learners.search":
            frame.learner = frame
            frame.qw, frame.ws = set(), set()
            frame.tw_calls = frame.loss_calls = 0
        return frame

    def _close(self, frame: _Frame, parent: _Frame | None, t0: float, t1: float) -> None:
        elapsed = t1 - t0
        if frame.fold:
            entry = parent.folded.setdefault(frame.name, [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed - frame.folded_time
            for name, (calls, busy) in frame.folded.items():
                entry = parent.folded.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += busy
            for key, amount in frame.extra.items():
                _add(parent.extra, key, amount)
            parent.folded_time += elapsed
            return
        if frame.learner is frame:
            frame.extra.update({"learners.qw_distinct": len(frame.qw),
                                "learners.w_distinct": len(frame.ws),
                                "learners.tw_calls": frame.tw_calls,
                                "learners.loss_calls": frame.loss_calls})
        self.spans.append(Span(frame.id, frame.name, t0, t1, frame.parent_id, frame.op,
                               threading.get_ident(), frame.folded, frame.extra))

    def call(self, name, fn, args, kwargs, extra=None, parent: _Frame | None = None):
        stack = self._stack()
        if parent is None:
            if not stack:
                with self._lock:
                    self.unattributed += 1
                return fn(*args, **kwargs)
            parent = stack[-1]
        frame = self._open(name, parent)
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if extra is not None:
                extra(frame, args, kwargs, result)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._close(frame, parent, t0, t1)
        return result

    def run_op(self, op: str, fn, *args):
        """Run ``fn(*args)`` as the root span ``cli.main`` of one op."""
        stack = self._stack()
        frame = self._open("cli.main", None, op)
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._close(frame, None, t0, t1)

    def current(self) -> _Frame | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- patching ---------------------------------------------------------

    def wrap(self, target, attr: str, name: str, extra=None) -> None:
        """Replace ``target.attr`` by a timing wrapper; missing names are skipped."""
        original = getattr(target, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, extra)

        wrapper.__wrapped__ = original
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    def wrap_trials(self, module, attr: str) -> None:
        """Wrap the trial runner so each trial is a span parented across threads."""
        original = getattr(module, attr, None)
        if original is None:
            return
        tracer = self

        def run_trials(n, fn, *args, **kwargs):
            parent = tracer.current()

            def traced(i):
                return tracer.call("validation.trial", fn, (i,), {}, parent=parent)

            return original(n, traced if parent is not None else fn, *args, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, run_trials)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)


# ---------------------------------------------------------------------------
# Installation at the library's binding sites
# ---------------------------------------------------------------------------


def _kw(args, kwargs, index, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _loss_extra(frame, args, kwargs, result):
    _add(frame.extra, "core.loss_values.elements", result.size)
    if frame.learner is not None:
        frame.learner.loss_calls += 1


def _tw_extra(frame, args, kwargs, result):
    learner = frame.learner
    if learner is not None and result.ndim == 1:
        learner.tw_calls += 1
        learner.qw.add(result.tobytes())
        learner.ws.add(np.asarray(_kw(args, kwargs, 1, "w", None)).tobytes())


def _read_extra(frame, args, kwargs, result):
    _add(frame.extra, "dataio.read.bytes", os.path.getsize(args[0]))


def _patterns(m_of):
    def extra(frame, args, kwargs, result):
        _add(frame.extra, "radgeom.exact.sign_patterns", 2.0 ** m_of(args, kwargs))
    return extra


def _sigma_extra(frame, args, kwargs, result):
    _add(frame.extra, "radgeom.mc.sigma_draws", _kw(args, kwargs, 1, "n_sigma", 0))


def _omega_extra(frame, args, kwargs, result):
    _add(frame.extra, "sensitivity.expected.omega_draws", _kw(args, kwargs, 4, "n_omega", 100))


LEARNER_NAMES = ("constrained_erm", "srm_learner", "sensitivity_regularized_erm", "lambda_erm",
                 "analytic_lambda_erm", "lambda_grid_srm")
BOUND_NAMES = ("uniform_restricted_bound", "srm_uniform_bound", "joint_bounds",
               "regularized_bound", "lambda_equivalence_bound", "stochastic_bound",
               "srm_selection_bound", "hoeffding_term")
CLOSED_FORMS = ("ellipse_rademacher", "union_ellipse_bound", "rotated_union_bound",
                "cluster_bound", "kernel_sensitivity_class_bound", "crude_bounds")


def install(tracer: Tracer) -> None:
    """Patch every binding site the CLI paths reach."""
    from approx_sense import cli, core, learners, radgeom, sensitivity, synthetic, validation

    w = tracer.wrap
    for mod in (cli, validation):
        for fn in LEARNER_NAMES + BOUND_NAMES:
            w(mod, fn, "bounds.report" if fn in BOUND_NAMES else "learners.search")
    w(learners, "lambda_erm", "learners.search")  # lambda_grid_srm calls it per lambda
    w(cli, "make_restricted_rad_estimator", "learners.estimator")

    for fn in ("read_sample_csv", "read_matrix_csv"):
        w(cli, fn, "dataio.read", _read_extra)
    w(cli, "generate", "synthetic.generate")
    w(cli, "run_suite", "validation.suite")
    tracer.wrap_trials(validation, "_run_trials")

    for mod in (core, learners, validation, synthetic):
        w(mod, "loss_values", "core.loss_values", _loss_extra)
    for mod in (learners, sensitivity, validation):
        w(mod, "apply_operator", "core.apply_operator")
    w(validation, "empirical_error", "core.empirical_error")
    for cls in (core.UniformQuantizer, core.MagnitudePruner, core.StochasticRounder):
        w(cls, "transform_weights", "core.transform_weights", _tw_extra)
    for cls in (core.IdentityMap, core.PolynomialMap, core.RbfMap):
        w(cls, "transform", "core.feature_transform")

    for mod in (cli, validation):
        w(mod, "empirical_sensitivity", "sensitivity.empirical")
    w(cli, "analytic_sensitivity_upper", "sensitivity.analytic_upper")
    w(cli, "expected_sensitivity", "sensitivity.expected", _omega_extra)
    for fn in ("sensitivity_deviation_bound", "fast_rate_deviation_bound"):
        w(validation, fn, "sensitivity.deviation")

    w(cli, "exact_rademacher_pointset", "radgeom.exact",
      _patterns(lambda a, k: _kw(a, k, 0, "ps", None).m))
    w(validation, "exact_rademacher_rows", "radgeom.exact",
      _patterns(lambda a, k: len(a[0][0])))
    w(validation, "exact_rademacher_support", "radgeom.exact",
      _patterns(lambda a, k: _kw(a, k, 1, "m", 0)))
    w(cli, "mc_rademacher_pointset", "radgeom.mc", _sigma_extra)
    for mod in (learners, validation):
        w(mod, "mc_rademacher_rows", "radgeom.mc", _sigma_extra)
    w(radgeom.GeometryModel, "rademacher", "radgeom.closed_form")
    for fn in CLOSED_FORMS:
        w(validation, fn, "radgeom.closed_form")
    w(validation, "positive_orthant_ball_sup", "radgeom.support")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, list]:
    """Attribute the wall time of a set of spans (one op) to names.

    Returns name -> [calls, self seconds].  Between two consecutive span
    boundaries the interval is split evenly between the open spans that
    have no open child.  A span's folded leaves take their busy time out of
    the span's share, scaled by the share the span held while it ran alone.
    """
    by_id = {s.id: s for s in spans}
    # starts sort before ends at equal times, so a zero-length span opens before it closes
    events = sorted([(s.start, 0, s.id) for s in spans] + [(s.end, 1, s.id) for s in spans])
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    share: dict[int, float] = defaultdict(float)
    alone: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, kind, sid in events:
        if leaves and t > last:
            dt = t - last
            for leaf in leaves:
                share[leaf] += dt / len(leaves)
                alone[leaf] += dt
        last = t
        parent = by_id[sid].parent
        parent_open = parent in by_id and (parent in leaves or open_children[parent] > 0)
        if kind == 0:
            if parent_open:
                open_children[parent] += 1
                leaves.discard(parent)
            leaves.add(sid)
        else:
            leaves.discard(sid)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)

    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        own = share[s.id]
        scale = own / alone[s.id] if alone[s.id] > 0 else 0.0
        totals[s.name][0] += 1
        for name, (calls, busy) in s.folded.items():
            totals[name][0] += calls
            totals[name][1] += busy * scale
            own -= busy * scale
        totals[s.name][1] += own
    return dict(totals)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
