"""Spans and run telemetry for the traced benchmark run, recorded from outside.

The library is not edited.  Each layer's public functions are replaced, for
the duration of the traced sweeps, by wrappers that time the call; the
drivers import the line-search and acceleration functions by name, so those
are wrapped in the driver modules where the lookup happens.  f and g are
timed by handing the solvers Problems whose evaluators are wrapped.  Leaf
helpers (``dot``, ``norm_inf``, about 1 us each) are not wrapped; their time
stays in the caller's self time.

Self time is a span's duration minus the part of it covered by child spans.
Spans are aggregated in memory per name; the parent of each call is kept as
a (parent, child) call count, which attributes f evaluations to the layer
that asked for them.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module the driver looks the name up in, attribute, span name)
LAYER_FUNCTIONS = (
    ("rlsmcg.smcg_direction", "smcg_direction", "smcg_direction.smcg_direction"),
    ("rlsmcg.subspace_rqn", "qr_update", "subspace_rqn.qr_update"),
    ("rlsmcg.subspace_rqn", "orthogonality_lost", "subspace_rqn.orthogonality_lost"),
    ("rlsmcg.subspace_rqn", "orthogonality_restored",
     "subspace_rqn.orthogonality_restored"),
    ("rlsmcg.subspace_rqn", "rbfgs_update", "subspace_rqn.rbfgs_update"),
    ("rlsmcg.subspace_rqn", "rqn_direction", "subspace_rqn.rqn_direction"),
    ("rlsmcg.solver", "initial_stepsize", "linesearch.initial_stepsize"),
    ("rlsmcg.solver", "wolfe_search", "linesearch.wolfe_search"),
    ("rlsmcg.solver", "bb_fallback_stepsize", "linesearch.bb_fallback_stepsize"),
    ("rlsmcg.solver", "ledger_update", "linesearch.ledger_update"),
    ("rlsmcg.solver", "accel_criterion", "acceleration.accel_criterion"),
    ("rlsmcg.solver", "apply_acceleration", "acceleration.apply_acceleration"),
    ("rlsmcg.baselines", "wolfe_search", "linesearch.wolfe_search"),
    ("rlsmcg.baselines", "bb_fallback_stepsize", "linesearch.bb_fallback_stepsize"),
    ("rlsmcg.baselines", "ledger_update", "linesearch.ledger_update"),
    ("rlsmcg.baselines", "lbfgs_two_loop", "baselines.lbfgs_two_loop"),
)


class Trace:
    """Span totals per name plus per-solve run telemetry."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.child_calls = Counter()    # (parent span, child span) -> calls
        self.solves = {}                # solve label -> telemetry Counter
        self._stack = []                # open spans: [name, seconds covered by children]
        self._events = Counter()        # telemetry of the solve in progress
        self._searches = 0              # wolfe_search calls in the current iteration
        self._phase = 0                 # iterations in the open RQN phase
        self._observers = {"wolfe_search": self._on_search,
                           "rbfgs_update": self._on_rbfgs}

    def wrap(self, name, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe`` sees each result."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    self.child_calls[stack[-1][0], name] += 1

        return traced

    def timed_problem(self, rl, problem):
        """The same problem with its evaluators recorded as spans."""
        return rl.Problem(problem.name, problem.dim,
                          self.wrap("problems.eval_f", problem.eval_f),
                          self.wrap("problems.eval_g", problem.eval_g),
                          problem.x0)

    @contextmanager
    def patched(self):
        """Wrap every layer function where the drivers look it up; restore on exit."""
        saved = []
        try:
            for module_name, attr, span in LAYER_FUNCTIONS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span, fn, self._observers.get(attr)))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # --- run telemetry ------------------------------------------------------

    def rlsmcg_hook(self, rec):
        """``trace_hook`` for ``rlsmcg.run``: branch mix, RQN phases, guards."""
        self._end_iteration()
        if rec.failure is not None:
            return  # the failed step is reported but was not taken
        ev = self._events
        ev["case." + rec.case_tag.value] += 1
        if rec.state_before.value == "RQN":
            ev["rqn_iters"] += 1
            self._phase += 1
        else:
            self._close_phase()
        ev["phases_entered"] += rec.entered_rqn
        ev["guard_fallbacks"] += rec.guard_fallback
        ev["accel_attempts"] += rec.accel_attempted
        ev["accel_accepts"] += rec.accel_accepted

    def baseline_hook(self, row):
        """``trace_hook`` for ``rlsmcg.run_baseline``: marks iteration ends."""
        self._end_iteration()

    def end_solve(self, label):
        """Close the solve's telemetry; a repeated label overwrites (sweeps repeat)."""
        self._end_iteration()
        self._close_phase()
        self.solves[label] = self._events
        self._events = Counter()

    def _on_search(self, result):
        self._searches += 1
        self._events["search." + result.accepted_by.value] += 1

    def _on_rbfgs(self, result):
        self._events["rbfgs_resets"] += result.is_identity

    def _end_iteration(self):
        # a second search in one iteration is the steepest-descent rescue;
        # end_solve also calls this, because a baseline run that stops on a
        # failed rescue never reaches its hook
        self._events["rescues"] += self._searches >= 2
        self._searches = 0

    def _close_phase(self):
        ev = self._events
        ev["longest_phase"] = max(ev["longest_phase"], self._phase)
        self._phase = 0

    def telemetry_totals(self) -> Counter:
        """Telemetry summed over solves; ``longest_phase`` is the maximum."""
        total = Counter()
        for ev in self.solves.values():
            longest = max(total["longest_phase"], ev["longest_phase"])
            total.update(ev)
            total["longest_phase"] = longest
        return total
