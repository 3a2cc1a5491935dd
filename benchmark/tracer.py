"""Outside-in span tracer for the advrisk layers.

The tracer wraps the public functions of each layer from outside the
package: every module of ``advrisk`` that bound a traced function by name
gets the wrapper, so calls made through ``from .trs import
worst_case_batch`` in ``risk``, ``training`` and ``kalman`` are seen too.
Methods (``RngStream.normal_block``, ``ResultTable.write_csv``) are wrapped
on their class.  ``uninstall`` restores every original binding.

Span times are CPU times of this process, like the benchmark's end-to-end
times.  A span's self time is its duration minus the wrapped spans it
encloses; the time spent in the tracer's own hooks is charged to no span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import process_time


# (module, attribute path, span name).  The span name is "<layer>.<function>",
# where the layer is the module under src/advrisk/.
TARGETS = (
    ("advrisk.model", "RngStream.normal_block", "model.normal_block"),
    ("advrisk.model", "sample_batch", "model.sample_batch"),
    ("advrisk.model", "cholesky_factor", "model.cholesky_factor"),
    ("advrisk.trs", "worst_case_batch", "trs.worst_case_batch"),
    ("advrisk.trs", "svd_full", "trs.svd_full"),
    ("advrisk.risk", "adversarial_risk_mc", "risk.adversarial_risk_mc"),
    ("advrisk.risk", "ar_sr_gap_mc", "risk.ar_sr_gap_mc"),
    ("advrisk.risk", "gap_bounds_mc", "risk.gap_bounds_mc"),
    ("advrisk.training", "train", "training.train"),
    ("advrisk.training", "pareto_trace", "training.pareto_trace"),
    ("advrisk.kalman", "simulate_rollouts", "kalman.simulate_rollouts"),
    ("advrisk.kalman", "build_stacked", "kalman.build_stacked"),
    ("advrisk.kalman", "estimator_ar_mc", "kalman.estimator_ar_mc"),
    ("advrisk.kalman", "kalman_estimator", "kalman.kalman_estimator"),
    ("advrisk.kalman", "observability_gramian", "kalman.observability_gramian"),
    ("advrisk.experiments", "run_experiment", "experiments.run_experiment"),
    ("advrisk.experiments", "ResultTable.write_csv", "experiments.write_csv"),
    ("advrisk.plotting", "frontier_svg", "plotting.frontier_svg"),
)

# Monte Carlo estimators: the rows they draw and solve are counted against
# the distinct samples they request (see ``_mc_enter``).
MC_SPANS = (
    "risk.adversarial_risk_mc",
    "risk.ar_sr_gap_mc",
    "risk.gap_bounds_mc",
    "kalman.estimator_ar_mc",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span timings and work counts for one traced stretch of a program.

    ``stats[span] = [calls, self_s, total_s]``; ``counts`` holds work
    counters (rows, steps, branch outcomes, Monte Carlo samples).
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._mc_depth = 0
        self._mc_keys: set = set()
        self._mc_refs: list = []
        self._experiment = 0
        self._branch_codes: list = []
        self._hooks = {
            "model.normal_block": (None, self._rows_drawn),
            "model.sample_batch": (None, self._count_arg("model.sample_batch.rows", 1, "count")),
            "trs.worst_case_batch": (None, self._solved),
            "training.train": (None, self._steps),
            "training.pareto_trace": (None, self._points),
            "kalman.simulate_rollouts": (
                None, self._count_arg("kalman.simulate_rollouts.rows", 2, "count")),
            "experiments.run_experiment": (None, self._end_experiment),
        }

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every binding of every target in the loaded advrisk modules."""
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)  # plotting is imported lazily
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "advrisk" or name.startswith("advrisk."))]
        trs = sys.modules["advrisk.trs"]
        self._branch_codes = [(name, getattr(trs, "BRANCH_" + name.upper()))
                              for name in ("easy", "hard", "degenerate")]
        try:
            for module_name, path, span in TARGETS:
                owner = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(span, original))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span, fn):
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        before, after = self._hooks.get(span, (None, None))
        if span in MC_SPANS:
            signature = inspect.signature(fn)

            def before(args, kwargs):
                self._mc_enter(signature.bind(*args, **kwargs))

            def after(args, kwargs, result):
                self._mc_depth -= 1

        def traced(*args, **kwargs):
            h0 = process_time()
            if before is not None:
                before(args, kwargs)
            result = None
            stack.append(0.0)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = process_time()
                child = stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - child
                stat[2] += t1 - t0
                if after is not None:
                    after(args, kwargs, result)
                if stack:
                    stack[-1] += process_time() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = fn.__doc__
        return traced

    # -- hooks ----------------------------------------------------------

    def _count_arg(self, counter, pos, name):
        def after(args, kwargs, result):
            self.counts[counter] += int(_arg(args, kwargs, pos, name))
        return after

    def _rows_drawn(self, args, kwargs, result):
        rows = int(_arg(args, kwargs, 2, "count"))  # args[0] is the stream
        self.counts["model.normal_block.rows"] += rows
        if self._mc_depth:
            self.counts["mc.rows_drawn"] += rows

    def _solved(self, args, kwargs, result):
        if result is None:
            return
        branches = result[3]
        rows = int(branches.shape[0])
        self.counts["trs.worst_case_batch.rows"] += rows
        if self._mc_depth:
            self.counts["mc.rows_solved"] += rows
        outcomes = Counter(branches.tolist())
        for name, code in self._branch_codes:
            self.counts[f"trs.branch.{name}"] += outcomes[code]

    def _steps(self, args, kwargs, result):
        self.counts["training.steps"] += int(_arg(args, kwargs, 1, "config").n_iters)

    def _points(self, args, kwargs, result):
        if result is not None:
            self.counts["training.frontier_points"] += len(result)

    def _mc_enter(self, bound) -> None:
        # A sample is unique within one experiment call by (model, problem,
        # stream, sample range).  The objects are kept alive until the call
        # ends so that their ids are not reused meanwhile.
        bound.apply_defaults()
        sig = bound.arguments
        model = sig["a"] if "a" in sig else sig["l"]
        problem = sig["problem"] if "problem" in sig else sig["system"]
        data = getattr(problem, "a_star", problem)  # with_epsilon copies share a_star
        stream = sig["stream"]
        self._mc_refs += [model, data]
        key = (self._experiment, id(model), id(data), stream.seed, stream.stream_id,
               sig["base_index"], sig["n_samples"])
        if key not in self._mc_keys:
            self._mc_keys.add(key)
            self.counts["mc.unique_samples"] += int(sig["n_samples"])
        self._mc_depth += 1

    def _end_experiment(self, args, kwargs, result):
        self._experiment += 1
        self._mc_keys.clear()
        self._mc_refs.clear()

    # -- summaries ------------------------------------------------------

    def calls(self, span: str) -> int:
        return self.stats.get(span, [0])[0]

    def self_s(self, span: str) -> float:
        return self.stats.get(span, [0, 0.0])[1]

    def total_s(self, span: str) -> float:
        return self.stats.get(span, [0, 0.0, 0.0])[2]
