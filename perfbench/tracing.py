"""Span tracing of uwloc from outside: wrap public functions, never edit them.

A Tracer replaces functions at the names the pipeline resolves them by
(module attributes and class attributes), records one span per call and
puts the originals back when it is uninstalled. Spans stay in memory; the
job that owns the tracer writes them out once its run has ended.

A span is [name, start, end, parent, counts]: perf_counter seconds, the
index of the enclosing span in the same process (-1 at the root), and the
work counts read from the call's arguments and return value.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, probes):
        """Wrap every (owner, attribute, span name, counter) probe; restore on exit."""
        try:
            for owner, attr, name, counter in probes:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans, **extra}, handle)

    def follow_forks(self, prefix):
        """Keep the spans of forked multiprocessing workers.

        Pool workers leave through os._exit, so atexit never runs there,
        but multiprocessing still runs its own after-fork hooks and
        finalizers in every worker it starts. A forked worker drops the
        parent's spans it inherited and writes its own to
        '<prefix>.<pid>.json' when it exits. Workers started by spawn or
        forkserver import uwloc afresh, untraced, and leave no file.
        """

        def reset_in_child(tracer):
            tracer.spans = []
            tracer._stack = []
            multiprocessing.util.Finalize(
                tracer, tracer.dump, args=(f"{prefix}.{os.getpid()}.json",), exitpriority=0
            )

        multiprocessing.util.register_after_fork(self, reset_in_child)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_pairs(args, kwargs, result):
    positions = np.atleast_2d(_arg(args, kwargs, 2, "positions"))
    receivers = np.atleast_2d(_arg(args, kwargs, 1, "receivers"))
    return {"pairs": positions.shape[0] * receivers.shape[0]}


def _count_positions(args, kwargs, result):
    return {"positions": int(result.shape[0])}


def _count_locate(args, kwargs, result):
    spec = args[0].spec
    pos = np.atleast_2d(result)
    axes = spec.counts > 1
    on_face = (pos[:, axes] == spec.lower[axes]) | (pos[:, axes] == spec.upper[axes])
    return {"trials": int(pos.shape[0]), "boundary": int(np.count_nonzero(on_face.any(axis=1)))}


def _count_epochs(args, kwargs, result):
    return {"epochs": len(result[1])}


def _count_csd(args, kwargs, result):
    return {"points": result.n + result.m, "p_points": result.n, "excluded": result.excluded_points}


def _count_condition(args, kwargs, result):
    return {"evaluated": 1, "ok": int(bool(result[1]))}


def pipeline_probes():
    """The public functions run_experiment reaches, at the names it calls them by."""
    from uwloc import bounds, channel, harness, localize, signal

    return [
        (channel, "arrivals_batch", "channel.arrivals_batch", _count_pairs),
        (channel, "average_attenuation", "channel.average_attenuation", None),
        (signal, "response_stack_batch", "signal.response_stack_batch", _count_positions),
        (localize, "response_stack_batch", "signal.response_stack_batch", _count_positions),
        (localize.GridEvaluator, "locate", "localize.locate", _count_locate),
        (localize.NetModel, "predict", "localize.predict", None),
        (harness, "train_net", "localize.train_net", _count_epochs),
        (harness, "extract_features", "localize.extract_features", None),
        (harness, "build_training_set", "harness.build_training_set", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "emit_outputs", "harness.emit_outputs", None),
        (harness, "load_config", "cli.load_config", None),
        (bounds, "estimate_csd", "csd.estimate_csd", _count_csd),
        (bounds, "strong_bound", "bounds.strong_bound", None),
        (bounds, "delta_squared_closed_form", "bounds.closed_form", None),
        (bounds, "gamma_and_condition", "bounds.closed_form", _count_condition),
        (bounds, "weak_bound", "bounds.closed_form", None),
    ]


def self_times(spans):
    """Per-name totals of self time (span minus direct children) and counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for (name, start, end, _, counts), inner in zip(spans, child_time):
        entry = totals.setdefault(name, {"s": 0.0, "calls": 0})
        entry["s"] += end - start - inner
        entry["calls"] += 1
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals


def root_time(spans):
    """Seconds covered by the root spans of one process."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def layer_metrics(parent_spans, worker_spans, import_s):
    """Per-layer metrics of one traced job.

    parent_spans come from the job process; worker_spans is a list of span
    lists, one per forked pool worker. Self times add up over processes,
    so with a pool they can exceed the job's wall time.
    """
    totals = self_times(parent_spans)
    for spans in worker_spans:
        for name, entry in self_times(spans).items():
            merged = totals.setdefault(name, {"s": 0.0, "calls": 0})
            for key, value in entry.items():
                merged[key] = merged.get(key, 0) + value

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    locate_s = get("localize.locate")
    return {
        "localize.locate.s": locate_s,
        "localize.locate.calls": get("localize.locate", "calls"),
        "localize.locate.trials": get("localize.locate", "trials"),
        "localize.locate.trials_per_s": ratio(get("localize.locate", "trials"), locate_s),
        "localize.locate.boundary_frac": ratio(
            get("localize.locate", "boundary"), get("localize.locate", "trials")
        ),
        "localize.train_net.s": get("localize.train_net"),
        "localize.train_net.s_per_epoch": ratio(
            get("localize.train_net"), get("localize.train_net", "epochs")
        ),
        "localize.predict.s": get("localize.predict"),
        "localize.extract_features.s": get("localize.extract_features"),
        "signal.response_stack_batch.s": get("signal.response_stack_batch"),
        "signal.response_stack_batch.positions": get("signal.response_stack_batch", "positions"),
        "channel.arrivals_batch.s": get("channel.arrivals_batch"),
        "channel.arrivals_batch.pairs": get("channel.arrivals_batch", "pairs"),
        "channel.average_attenuation.s": get("channel.average_attenuation"),
        "csd.estimate_csd.s": get("csd.estimate_csd"),
        "csd.estimate_csd.points": get("csd.estimate_csd", "points"),
        "csd.excluded_frac": ratio(
            get("csd.estimate_csd", "excluded"), get("csd.estimate_csd", "p_points")
        ),
        "bounds.strong_bound.s": get("bounds.strong_bound"),
        "bounds.closed_form.s": get("bounds.closed_form"),
        "bounds.condition_ok_frac": ratio(
            get("bounds.closed_form", "ok"), get("bounds.closed_form", "evaluated")
        ),
        "harness.self.s": get("harness.run_experiment"),
        "harness.build_training_set.s": get("harness.build_training_set"),
        "harness.emit_outputs.s": get("harness.emit_outputs"),
        "cli.import_s": import_s,
        "cli.load_config.s": get("cli.load_config"),
    }
