"""In-memory spans around the calls the CLI makes into each layer.

A traced op patches the public functions that ``qlqg.cli``,
``qlqg.closed_loop`` and ``qlqg.control`` imported, so every call into a
layer, nested ones included, opens its own span.  Spans carry a parent
id; a span's self time is its duration minus the durations of its
children (calls are sequential because ``QLQG_THREADS`` is unset).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _steps_of_result(args, kwargs, result):
    return result.grid.n_steps


def _traj_steps_of_result(args, kwargs, result):
    return result.config.n_traj * result.config.grid.n_steps


def _grid_steps_of_arg(args, kwargs, result):
    return args[2].n_steps


def _rows_of_path(args, kwargs, result):
    return args[0].grid.n_points


def _rows_of_gains(args, kwargs, result):
    return args[0].gains.shape[0]


def _rows_of_record(args, kwargs, result):
    return len(args[0].times)


def _rows_of_times(args, kwargs, result):
    return len(args[0])


# span name and work count of each function, per importing module
_RICCATI = {
    "integrate_filter_riccati": ("riccati.filter", _steps_of_result),
    "integrate_control_riccati": ("riccati.control", _steps_of_result),
}
PATCHES = {
    "qlqg.cli": {
        **_RICCATI,
        "total_minimal_cost": ("riccati.cost", None),
        "control_gain_path": ("control.gain_path", None),
        "control_path_via_duality": ("control.dual", None),
        "simulate_closed_loop": ("closed_loop.simulate", _traj_steps_of_result),
        "monte_carlo_expected_cost": ("closed_loop.mc_cost", None),
        "simulate_sme_ensemble": ("sme.ensemble", _traj_steps_of_result),
        "evolve_master": ("sme.master", _grid_steps_of_arg),
        "matrix_path_to_csv": ("cli.csv", _rows_of_path),
        "gain_path_to_csv": ("cli.csv", _rows_of_gains),
        "trajectory_to_csv": ("cli.csv", _rows_of_record),
        "_mean_path_csv": ("cli.csv", _rows_of_times),
    },
    "qlqg.closed_loop": {
        **_RICCATI,
        "control_gain_path": ("control.gain_path", None),
    },
    "qlqg.control": {
        "integrate_filter_riccati": ("riccati.filter", _steps_of_result),
    },
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count += count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of :data:`PATCHES`; restore on exit."""
        saved = []
        try:
            for module_name, table in PATCHES.items():
                module = importlib.import_module(module_name)
                for attr, (name, count) in table.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def summarize(tracer: Tracer, root: Span) -> dict:
    """Self time, call count and work count per span name under ``root``.

    The root's own self time is the op time that no layer span covers.
    """
    children = defaultdict(float)
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "count": 0})
    for span in tracer.spans[root.id:]:
        entry = out[span.name]
        entry["self_s"] += span.duration - children[span.id]
        entry["calls"] += 1
        entry["count"] += span.count
    return dict(out)
