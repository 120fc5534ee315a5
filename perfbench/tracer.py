"""Outside-in tracing of rvrp's module boundaries.

The tracer replaces the names that rvrp's own modules look up at call time
(``rvrp.solvers.move_firefly``, ``rvrp.operators.route_cost``,
``Instance.load``, ...) with timing wrappers, and puts the originals back in
``restore``. The program's code is not changed: only module and class
attributes are swapped while a traced phase runs.

Every call closes a span. Self time is the span's duration minus the time of
the spans it directly encloses, so the self times of one phase add up to the
phase's wall time. Hot per-evaluation spans (``route_cost`` runs hundreds of
thousands of times per run) are folded into per-name totals as they close,
which keeps memory flat; coarse spans (solves, set-up, harness calls) are
also kept one by one, with their parent, and written out by ``write``.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, class or None, attribute, span name, kept one by one)
PATCHES: tuple[tuple[str, str | None, str, str, bool], ...] = (
    ("rvrp.instance", "Instance", "from_dict", "instance.Instance.from_dict", True),
    ("rvrp.instance", "Instance", "load", "instance.Instance.load", True),
    ("rvrp.generator", None, "validate_instance", "instance.validate_instance", True),
    ("rvrp.evaluation", None, "route_cost", "evaluation.route_cost", False),
    ("rvrp.operators", None, "route_cost", "evaluation.route_cost", False),
    ("rvrp.solvers", None, "solution_cost", "evaluation.solution_cost", False),
    ("rvrp.stats", None, "check_feasible", "evaluation.check_feasible", True),
    ("rvrp.solvers", None, "move_firefly", "operators.move_firefly", False),
    ("rvrp.solvers", None, "movement_length", "operators.movement_length", False),
    ("rvrp.solvers", None, "hamming_distance", "operators.hamming_distance", False),
    ("rvrp.solvers", None, "insertion_move", "operators.insertion_move", False),
    ("rvrp.solvers", None, "random_solution", "operators.random_solution", False),
    ("rvrp.generator", None, "random_solution", "operators.random_solution", False),
    ("rvrp.solvers", None, "metropolis_accept", "solvers.metropolis_accept", False),
    ("rvrp.solvers", None, "solve", "solvers.solve", True),
    ("rvrp.stats", None, "solve", "solvers.solve", True),
    ("rvrp.generator", None, "generate_suite", "generator.generate_suite", True),
    ("rvrp.generator", None, "select_forbidden", "generator.select_forbidden", True),
    ("rvrp.generator", None, "write_suite", "generator.write_suite", True),
    ("rvrp.generator", None, "load_suite", "generator.load_suite", True),
    ("rvrp.stats", None, "run_experiment", "stats.run_experiment", True),
)


def _identity(counters: dict, args: tuple, result) -> None:
    counters["operators.insertion_move.identity"] += result is args[0]


def _accepted(counters: dict, args: tuple, result) -> None:
    counters["solvers.metropolis_accept.accepted"] += bool(result)


def _length(counters: dict, args: tuple, result) -> None:
    counters["operators.movement_length.sum"] += result


# outcome counters read at the boundary where the work happens
OBSERVERS = {
    "operators.insertion_move": _identity,
    "solvers.metropolis_accept": _accepted,
    "operators.movement_length": _length,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters = {
            "operators.insertion_move.identity": 0,
            "solvers.metropolis_accept.accepted": 0,
            "operators.movement_length.sum": 0,
        }
        # one child-time accumulator per open span
        self._open: list[float] = []
        # kept spans: [name id, parent kept-span index, start, end]
        self.spans: list[list] = []
        self._open_kept: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name: str, keep: bool):
        if keep:
            span = self.span

            def traced(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)

            traced.__wrapped__ = fn
            return traced

        nid = self._intern(name)
        open_, calls, self_s = self._open, self.calls, self.self_s
        observe, counters = OBSERVERS.get(name), self.counters
        perf = time.perf_counter

        def traced(*args, **kwargs):
            open_.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = open_.pop()
                if open_:
                    open_[-1] += dur
                calls[nid] += 1
                self_s[nid] += dur - child
            if observe is not None:
                observe(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span that is also kept one by one, with its parent kept span."""
        nid = self._intern(name)
        kept = len(self.spans)
        self.spans.append([nid, self._open_kept[-1] if self._open_kept else -1, 0.0, 0.0])
        self._open_kept.append(kept)
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            dur = t1 - t0
            child = self._open.pop()
            if self._open:
                self._open[-1] += dur
            self.calls[nid] += 1
            self.self_s[nid] += dur - child
            self._open_kept.pop()
            self.spans[kept][2:] = [t0, t1]

    def install(self) -> None:
        for module_name, cls_name, attr, name, keep in PATCHES:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, keep))
            else:
                new = self.wrap(raw, name, keep)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)

    def restored(self) -> bool:
        """True when every patched name is the original object again."""
        return all(vars(owner)[attr] is raw for owner, attr, raw in self._saved)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        rows = [
            {"name": self.names[nid], "parent": parent, "start_s": start, "end_s": end}
            for nid, parent, start, end in self.spans
        ]
        totals = {n: {"calls": c, "self_s": s} for n, (c, s) in self.totals().items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": rows, "totals": totals, "counters": self.counters}, indent=1)
            + "\n",
            encoding="utf-8",
        )
