"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions and methods named in ``SPANS`` for the
length of each traced round.  A function is replaced under every name that any
``fdqme`` module binds it to, so calls through directly imported names (such
as ``cli.markovian_spectrum`` or ``redfield.kernel_modes``) are recorded too.
Spans are kept in memory with their parent and item id; self time is a
span's duration minus the time its child spans cover.  A name that no longer
exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "fdme", "baths", "redfield", "measures", "waveguide", "oracle")


def _arg_size(name):
    """Counter reading the length of one argument of the wrapped call."""

    def count(bound):
        value = bound.arguments.get(name)
        return int(getattr(value, "size", 1)) if value is not None else 0

    return count


def _liouville_dim(bound):
    return (2 * int(bound.arguments["n_fock"])) ** 2


# span name -> ([(module, attribute path), ...], None or (count metric, counter))
SPANS = {
    "cli.main": ([("fdqme.cli", "main")], None),
    "cli.parse_config": ([("fdqme.cli", "parse_config")], None),
    "cli.run_scenario": ([("fdqme.cli", "run_scenario")], None),
    "fdme.propagator": ([("fdqme.fdme", "thermal_propagator"), ("fdqme.fdme", "squeezed_propagator")],
                        None),
    "fdme.steady_state": ([("fdqme.fdme", "steady_state")], None),
    "fdme.emission_spectrum": ([("fdqme.fdme", "emission_spectrum")],
                               ("fdme.emission_spectrum.points", _arg_size("grid"))),
    "fdme.make_spectrum": ([("fdqme.fdme", "make_spectrum")], None),
    "fdme.inverse_transform": ([("fdqme.fdme", "inverse_transform")], None),
    "baths.kernel_modes": ([("fdqme.baths", "kernel_modes")], None),
    "baths.time_matrix": ([("fdqme.baths", "KernelModes.time_matrix")],
                          ("baths.time_matrix.samples", _arg_size("t"))),
    "baths.freq_matrix": ([("fdqme.baths", "KernelModes.freq_matrix")], None),
    "baths.generic_kernel_time": ([("fdqme.baths", "generic_kernel_time")], None),
    "baths.default_frequency_grid": ([("fdqme.baths", "default_frequency_grid")], None),
    "baths.closed_spectrum": ([("fdqme.baths", "thermal_closed_spectrum"),
                               ("fdqme.baths", "squeezed_closed_spectrum"),
                               ("fdqme.baths", "markovian_spectrum")], None),
    "redfield.br_evolve": ([("fdqme.redfield", "br_evolve")],
                           ("redfield.br_evolve.time_points", _arg_size("t_grid"))),
    "measures.spectral_measure": ([("fdqme.measures", "spectral_measure")], None),
    "measures.spectral_gap": ([("fdqme.measures", "spectral_gap")], None),
    "measures.blp_measure": ([("fdqme.measures", "blp_measure")], None),
    "waveguide.waveguide_spectrum": ([("fdqme.waveguide", "waveguide_spectrum")], None),
    "waveguide.waveguide_measure_sweep": ([("fdqme.waveguide", "waveguide_measure_sweep")], None),
    "oracle.build_full_model": ([("fdqme.oracle", "build_full_model")],
                                ("oracle.liouville_dim", _liouville_dim)),
    "oracle.full_steady_state": ([("fdqme.oracle", "full_steady_state")], None),
    "oracle.full_steady_spectrum": ([("fdqme.oracle", "full_steady_spectrum")], None),
}
# bytes written are measured by the runner from the files on disk
BYTES_WRITTEN = "cli.bytes_written"


@dataclass(slots=True)
class Span:
    name: str
    item: int
    parent: int | None
    start: float
    end: float = 0.0
    error: int | None = None  # id of the exception that left the span
    count: int = 0


class Tracer:
    """Installs span wrappers, records spans of the current item, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.bytes_written = 0
        self.item_seconds = 0.0
        self._stack: list[int] = []
        self._item: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fdqme" or name.startswith("fdqme."))]
        for span, (targets, counter) in SPANS.items():
            found = False
            for module_name, path in targets:
                owner, attr, original = _resolve(module_name, path)
                if original is None:
                    continue
                found = True
                wrapper = self._wrap(span, original, counter and counter[1])
                if owner is not None:  # a method: patch it on its class only
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
            if not found:
                self.absent.append(span)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name, fn, counter):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        def tally(args, kwargs):
            if sig is None or counter is None:
                return 0
            try:
                return counter(sig.bind(*args, **kwargs))
            except (TypeError, KeyError, ValueError):
                return 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._item is None:
                return fn(*args, **kwargs)
            span = Span(span_name, self._item, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            span.count = tally(args, kwargs)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = id(exc)
                raise
            finally:
                self._stack.pop()
                span.end = time.perf_counter()

        return wrapper

    # -- recording ---------------------------------------------------------

    def begin_item(self, item_id: int):
        self._item = item_id
        self._stack.clear()

    def end_item(self, seconds: float, bytes_written: int):
        self._item = None
        self.item_seconds += seconds
        self.bytes_written += bytes_written

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-span calls, median ms and self share; per-layer error counts; counters."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        by_name: dict[str, list[int]] = {name: [] for name in SPANS}
        for k, span in enumerate(self.spans):
            by_name[span.name].append(k)
        total = self.item_seconds or 1.0
        out = {}
        for name, idx in by_name.items():
            durations = [self.spans[k].end - self.spans[k].start for k in idx]
            out[f"{name}.calls"] = (len(idx), "count")
            out[f"{name}.ms_p50"] = (1e3 * statistics.median(durations) if durations else 0.0, "ms")
            self_time = sum(d - child_time[k] for d, k in zip(durations, idx))
            out[f"{name}.self_share"] = (self_time / total, "ratio")
        for name, (_, counter) in SPANS.items():
            if counter is not None:
                out[counter[0]] = (sum(self.spans[k].count for k in by_name[name]), "count")
        out[BYTES_WRITTEN] = (self.bytes_written, "bytes")
        errors = {layer: set() for layer in LAYERS}
        for span in self.spans:
            if span.error is not None:
                errors[span.name.split(".")[0]].add((span.item, span.error))
        for layer in LAYERS:
            out[f"{layer}.errors"] = (len(errors[layer]), "count")
        out["trace.absent_spans"] = (len(self.absent), "count")
        return out

    def dump(self) -> list[dict]:
        """Spans as plain records, for writing out at the end of the run."""
        return [{"id": k, "name": s.name, "item": s.item, "parent": s.parent,
                 "start": s.start, "end": s.end, "error": s.error is not None, "count": s.count}
                for k, s in enumerate(self.spans)]


def _resolve(module_name: str, path: str):
    """(class or None, attribute, function) for a dotted attribute path, or None if missing."""
    module = sys.modules.get(module_name)
    if module is None:
        return None, None, None
    owner = None
    value = module
    parts = path.split(".")
    for part in parts:
        owner, value = value, getattr(value, part, None)
        if value is None:
            return None, None, None
    if len(parts) == 1:
        return None, parts[-1], value
    return owner, parts[-1], value
