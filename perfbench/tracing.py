"""Span tracing of fruitgauge's public functions for the traced benchmark run.

Each traced function is replaced by a recording wrapper in every module of the
package that binds it, because ``pipeline``, ``sizing`` and ``fileio`` call
most of them through names bound by ``from``-imports. ``BinaryMask.bbox`` is
patched on the class. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# (layer module, function) pairs; a dotted function is a method patched on its class.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("maskops", "decode_rle"),
    ("maskops", "encode_rle"),
    ("maskops", "BinaryMask.bbox"),
    ("maskops", "extract_edges"),
    ("maskops", "extreme_points"),
    ("maskops", "median_edge_depth"),
    ("sizing", "measure_fruit"),
    ("sizing", "fit_circle"),
    ("sizing", "fill_ratio"),
    ("geometry", "align_depth_to_color"),
    ("simulate", "render_scene"),
    ("fileio", "read_detections"),
    ("fileio", "read_depth"),
    ("fileio", "write_detections"),
    ("fileio", "write_depth"),
    ("fileio", "load_json"),
    ("fileio", "dump_json"),
    ("fusion", "localize"),
    ("fusion", "deduplicate"),
    ("evaluation", "evaluate_run"),
    ("pipeline", "write_bundle"),
    ("pipeline", "cmd_measure"),
    ("pipeline", "cmd_fuse"),
    ("pipeline", "cmd_evaluate"),
)

SPAN_FIELDS = ("name", "op", "parent", "start_s", "end_s", "self_s", "error", "count")


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _mask_pixels(position: int, name: str) -> Callable[[tuple, dict], int]:
    return lambda args, kwargs: int(_arg(args, kwargs, position, name).data.size)


# Work counted per call, as (counter name, how to read it from the arguments).
COUNTERS: Dict[str, Tuple[str, Callable[[tuple, dict], int]]] = {
    "maskops.decode_rle": (
        "pixels",
        lambda args, kwargs: int(_arg(args, kwargs, 1, "size")[0])
        * int(_arg(args, kwargs, 1, "size")[1]),
    ),
    "maskops.encode_rle": ("pixels", _mask_pixels(0, "mask")),
    "maskops.BinaryMask.bbox": ("pixels", _mask_pixels(0, "self")),
    "maskops.extract_edges": ("pixels", _mask_pixels(0, "mask")),
    "maskops.extreme_points": ("pixels", _mask_pixels(0, "mask")),
    "fusion.deduplicate": ("n", lambda args, kwargs: len(_arg(args, kwargs, 0, "detections"))),
}


def span_names() -> List[str]:
    return [f"{module}.{function}" for module, function in TRACED]


class Tracer:
    """Records one span per traced call: name, op id, parent, start, end, self time."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._open: List[int] = []       # indices of the spans now running
        self._covered: List[float] = []  # child time inside each open span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.op, self._open[-1] if self._open else None,
                    0.0, 0.0, 0.0, False, counter(args, kwargs) if counter else None]
            self.spans.append(span)
            self._open.append(index)
            self._covered.append(0.0)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
                duration = span[4] - span[3]
                span[5] = duration - self._covered.pop()
                if self._covered:
                    self._covered[-1] += duration

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every binding of the traced functions; restore them on exit."""
        import fruitgauge

        modules = [fruitgauge] + [
            importlib.import_module(f"fruitgauge.{info.name}")
            for info in pkgutil.iter_modules(fruitgauge.__path__)
        ]
        undo: List[Tuple[object, str, object]] = []
        try:
            for module_name, function in TRACED:
                module = importlib.import_module(f"fruitgauge.{module_name}")
                name = f"{module_name}.{function}"
                if "." in function:
                    cls_name, attr = function.split(".")
                    cls = getattr(module, cls_name)
                    undo.append((cls, attr, cls.__dict__[attr]))
                    setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(module, function)
                wrapper = self._wrap(name, original)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            undo.append((target, attr, value))
                            setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

    def unaccounted(self, op_windows: Dict[int, float]) -> Dict[int, float]:
        """Per op: its time minus the summed self time of the spans inside it.

        Self times telescope, so the sum equals the time of the op's top-level
        spans; the rest is the benchmark's own glue between package calls.
        """
        covered = {op: 0.0 for op in op_windows}
        for span in self.spans:
            if span[2] is None and span[1] in covered:
                covered[span[1]] += span[4] - span[3]
        return {op: op_windows[op] - covered[op] for op in op_windows}

    def layer_table(self, n_ops: int) -> Dict[str, Dict[str, float]]:
        """Totals per traced function, divided by the number of ops traced."""
        table: Dict[str, Dict[str, float]] = {}
        for name in span_names():
            row = {"calls": 0, "self_s": 0.0, "errors": 0}
            if name in COUNTERS:
                row[COUNTERS[name][0]] = 0
            table[name] = row
        for name, _op, _parent, _start, _end, self_s, error, count in self.spans:
            row = table[name]
            row["calls"] += 1
            row["self_s"] += self_s
            row["errors"] += int(error)
            if count is not None:
                row[COUNTERS[name][0]] += count
        return {name: {key: value / n_ops for key, value in row.items()}
                for name, row in table.items()}

    def write(self, path: Path, layers: Dict[str, Dict[str, float]],
              unaccounted: Dict[int, float], op_seconds: Sequence[float]) -> None:
        """Spans (times relative to the first span), per-op layer table, remainder."""
        t0 = self.spans[0][3] if self.spans else 0.0
        spans = [[name, op, parent, start - t0, end - t0, self_s, error, count]
                 for name, op, parent, start, end, self_s, error, count in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "span_fields": list(SPAN_FIELDS),
            "spans": spans,
            "layers_per_op": layers,
            "op_seconds": list(op_seconds),
            "unaccounted_s": {str(op): value for op, value in unaccounted.items()},
        }) + "\n")
