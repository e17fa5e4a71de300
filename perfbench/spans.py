"""Layer spans for the traced run, recorded from the benchmark's side.

`Tracer.install` rebinds each public function named in LAYERS to a wrapper
that records one span (name, start, end, parent, item, work) per call. The
rebinding covers every aerobot module holding the function, so names taken
in with ``from .x import y`` (``sidewalk.wavelet_response``,
``flight.tilt_compensation_deltas``, ``cli.parse_pnm``, ...) are traced
too. Spans stay in memory; `write_jsonl` dumps them when the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one item span add up to the
item's wall time exactly; the item span's own self time is the part no
layer accounts for.
"""

from __future__ import annotations

import importlib
import json
import time

ITEM = "item"

# Work measured per call, for the rate metrics: (args, result) -> number.
_WORK = {
    "raster.parse_pnm": lambda args, res: len(args[0]),             # bytes
    "vision.wavelet_response": lambda args, res: args[0].width * args[0].height,
    "neural.hopfield_recall": lambda args, res: res[1],             # sweeps
    "sidewalk.classify_segment": lambda args, res: int(res.verdict == "unresolved"),
    "fuzzy.arm_compensation_deltas": lambda args, res: res.shape[0],  # poses
    "flight.simulate_hover": lambda args, res: len(res),            # steps
}

LAYERS = (
    "raster.parse_pnm", "raster.write_pnm", "raster.to_grayscale", "raster.histogram",
    "vision.wavelet_response", "vision.gabor_bank", "vision.pca_project",
    "vision.hough_circles", "vision.hough_lines", "vision.green_density",
    "vision.otsu_threshold",
    "neural.hopfield_recall",
    "sidewalk.inspect", "sidewalk.extract_strip", "sidewalk.classify_segment",
    "fuzzy.tilt_compensation_deltas", "fuzzy.arm_compensation_deltas",
    "fuzzy.pesticide_dose", "fuzzy.system_from_json",
    "flight.simulate_hover", "flight.trace_to_csv", "flight.max_tilt",
    "cli.run",
)

_MODULES = ("raster", "vision", "neural", "sidewalk", "fuzzy", "flight", "cli")


class Tracer:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id, work]
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = _WORK.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   spans[stack[0]][4] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every traced function in every aerobot module that holds it."""
        modules = [importlib.import_module(f"aerobot.{m}") for m in _MODULES]
        by_module = dict(zip(_MODULES, modules))
        wrappers = {}
        for name in LAYERS:
            mod, fn_name = name.split(".")
            fn = getattr(by_module[mod], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def begin(self, name, item):
        """Open a span by hand: the benchmark's span around one item."""
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, item, None])

    def end(self):
        """Close the innermost hand-opened span; returns its duration."""
        rec = self.spans[self._stack.pop()]
        rec[2] = time.perf_counter()
        return rec[2] - rec[1]

    def adopt(self, records):
        """Append spans recorded in a child process under the open span."""
        base = len(self.spans)
        top = self._stack[-1]
        for name, start, stop, parent, item, work in records:
            self.spans.append([name, start, stop, top if parent is None else base + parent,
                               self.spans[top][4], work])

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, n_items):
    """Per-layer metrics, each a per-item mean or a rate over self time."""
    own = self_times(spans)
    total, calls, work, returned = {}, {}, {}, {}
    for s, t in zip(spans, own):
        total[s[0]] = total.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1
        if s[5] is not None:
            work[s[0]] = work.get(s[0], 0) + s[5]
            returned[s[0]] = returned.get(s[0], 0) + 1

    def per_item_ms(name):
        return total.get(name, 0.0) * 1e3 / n_items

    def rate(name, scale):
        return work.get(name, 0) * scale / total[name] if total.get(name) else 0.0

    out = {f"{name}.self_ms": per_item_ms(name) for name in LAYERS}
    for name in ("neural.hopfield_recall", "sidewalk.classify_segment",
                 "fuzzy.tilt_compensation_deltas"):
        out[f"{name}.calls"] = calls.get(name, 0) / n_items
    tilt = "fuzzy.tilt_compensation_deltas"
    out[f"{tilt}.self_us_per_call"] = (total[tilt] * 1e6 / calls[tilt]) if calls.get(tilt) else 0.0
    out["raster.parse_pnm.mb_per_s"] = rate("raster.parse_pnm", 1e-6)
    out["vision.wavelet_response.mpix_per_s"] = rate("vision.wavelet_response", 1e-6)
    out["fuzzy.arm_compensation_deltas.poses_per_s"] = rate("fuzzy.arm_compensation_deltas", 1.0)
    steps = work.get("flight.simulate_hover", 0)
    out["flight.self_us_per_step"] = (
        total["flight.simulate_hover"] * 1e6 / steps if steps else 0.0)
    recalls = calls.get("neural.hopfield_recall", 0)
    converged = returned.get("neural.hopfield_recall", 0)
    out["neural.sweeps_per_recall"] = (
        work["neural.hopfield_recall"] / converged if converged else 0.0)
    segments = calls.get("sidewalk.classify_segment", 0)
    out["sidewalk.recall_fraction"] = recalls / segments if segments else 0.0
    out["sidewalk.unresolved_fraction"] = (
        work.get("sidewalk.classify_segment", 0) / segments if segments else 0.0)
    runs = [s[2] - s[1] for s in spans if s[0] == "cli.run"]
    out["cli.run_ms"] = sum(runs) * 1e3 / len(runs) if runs else 0.0
    items = [s[2] - s[1] for s in spans if s[0] == ITEM]
    out["trace.item_wall_ms"] = sum(items) * 1e3 / n_items
    out["unattributed_ms"] = per_item_ms(ITEM)
    return out
