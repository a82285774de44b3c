"""Span recording for the traced run, and the per-layer metrics built from spans.

Run as a script, ``python bench/spans.py SPANS_OUT ARGV...`` rebinds the
public functions of ``tripoint.graph``, ``.obstruct``, ``.branch``, ``.qnum``
and ``.cli`` (and the public methods of ``QuantumContext``) to wrappers that
record a span per call, calls ``tripoint.cli.main(ARGV)``, writes the spans
to SPANS_OUT as JSON and exits with main's return code.  No file of the
program changes; every module-level reference to a wrapped function,
including names imported into other tripoint modules, is rebound.

A span is ``[name, start_ns, end_ns, parent_index, raised]``.  A span's self
time is its duration minus the durations of its direct children; the code is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graph", "obstruct", "branch", "qnum", "cli")
SPECTRAL = ("graph.graph_norm", "graph.dimension_vector")
EXTRACT = ("graph.extract_triple_point", "graph.supertransitivity")


class Tracer:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[index][4] = 1
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        package = importlib.import_module("tripoint")
        modules = {layer: importlib.import_module(f"tripoint.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        context = modules["qnum"].QuantumContext
        for attr in ("qint", "qints"):
            setattr(context, attr, self.wrap(f"qnum.QuantumContext.{attr}", getattr(context, attr)))


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span, in milliseconds."""
    own = [(end - start) / 1e6 for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e6
    return own


class LayerTotals:
    """Sums over the spans of many traced invocations.

    Work between one ``graph.parse_pair`` call and the next belongs to one
    pair; a pair is accepted when its ``obstruct.run_battery`` returned.
    """

    def __init__(self) -> None:
        self.obstruct_ms = 0.0
        self.pairs = 0
        self.accepted = 0
        self.ops = 0
        self.pair_ms: defaultdict[str, float] = defaultdict(float)
        self.accepted_calls: Counter[str] = Counter()
        self.crosschecked = 0

    def add(self, spans: list[list], ops: int) -> None:
        self.ops += ops
        own = self_times(spans)
        self.obstruct_ms += sum(ms for (name, *_), ms in zip(spans, own)
                                if name.startswith("obstruct."))
        segments: list[list[str]] = []
        for i in sorted(range(len(spans)), key=lambda i: spans[i][1]):
            name, _, _, _, raised = spans[i]
            if name == "graph.parse_pair":
                segments.append([])
            if segments:
                segments[-1].append(name if not raised else "!" + name)
        if not segments:
            return
        # an invocation that handled pairs: all of its time is per-pair cost
        for (name, *_), ms in zip(spans, own):
            self.pair_ms[name] += ms
        for names in segments:
            self.pairs += 1
            if "obstruct.run_battery" in names:
                self.accepted += 1
                self.crosschecked += "branch.build_branch_matrix" in names
                self.accepted_calls.update(names)

    def _per_pair(self, names) -> float:
        return sum(self.pair_ms[n] for n in names) / max(1, self.pairs)

    def _per_pair_layer(self, prefix: str) -> float:
        return sum(ms for n, ms in self.pair_ms.items() if n.startswith(prefix)) / max(1, self.pairs)

    def _calls(self, names) -> float:
        return sum(self.accepted_calls[n] for n in names) / max(1, self.accepted)

    def metrics(self) -> dict[str, tuple[float, str, int, str]]:
        """name -> (value, unit, base count, base name)."""
        pairs, accepted = self.pairs, self.accepted
        return {
            "graph.spectral_ms_per_pair": (self._per_pair(SPECTRAL), "ms/pair", pairs, "pairs"),
            "graph.spectral_calls_per_pair": (self._calls(SPECTRAL), "calls/pair", accepted, "accepted pairs"),
            "graph.parse_ms_per_pair": (self._per_pair(["graph.parse_pair"]), "ms/pair", pairs, "pairs"),
            "graph.extract_self_ms_per_pair": (self._per_pair(EXTRACT), "ms/pair", pairs, "pairs"),
            "obstruct.battery_self_ms_per_pair": (self._per_pair_layer("obstruct."), "ms/pair", pairs, "pairs"),
            "cli.self_ms_per_pair": (self._per_pair_layer("cli."), "ms/pair", pairs, "pairs"),
            "branch.ms_per_pair": (self._per_pair_layer("branch."), "ms/pair", pairs, "pairs"),
            "branch.crosscheck_frac": (self.crosschecked / max(1, accepted), "frac", accepted, "accepted pairs"),
            "qnum.qint_calls_per_pair": (self._calls(["qnum.QuantumContext.qint"]), "calls/pair", accepted, "accepted pairs"),
            "obstruct.self_ms_per_op": (self.obstruct_ms / max(1, self.ops), "ms/op", self.ops, "ops"),
            "graph.reject_frac": ((pairs - accepted) / max(1, pairs), "frac", pairs, "pairs"),
        }


def _main(argv: list[str]) -> int:
    out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("tripoint.cli")
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
