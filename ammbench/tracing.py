"""Span tracing from outside the program.

A :class:`Tracer` swaps the module-level names that ammlab's callers look
up (``ammlab.adversary.apply_swap``, ``ammlab.cli.parse_log``, ...) for
timing wrappers, and puts the originals back on :meth:`Tracer.uninstall`.
The program's own code is never edited.  Each wrapper records calls, total
time, self time (total minus the time of traced calls made inside it) and
exceptions, plus one span per call: the op it belongs to, its parent span,
its layer name, start and end.  Spans stay in memory, in flat arrays, and
are written out by :meth:`Tracer.write_spans` when the run ends.

A site that is missing (a later version of the program renamed or removed
it) is skipped and listed in :attr:`Tracer.missing`; its layer reads zero.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from time import perf_counter

OP_SPAN = "bench.op"


FLAVORS = (".exact", ".float")


def _is_float(args) -> bool:
    """Which of :data:`FLAVORS` a call is, from its ecosystem argument."""
    return isinstance(args[0].pools[0].x, float)


def _observe_swap(tracer: "Tracer", name: str, args, result) -> None:
    if args[1].side == "Y":
        tracer.count(name + ".send_y")
    out = result[1]
    if isinstance(out, Fraction):
        bits = out.denominator.bit_length()
        if bits > tracer.counters.get("max_denominator_bits", 0):
            tracer.counters["max_denominator_bits"] = bits


def _observe_cycle(tracer: "Tracer", name: str, args, result) -> None:
    if result is None:
        tracer.count("adversary.cycles.aborted")


def _observe_rebalance(tracer: "Tracer", name: str, args, result) -> None:
    tracer.count("rebalance.transfers", len(result[1]))


def _observe_parse(tracer: "Tracer", name: str, args, result) -> None:
    tracer.count("replay.rows", len(result))


#: (module, attribute, layer name, flavor test or None, observer or None).
#: The module is the *caller's* namespace: that is where the name is looked
#: up at call time.
SITES = (
    ("ammlab", "apply_swap", "core.apply_swap", _is_float, _observe_swap),
    ("ammlab.adversary", "apply_swap", "core.apply_swap", _is_float, _observe_swap),
    ("ammlab", "quote_order", "core.quote_order", _is_float, None),
    ("ammlab", "no_arbitrage_certificate", "adversary.no_arbitrage_certificate", None, None),
    ("ammlab.adversary", "_random_cycle_value", "adversary.random_cycle", None, _observe_cycle),
    ("ammlab.adversary", "golden_section_max", "numeric.golden_section_max", None, None),
    ("ammlab", "gmm_rebal_quote", "rebalance.gmm_rebal_quote", None, None),
    ("ammlab.rebalance", "rebalance_pools", "rebalance.rebalance_pools", None, _observe_rebalance),
    ("ammlab.cli", "main", "cli.replay", None, None),
    ("ammlab.cli", "parse_log", "replay.parse_log", None, _observe_parse),
    ("ammlab.cli", "run_counterfactual", "replay.run_counterfactual", None, None),
    ("ammlab.cli", "il_portfolio_report", "replay.il_portfolio_report", None, None),
    ("ammlab.replay", "sandwich_profit_cpmm_closed", "adversary.closed_form", None, None),
    ("ammlab.replay", "sandwich_profit_beta", "adversary.closed_form", None, None),
    ("ammlab.replay", "sandwich_profit_nsplit", "adversary.closed_form", None, None),
)


class Tracer:
    """Collects per-layer counts and spans while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.total: list = []
        self.self_time: list = []
        self.raised: list = []
        self.counters: dict = {}
        self.missing: list = []
        # one entry per span, index-aligned
        self.span_id = array("l")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span id, name id, start, child time]
        self._next_span = 0
        self._op = -1
        self._patches = self._build_patches()

    # --- bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.raised.append(0)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, nid: int) -> list:
        frame = [self._next_span, nid, 0.0, 0.0]
        self._next_span += 1
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, nid, start, child = frame
        duration = end - start
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        self.span_id.append(sid)
        self.span_op.append(self._op)
        self.span_parent.append(parent_id)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)

    # --- wrappers ----------------------------------------------------

    def _wrap(self, fn, name: str, flavor, observe):
        tracer = self
        fixed = None if flavor else self.name_id(name)
        labels = [self.name_id(name + suffix) for suffix in FLAVORS] if flavor else None

        def traced(*args, **kwargs):
            label = fixed if flavor is None else labels[flavor(args)]
            frame = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.raised[label] += 1
                raise
            finally:
                tracer._close(frame)
            if observe is not None:
                observe(tracer, tracer.names[label], args, result)
            return result

        return traced

    def _build_patches(self) -> list:
        patches = []
        for module_name, attr, name, flavor, observe in SITES:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            patches.append((module, attr, original, self._wrap(original, name, flavor, observe)))
        return patches

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # --- ops -----------------------------------------------------------

    def begin_op(self, index: int) -> list:
        """Open the root span of op ``index``; every span until
        :meth:`end_op` shares the op's identifier."""
        self._op = index
        return self._open(self.name_id(OP_SPAN))

    def end_op(self, frame: list) -> None:
        self._close(frame)
        self._op = -1

    # --- results -------------------------------------------------------

    def stat(self, name: str):
        """``(calls, total seconds, self seconds, raised)`` of one layer."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0, 0
        return self.calls[nid], self.total[nid], self.self_time[nid], self.raised[nid]

    def layers(self) -> dict:
        return {
            name: {"calls": self.calls[i], "total_s": self.total[i],
                   "self_s": self.self_time[i], "raised": self.raised[i]}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path) -> int:
        """Write every span as CSV (times relative to the first span)."""
        base = min(self.span_start) if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,op,parent_id,name,start_s,end_s\n")
            for k in range(len(self.span_op)):
                fh.write(
                    f"{self.span_id[k]},{self.span_op[k]},{self.span_parent[k]},"
                    f"{self.names[self.span_name[k]]},"
                    f"{self.span_start[k] - base:.9f},{self.span_end[k] - base:.9f}\n"
                )
        return len(self.span_op)


def _per_call_us(calls: int, seconds: float) -> float:
    return seconds / calls * 1e6 if calls else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """The per-layer metrics, named after the module that owns each layer.

    A layer the workload does not reach reads 0, which is the prediction
    for it on that workload.
    """
    exact_calls, exact_s, _, exact_raised = tracer.stat("core.apply_swap.exact")
    float_calls, float_s, _, float_raised = tracer.stat("core.apply_swap.float")
    quote_calls, quote_s, _, _ = tracer.stat("core.quote_order.float")
    gss_calls, _, gss_self, _ = tracer.stat("numeric.golden_section_max")
    cycles, _, _, _ = tracer.stat("adversary.random_cycle")
    rebal_calls, rebal_s, _, _ = tracer.stat("rebalance.gmm_rebal_quote")
    pools_calls, _, _, _ = tracer.stat("rebalance.rebalance_pools")
    _, parse_s, parse_self, _ = tracer.stat("replay.parse_log")
    _, _, cf_self, _ = tracer.stat("replay.run_counterfactual")
    closed_calls, closed_s, _, _ = tracer.stat("adversary.closed_form")
    _, _, il_self, _ = tracer.stat("replay.il_portfolio_report")
    _, _, cli_self, _ = tracer.stat("cli.replay")
    counters = tracer.counters
    values = {
        "core.apply_swap.exact.calls": (exact_calls, "count"),
        "core.apply_swap.exact.us_per_call": (_per_call_us(exact_calls, exact_s), "us"),
        "core.apply_swap.float.calls": (float_calls, "count"),
        "core.apply_swap.float.us_per_call": (_per_call_us(float_calls, float_s), "us"),
        "core.quote_order.float.us_per_call": (_per_call_us(quote_calls, quote_s), "us"),
        "core.apply_swap.raised": (exact_raised + float_raised, "count"),
        "adversary.cycles.aborted_ratio": (
            _ratio(counters.get("adversary.cycles.aborted", 0), cycles), "ratio"),
        "numeric.golden_section_max.calls": (gss_calls, "count"),
        "numeric.golden_section_max.self_s": (gss_self, "s"),
        "rebalance.gmm_rebal_quote.us_per_call": (_per_call_us(rebal_calls, rebal_s), "us"),
        "rebalance.rebalance_pools.transfers_per_call": (
            _ratio(counters.get("rebalance.transfers", 0), pools_calls), "count"),
        "rebalance.triggered_ratio": (_ratio(pools_calls, rebal_calls), "ratio"),
        "replay.parse_log.self_s": (parse_self, "s"),
        "replay.parse_log.rows_per_s": (_ratio(counters.get("replay.rows", 0), parse_s), "1/s"),
        "replay.run_counterfactual.self_s": (cf_self, "s"),
        "adversary.closed_form.us_per_call": (_per_call_us(closed_calls, closed_s), "us"),
        "replay.il_portfolio_report.self_s": (il_self, "s"),
        "cli.replay.self_s": (cli_self, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def trace_shares(tracer: Tracer) -> dict:
    """Input properties only a traced run can see: the shares that an
    optimisation of the swap path or of rebalancing would depend on."""
    exact = tracer.stat("core.apply_swap.exact")[0]
    floats = tracer.stat("core.apply_swap.float")[0]
    send_y = tracer.counters.get("core.apply_swap.exact.send_y", 0) + tracer.counters.get(
        "core.apply_swap.float.send_y", 0)
    return {
        "apply_swap_exact_share": _ratio(exact, exact + floats),
        "apply_swap_send_y_share": _ratio(send_y, exact + floats),
        "max_denominator_bits": tracer.counters.get("max_denominator_bits", 0),
        "rebalance_trigger_share": _ratio(tracer.stat("rebalance.rebalance_pools")[0],
                                          tracer.stat("rebalance.gmm_rebal_quote")[0]),
    }
