"""Per-layer call counts and self time for the l2sim modules, from outside.

The tracer replaces public functions and methods of each layer with thin
timing wrappers and puts the originals back afterwards.  A module function
imported elsewhere with ``from .x import f`` is replaced at every module
that holds it, so ``canon`` and ``digest`` are counted at each call site.
Nothing under ``src/`` is edited and nothing is written to a trace, so a
traced run produces the same traces as an untraced one.

Self time of a span is its duration minus the durations of the wrapped
spans it called.  Storage is one accumulator per metric name plus the set
of distinct digest values, never one record per call.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("runtime", "trace", "base", "accounts", "core", "brick", "liquid",
          "arbitrum", "harness", "properties")
PROTOCOLS = ("brick", "liquid", "arbitrum")

# metric name -> (module, [attribute paths]); several functions may share
# one name, e.g. verify and verify_any, or make_real and build_ideal
SPANS = {
    "runtime.deliver_net": ("runtime", ["World.deliver_net"]),
    "runtime.drain_io": ("runtime", ["World.drain_io"]),
    "runtime.inject_input": ("runtime", ["World.inject_input"]),
    "runtime.advance_round": ("runtime", ["World.advance_round"]),
    "runtime.flush_overdue": ("runtime", ["World.flush_overdue"]),
    "runtime.corrupt": ("runtime", ["World.corrupt"]),
    "runtime.emit": ("runtime", ["World.emit"]),
    "trace.canon": ("trace", ["canon"]),
    "trace.digest": ("trace", ["digest"]),
    "trace.Trace.emit": ("trace", ["Trace.emit"]),
    "trace.Trace.digest": ("trace", ["Trace.digest"]),
    "base.ledger.find": ("base", ["Ledger.find"]),
    "base.ledger.validate": ("base", ["Ledger.validate"]),
    "base.ledger.submit": ("base", ["Ledger.submit"]),
    "base.ledger.tick": ("base", ["Ledger.tick"]),
    "base.ledger.read": ("base", ["Ledger.read"]),
    "base.certs.sign": ("base", ["CertRegistry.sign"]),
    "base.certs.verify": ("base", ["CertRegistry.verify",
                                   "CertRegistry.verify_any"]),
    "base.make_tx": ("base", ["make_tx"]),
    "accounts.apply_tx": ("accounts", ["apply_tx"]),
    "accounts.apply_txs": ("accounts", ["apply_txs"]),
    "accounts.l2_txid": ("accounts", ["l2_txid"]),
    "accounts.ripe_deposits": ("accounts", ["ripe_deposits"]),
    "core.on_message": ("core", ["InterfaceMachine.on_message"]),
    "liquid.cert_valid": ("liquid", ["cert_valid"]),
    "arbitrum.chain_view": ("arbitrum", ["chain_view"]),
    "arbitrum.batch_digest": ("arbitrum", ["batch_digest"]),
    "harness.setup": ("harness", ["make_real", "build_ideal"]),
    "harness.sync": ("harness", ["Simulator.sync"]),
    "harness.diff_outputs": ("harness", ["diff_outputs"]),
    "harness.apply_schedule": ("harness", ["apply_schedule"]),
    "properties.check_correct_initialization":
        ("properties", ["check_correct_initialization"]),
    "properties.check_safety": ("properties", ["check_safety"]),
    "properties.check_liveness": ("properties", ["check_liveness"]),
    "properties.check_correct_settlement":
        ("properties", ["check_correct_settlement"]),
    "properties.measure_data_availability":
        ("properties", ["measure_data_availability"]),
    "properties.is_prefix": ("properties", ["is_prefix"]),
    "properties.requests": ("properties", ["requests"]),
    "properties.read_views": ("properties", ["read_views"]),
    "properties.committed_txs": ("properties", ["committed_txs"]),
}
HANDLER_METHODS = ("on_message", "on_round", "on_ledger_block")
for _p in PROTOCOLS:
    SPANS[f"{_p}.handlers"] = (_p, [])      # filled from the machine classes
    SPANS[f"{_p}.hooks"] = (_p, ["Hooks.triggers_for", "Hooks.read_delay",
                                 "EnvTracker.ideal_request"])
SPANS["core.bundle"] = ("core", [])         # filled from the bundle classes

# spans whose cost sits mostly in wrapped callees also report inclusive time
TOTAL_S = ("properties.check_correct_initialization", "properties.check_safety",
           "properties.check_liveness", "properties.check_correct_settlement",
           "properties.measure_data_availability", "arbitrum.chain_view",
           "harness.setup", "harness.sync", "harness.diff_outputs",
           "core.on_message")

EXTRA = {
    "trace.digest.unique_ratio": "ratio",
    "base.ledger.find.pred_calls": "count",
    "runtime.net_pending.max": "count",
    "core.bundle.refused_ratio": "ratio",
    "bench.untraced_pass_s": "s",
    "bench.traced_pass_s": "s",
    "bench.overhead_ratio": "ratio",
    "bench.unattributed_share": "share",
}

_MARK = "__perfbench_wrapper__"


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        if name in TOTAL_S:
            out[f"{name}.total_s"] = "s"
    for layer in LAYERS:
        out[f"{layer}.self_share"] = "share"
    out.update(EXTRA)
    return out


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Install timing wrappers on the l2sim layers; restore on ``restore()``."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> module object
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}
        self.stack = [0.0]              # child-time accumulators, root first
        self.patches = []               # (owner, attr, original)
        self.digests = set()
        self.pred_calls = 0
        self.net_max = 0
        self.sub_calls = 0
        self.sub_refused = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stat[2] += dt
                stack[-1] += dt
        return wrapper

    def _adapt(self, name, fn):
        """Counting shims that sit inside the span of selected functions."""
        if name == "trace.digest":
            seen = self.digests

            def digest(obj):
                out = fn(obj)
                seen.add(out)
                return out
            return digest
        if name == "base.ledger.find":
            def find(ledger, pred):
                def counted(tx):
                    self.pred_calls += 1
                    return pred(tx)
                return fn(ledger, counted)
            return find
        return fn

    def _queue_net(self, fn):
        @functools.wraps(fn)
        def queue_net(world, *args, **kwargs):
            out = fn(world, *args, **kwargs)
            if len(world.net) > self.net_max:
                self.net_max = len(world.net)
            return out
        return queue_net

    # -- install / restore --------------------------------------------------

    def _set(self, owner, attr, new):
        original = owner.__dict__[attr]
        setattr(new, _MARK, True)
        self.patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def _patch_function(self, name, original):
        wrapped = self._span(name, self._adapt(name, original))
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _targets(self):
        """(metric name, owner, attribute) for every wrapped callable."""
        runtime, core = self.modules["runtime"], self.modules["core"]
        entry_points = [n for n, v in vars(core.SubroutineBundle).items()
                        if callable(v) and not n.startswith("_")]
        for name, (modname, paths) in SPANS.items():
            mod = self.modules[modname]
            for path in paths:
                yield (name,) + _resolve(mod, path)
        for modname, mod in self.modules.items():
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                if issubclass(cls, core.SubroutineBundle):
                    for m in entry_points:
                        if m in vars(cls):
                            yield "core.bundle", cls, m
                elif modname in PROTOCOLS and issubclass(cls, runtime.Machine):
                    for m in HANDLER_METHODS:
                        if m in vars(cls):
                            yield f"{modname}.handlers", cls, m

    def install(self):
        try:
            for name, owner, attr in self._targets():
                original = owner.__dict__[attr]
                if isinstance(owner, type):
                    self._set(owner, attr, self._span(
                        name, self._adapt(name, original)))
                else:
                    self._patch_function(name, original)
            world = self.modules["runtime"].World
            self._set(world, "queue_net", self._queue_net(world.queue_net))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -------------------------------------------------------------

    def observe(self, traces):
        """Interface sub-call outcomes, read from finished traces."""
        for trace in traces:
            for ev in trace.events:
                t = ev.get("t")
                if t == "sub-call":
                    self.sub_calls += 1
                elif t == "sub-reply" and ev["result"].get("ok") is False:
                    self.sub_refused += 1

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, self_s, total_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
            layer_self[name.split(".", 1)[0]] += self_s
        for layer, s in layer_self.items():
            out[f"{layer}.self_share"] = s / traced_s
        digests = self.stats["trace.digest"][0]
        out["trace.digest.unique_ratio"] = (len(self.digests) / digests
                                            if digests else 0.0)
        out["base.ledger.find.pred_calls"] = self.pred_calls
        out["runtime.net_pending.max"] = self.net_max
        out["core.bundle.refused_ratio"] = (self.sub_refused / self.sub_calls
                                            if self.sub_calls else 0.0)
        out["bench.untraced_pass_s"] = untraced_s
        out["bench.traced_pass_s"] = traced_s
        out["bench.overhead_ratio"] = traced_s / untraced_s
        out["bench.unattributed_share"] = 1.0 - sum(layer_self.values()) / traced_s
        units = metric_units()
        return {k: {"value": out[k], "unit": units[k]} for k in units}


def wrapped_leftovers(modules: dict) -> list:
    """Names still bound to a tracer wrapper; empty after ``restore()``."""
    out = []
    for modname, mod in modules.items():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                out.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.extend(f"{modname}.{attr}.{m}"
                           for m, v in vars(value).items() if hasattr(v, _MARK))
    return out
