"""Per-layer call accounting, installed on the program from outside.

:class:`Tracer` wraps the public functions named in :data:`TARGETS`:
each wrapper counts calls and records total and *self* nanoseconds, self
time being a call's duration minus the time covered by wrapped calls
nested inside it (on the same thread).  Optional hooks read the
arguments and result to count useful outcomes (jobs started, actions
taken, bytes planned).  Nothing under ``src/`` knows about this module;
timed runs never install it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tally", tuple, dict, object], None]


class Tally:
    """Counters for one wrapped function."""

    __slots__ = ("calls", "total_ns", "self_ns", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.extra: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "extra": dict(self.extra),
        }


class Tracer:
    """Installs timing wrappers and owns their tallies."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.tallies: Dict[str, Tally] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """Return ``fn`` wrapped to account its calls under ``key``."""
        tally = self.tallies.setdefault(key, Tally())
        clock = self.clock
        stack_of = self._stack
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = [0]  # nanoseconds spent in wrapped callees
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    tally.calls += 1
                    tally.total_ns += elapsed
                    tally.self_ns += elapsed - frame[0]
            if hook is not None:
                with lock:
                    hook(tally, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=None) -> None:
        """Wrap every target, at every module namespace that holds it.

        A module that did ``from x import f`` holds its own reference to
        ``f``; every ``repro`` module attribute bound to the original
        function is rebound, so callers see the wrapper wherever they
        look the function up.
        """
        for _, key, path, hook in TARGETS if targets is None else targets:
            module_name, _, qualname = path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(key, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(key, original, hook)
            for name, mod in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for mod_attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, mod_attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {key: t.as_dict() for key, t in self.tallies.items()}


# -- hooks: useful outcomes counted where the work happens ---------------------

def _backfill_hook(tally, args, kwargs, result) -> None:
    pending = args[0] if args else kwargs["pending_by_priority"]
    tally.add("eligible", len(pending))
    tally.add("starts", len(result[0]))


def _view_hook(tally, args, kwargs, result) -> None:
    tally.add("pending", len(result.pending))


def _decide_hook(tally, args, kwargs, result) -> None:
    tally.add("actions", 0 if result.action.value == "no_action" else 1)


def _check_hook(tally, args, kwargs, result) -> None:
    tally.add("inhibited", 1 if result.inhibited else 0)


def _redistribution_hook(tally, args, kwargs, result) -> None:
    tally.add("bytes", result.bytes_moved)
    tally.add("messages", result.message_count)


#: (layer, tally key, "module:qualified.name", hook) per wrapped function.
TARGETS = (
    ("sim", "sim.step", "repro.sim.engine:Environment.step", None),
    ("slurm.queue", "slurm.queue.pop_head",
     "repro.slurm.queue:PendingQueue.pop_head", None),
    ("slurm.queue", "slurm.queue.push_back",
     "repro.slurm.queue:PendingQueue.push_back", None),
    ("slurm.queue", "slurm.queue.peek_head",
     "repro.slurm.queue:PendingQueue.peek_head", None),
    ("slurm.queue", "slurm.queue.ordered",
     "repro.slurm.queue:PendingQueue.ordered", None),
    ("slurm.backfill", "slurm.backfill.plan",
     "repro.slurm.backfill:plan_backfill", _backfill_hook),
    ("slurm.controller", "slurm.submit",
     "repro.slurm.controller:SlurmController.submit", None),
    ("slurm.controller", "slurm.finish",
     "repro.slurm.controller:SlurmController.finish_job", None),
    ("slurm.controller", "slurm.policy_view",
     "repro.slurm.controller:SlurmController.policy_view", _view_hook),
    ("slurm.controller", "slurm.check_status",
     "repro.slurm.controller:SlurmController.check_status", None),
    ("slurm.controller", "slurm.grow",
     "repro.slurm.controller:SlurmController.grow_job", None),
    ("slurm.controller", "slurm.shrink",
     "repro.slurm.controller:SlurmController.shrink_job", None),
    ("slurm.reconfig", "reconfig.decide",
     "repro.slurm.reconfig:ReconfigurationPolicy.decide", _decide_hook),
    ("core", "dmr.check", "repro.core.dmr:DMRSession.check", _check_hook),
    ("runtime", "runtime.redistribution",
     "repro.runtime.redistribution:plan_for_resize", _redistribution_hook),
    ("metrics", "metrics.trace.record", "repro.metrics.trace:Trace.record",
     None),
    ("metrics", "metrics.summarize", "repro.metrics.summary:summarize", None),
    ("api", "api.observers", "repro.api.observers:ObserverDispatch.__call__",
     None),
    ("api", "api.build", "repro.api.session:Session.build", None),
    ("workload", "workload.fs", "repro.workload.generator:fs_workload", None),
    ("serve", "serve.sse_frame", "repro.serve.http:sse_frame", None),
    ("serve", "serve.bridge", "repro.serve.jobs:EventBridge.on_event", None),
    ("serve", "serve.admit", "repro.serve.jobs:JobManager.submit_workload",
     None),
)

#: The layers, in ``TARGETS`` order; each reports ``self_s.<layer>``.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in TARGETS))


#: Serve metrics measured by the client; zero on workloads without a server.
SERVE_CLIENT_METRICS = (
    "serve.rt_p50_ms", "serve.rt_p90_ms", "serve.light_rt_p50_ms",
    "serve.status_p50_ms", "serve.submit_p50_ms", "serve.first_frame_p50_ms",
    "serve.stream_frames", "serve.stream_frames_per_s",
    "serve.server.post_workloads_p50_ms", "serve.server.get_job_p50_ms",
    "serve.server.get_events_p50_ms", "serve.queue_depth_max",
    "serve.gen_lag_p90_ms", "serve.connections_max", "serve.refused",
    "serve.errors",
)


def _tally(tallies: Dict[str, dict], key: str) -> dict:
    return tallies.get(key) or {"calls": 0, "total_ns": 0, "self_ns": 0,
                                "extra": {}}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tallies: Dict[str, dict], traced_wall_s: float,
                  untraced_wall_s: float,
                  overhead_ratio: float) -> Dict[str, float]:
    """The per-layer metrics of ``workloads.json`` from raw tallies.

    ``traced_wall_s`` is the time the tallies were collected over, and
    ``unattributed_s`` is what the layers' self times leave of it;
    event rates divide by ``untraced_wall_s``, the same work untraced,
    and ``overhead_ratio`` is traced over untraced time of that work.
    Layers a workload never enters report zero.  The ``self_s.<layer>``
    metrics partition the traced time: with ``unattributed_s`` they sum
    to ``traced_wall_s``.
    """
    t = functools.partial(_tally, tallies)

    def self_s(*keys: str) -> float:
        return sum(t(k)["self_ns"] for k in keys) / 1e9

    def total_s(*keys: str) -> float:
        return sum(t(k)["total_ns"] for k in keys) / 1e9

    queue_keys = ("slurm.queue.pop_head", "slurm.queue.push_back",
                  "slurm.queue.peek_head", "slurm.queue.ordered")
    backfill = t("slurm.backfill.plan")
    view = t("slurm.policy_view")
    decide = t("reconfig.decide")
    check = t("dmr.check")
    redistribution = t("runtime.redistribution")
    events = t("sim.step")["calls"]
    out = {
        "sim.events": events,
        "sim.events_per_s": _ratio(events, untraced_wall_s),
        "sim.step_self_s": self_s("sim.step"),
        "slurm.queue.pops": t("slurm.queue.pop_head")["calls"],
        "slurm.queue.pushes": t("slurm.queue.push_back")["calls"],
        "slurm.queue_s": total_s(*queue_keys),
        "slurm.backfill.plans": backfill["calls"],
        "slurm.backfill.plan_s": total_s("slurm.backfill.plan"),
        "slurm.backfill.start_ratio": _ratio(
            backfill["extra"].get("starts", 0),
            backfill["extra"].get("eligible", 0)),
        "slurm.submit.calls": t("slurm.submit")["calls"],
        "slurm.submit_s": total_s("slurm.submit"),
        "slurm.finish_s": total_s("slurm.finish"),
        "slurm.policy_view.calls": view["calls"],
        "slurm.policy_view_s": total_s("slurm.policy_view"),
        "slurm.policy_view.pending_mean": _ratio(
            view["extra"].get("pending", 0), view["calls"]),
        "slurm.check_status_self_s": self_s("slurm.check_status"),
        "slurm.resize.grows": t("slurm.grow")["calls"],
        "slurm.resize.shrinks": t("slurm.shrink")["calls"],
        "slurm.resize_s": total_s("slurm.grow", "slurm.shrink"),
        "reconfig.decide.calls": decide["calls"],
        "reconfig.decide_s": total_s("reconfig.decide"),
        "reconfig.action_ratio": _ratio(
            decide["extra"].get("actions", 0), decide["calls"]),
        "dmr.check.calls": check["calls"],
        "dmr.check_self_s": self_s("dmr.check"),
        "dmr.inhibited_ratio": _ratio(
            check["extra"].get("inhibited", 0), check["calls"]),
        "runtime.redistribution.plans": redistribution["calls"],
        "runtime.redistribution.bytes": redistribution["extra"].get("bytes", 0),
        "runtime.redistribution.messages":
            redistribution["extra"].get("messages", 0),
        "runtime.redistribution_s": total_s("runtime.redistribution"),
        "metrics.trace.records": t("metrics.trace.record")["calls"],
        "metrics.trace.record_s": total_s("metrics.trace.record"),
        "metrics.summarize_s": total_s("metrics.summarize"),
        "api.observers.dispatches": t("api.observers")["calls"],
        "api.observers_s": total_s("api.observers"),
        "api.build_s": total_s("api.build"),
        "workload.generate_s": total_s("workload.fs"),
        "serve.sse_encode_s": total_s("serve.sse_frame"),
        "serve.bridge_s": total_s("serve.bridge"),
        "serve.admit_s": total_s("serve.admit"),
    }
    for layer in LAYERS:
        out["self_s." + layer] = self_s(
            *(key for owner, key, _, _ in TARGETS if owner == layer))
    out.update(dict.fromkeys(SERVE_CLIENT_METRICS, 0.0))
    out["traced_wall_s"] = traced_wall_s
    out["obs.trace_overhead_ratio"] = overhead_ratio
    out["unattributed_s"] = traced_wall_s - sum(
        tally["self_ns"] for tally in tallies.values()) / 1e9
    return out
