"""Per-layer tracing: self time, spans and work by ``repro.<package>``.

A *layer* is one top-level package of ``repro`` (``simcore``, ``net``,
``serve``, ...).  A span opens each time control enters a layer from
another one and closes when control returns to the caller's layer; a
layer's self time is its span time minus the nested spans of other
layers.  Code outside ``repro`` (the standard library, numpy, builtins)
counts for the layer that called it, so ``socketserver`` blocking inside
an obs call is obs time.

The tracer is a profile hook (:func:`sys.setprofile`) installed from the
benchmark's own code; nothing under ``src/`` changes.  It keeps running
totals, not span records, so memory stays flat however many spans open:

* ``self_s[layer]`` — self time, charged at every layer transition;
* ``edges[(parent, layer)]`` — spans opened, keyed by the opening layer;
* ``calls[name]`` — calls of the functions in :data:`COUNTED`;
* instances of the classes in :data:`COLLECTED`, whose public counters
  (``Link.delivered_packets``, ``TcpConnection.retransmissions``, ...)
  are summed when the trace ends.

Extra threads are traced only when asked (:meth:`LayerTracer.trace_threads`),
each with its own stack, and pool workers forked from a traced thread
keep tracing (:func:`dump_after_fork` collects their tallies).  Totals
add up over threads and processes, so shares are shares of
thread-seconds.  Waits that are nobody's work (a worker's poll sleep,
the load generator's pause, a pool worker waiting for a task) are
charged to :data:`IDLE`, which belongs to no layer.
"""

from __future__ import annotations

import collections
import glob
import json
import multiprocessing.util
import os
import sys
import threading
import time

#: Pseudo-layer for waiting that is nobody's work.
IDLE = "idle"
#: Time outside every ``repro`` layer (benchmark code, thread roots).
UNATTRIBUTED = "unattributed"

#: ``(file under repro/, qualname) -> counter``: calls counted by name.
COUNTED = {
    ("net/link.py", "Link.send"): "link_send",
    ("server/forwarding.py", "AvatarDataServer.ingest_update"): "updates_in",
    ("server/control.py", "ControlService.relay_update"): "updates_in",
    ("server/forwarding.py", "AvatarDataServer._send_forward"): "forwarded",
    ("net/http.py", "HttpsConnection.push"): "relay_push",
    ("qoe/model.py", "QoeModel.score"): "qoe_windows",
    ("chaos/inject.py", "FaultInjector._hook.<locals>.fire"): "chaos_faults",
}

#: ``(file, qualname) -> kind``: constructors whose instances are kept
#: so their public counters can be summed after the run.
COLLECTED = {
    ("net/link.py", "Link.__init__"): "link",
    ("net/node.py", "Host.__init__"): "host",
    ("net/tcp.py", "TcpConnection.__init__"): "tcp",
    ("simcore/kernel.py", "Simulator.__init__"): "sim",
    ("capture/sniffer.py", "Sniffer.__init__"): "sniffer",
}

#: Files whose entry from another layer is one instrument operation
#: (a registry or tracer call).
INSTRUMENT_FILES = ("obs/metrics.py", "obs/trace.py")


class _ThreadState:
    """One thread's open spans and running totals.

    ``frames[-1]`` is the frame that opened the current span and
    ``parents[-1]`` the layer it interrupted; calls inside the current
    layer push nothing, so same-layer calls cost one lookup.
    """

    __slots__ = ("frames", "parents", "current", "last", "self_s", "edges", "calls")

    def __init__(self, base: str = UNATTRIBUTED) -> None:
        self.frames = [None]
        self.parents = []
        self.current = base
        self.last = time.perf_counter()
        self.self_s = collections.Counter()
        self.edges = collections.Counter()
        self.calls = collections.Counter()

    def close(self) -> None:
        now = time.perf_counter()
        self.self_s[self.current] += now - self.last
        self.last = now


class LayerTracer:
    """Attributes wall time, spans and work to ``repro`` packages."""

    def __init__(self, src_root: str) -> None:
        self._prefix = os.path.join(os.path.realpath(src_root), "repro") + os.sep
        #: code -> layer name (None outside ``repro``), or a
        #: ``(layer, action)`` pair for code whose calls are counted.
        self._layer_of: dict = {}
        self._idle_callers: set = set()
        self._states: list = []
        self._lock = threading.Lock()
        self._objects = collections.defaultdict(list)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def assign(self, function, layer: str) -> None:
        """Charge ``function`` (benchmark code) and its callees to ``layer``."""
        self._layer_of[function.__code__] = sys.intern(layer)

    def idle_when_called_from(self, function) -> None:
        """A ``wait`` called directly by ``function`` is idle time."""
        self._idle_callers.add(function.__code__)

    def _classify(self, code):
        layer = None
        if code.co_filename.startswith(self._prefix):
            rest = code.co_filename[len(self._prefix):].replace(os.sep, "/")
            layer = sys.intern(rest.split("/", 1)[0] if "/" in rest else "cli")
            key = (rest, code.co_qualname)
            if key in COUNTED:
                layer = (layer, _counter(COUNTED[key]))
            elif key in COLLECTED:
                layer = (layer, _collector(self._objects[COLLECTED[key]]))
            elif rest in INSTRUMENT_FILES:
                layer = (layer, _instrument_op)
        self._layer_of[code] = layer
        return layer

    # ------------------------------------------------------------------
    # The hook
    # ------------------------------------------------------------------
    def _make_hook(self, state: _ThreadState):
        layer_of = self._layer_of
        classify = self._classify
        idle_callers = self._idle_callers
        clock = time.perf_counter
        self_s = state.self_s
        edges = state.edges
        frames = state.frames
        parents = state.parents
        missing = object()

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                layer = layer_of.get(code, missing)
                if layer is missing:
                    layer = classify(code)
                if layer.__class__ is tuple:
                    layer, action = layer
                    action(state, frame)
                if layer is None:
                    # Outside repro: the caller's layer goes on, unless
                    # this is a wait the benchmark declared idle.
                    caller = frame.f_back
                    if code.co_name != "wait" or caller is None or (
                        caller.f_code not in idle_callers
                    ):
                        return
                    layer = IDLE
                current = state.current
                if layer is current:
                    return
                now = clock()
                self_s[current] += now - state.last
                state.last = now
                edges[(current, layer)] += 1
                parents.append(current)
                frames.append(frame)
                state.current = layer
            elif event == "return" and frame is frames[-1]:
                now = clock()
                self_s[state.current] += now - state.last
                state.last = now
                frames.pop()
                state.current = parents.pop()

        return hook

    def _trace_current_thread(self, base: str = UNATTRIBUTED) -> None:
        state = _ThreadState(base)
        with self._lock:
            self._states.append(state)
        sys.setprofile(self._make_hook(state))

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Trace the calling thread from now on."""
        self._trace_current_thread()

    def stop(self) -> None:
        """Stop tracing; charge every open span up to now."""
        sys.setprofile(None)
        threading.setprofile(None)
        with self._lock:
            for state in self._states:
                state.close()

    def trace_threads(self, *name_prefixes: str) -> None:
        """Also trace threads started from now on whose name begins with
        one of ``name_prefixes``; other new threads run untraced."""

        def bootstrap(frame, event, arg):
            sys.setprofile(None)
            if threading.current_thread().name.startswith(name_prefixes):
                # Outside its target function the thread is starting or
                # finished: idle, not unattributed.
                self._trace_current_thread(base=IDLE)

        threading.setprofile(bootstrap)

    def restart_in_child(self) -> None:
        """In a forked pool worker: drop the parent's tally and trace
        this process afresh, idle until a task arrives."""
        self._states = []
        self._lock = threading.Lock()
        for objects in self._objects.values():
            objects.clear()
        self._trace_current_thread(base=IDLE)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def tally(self) -> dict:
        """This process's totals in JSON form."""
        self_s = collections.Counter()
        edges = collections.Counter()
        calls = collections.Counter()
        with self._lock:
            for state in self._states:
                self_s.update(state.self_s)
                edges.update(state.edges)
                calls.update(state.calls)
        objects = self._objects
        links = objects["link"]
        calls["events"] += sum(sim.event_count for sim in objects["sim"])
        calls["link_traversals"] += sum(link.delivered_packets for link in links)
        calls["host_receives"] += sum(host.received_packets for host in objects["host"])
        calls["drops"] += sum(link.dropped_packets for link in links) + sum(
            link.qdisc.dropped_packets for link in links if link.qdisc is not None
        )
        calls["tcp_retransmits"] += sum(c.retransmissions for c in objects["tcp"])
        calls["records_retained"] += sum(
            len(sniffer._records) for sniffer in objects["sniffer"]
        )
        return {
            "self_s": dict(self_s),
            "edges": [[a, b, n] for (a, b), n in sorted(edges.items())],
            "calls": dict(calls),
        }

    def report(self, work: str) -> dict:
        """Merged totals of this process and the pool workers it forked."""
        merged = self.tally()
        self_s = collections.Counter(merged["self_s"])
        edges = collections.Counter({(a, b): n for a, b, n in merged["edges"]})
        calls = collections.Counter(merged["calls"])
        workers = 0
        for path in sorted(glob.glob(os.path.join(work, "trace-*.json"))):
            with open(path) as handle:
                part = json.load(handle)
            self_s.update(part["self_s"])
            edges.update({(a, b): n for a, b, n in part["edges"]})
            calls.update(part["calls"])
            workers += 1
        return {
            "self_s": dict(self_s),
            "edges": [[a, b, n] for (a, b), n in sorted(edges.items())],
            "calls": dict(calls),
            "forked_workers": workers,
        }


def dump_after_fork(tracer: LayerTracer, work: str) -> None:
    """Run in a forked child: trace it afresh and write its tally to
    ``work/trace-<pid>.json`` when the process exits."""
    if sys.getprofile() is None:
        return  # forked from an untraced thread
    tracer.restart_in_child()

    def dump() -> None:
        tracer.stop()
        path = os.path.join(work, f"trace-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(tracer.tally(), handle)
        os.replace(path + ".tmp", path)

    multiprocessing.util.Finalize(None, dump, exitpriority=100)


def _counter(name: str):
    def count(state, frame) -> None:
        if name == "link_send":
            link = frame.f_locals["self"]
            qdisc = link.qdisc
            if link.up and not link._taps and (qdisc is None or not qdisc.active):
                state.calls["fastpath_sends"] += 1
        elif name == "relay_push" and frame.f_locals.get("name") != "avatar-fwd":
            return
        state.calls[name] += 1

    return count


def _collector(objects: list):
    def collect(state, frame) -> None:
        objects.append(frame.f_locals["self"])

    return collect


def _instrument_op(state, frame) -> None:
    if state.current != "obs":
        state.calls["instrument_ops"] += 1
