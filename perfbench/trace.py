"""Spans and counts for the traced run, recorded from outside the program.

The traced run wraps public entry points of each ``repro`` package —
bound methods on the objects a trial built, a delegating
``CryptoProvider`` installed with ``set_provider``, and the wire codec
and ``frame_id`` at their import sites — and records one span per call:
name, four clock readings, parent span and operation id.  Spans stay
in memory (parallel arrays) and are written out when the run ends.  A
span's self time is its call's duration minus the time its children
cover; summing self times per layer gives the ledger.  The wrappers'
own bookkeeping is the ledger's ``trace`` row, and the benchmark's code
between top-level calls, measured at those boundaries, is
``ledger.unattributed_s``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.crypto.provider import CryptoProvider

#: Span-name prefix -> ledger layer.
LAYERS = {
    "crypto": "crypto",
    "wire": "wire",
    "leader": "enclaves.leader",
    "member": "enclaves.member",
    "quorum": "quorum",
    "storage": "storage",
    "fabric": "fabric",
    "overload": "overload",
    "dataplane": "dataplane",
    "telemetry": "telemetry",
    "harness": "harness",
}


class Tracer:
    """Span recorder.  Wrappers pass straight through while ``on`` is
    false, so set-up and gates are never traced.

    Each span keeps four clock readings: ``enter`` and ``leave`` when
    its wrapper starts and ends, ``start`` and ``end`` around the call
    into the program.  The time outside ``[start, end]`` is the
    tracer's own bookkeeping; the ledger books it to a ``trace`` row,
    not to the layer that made the call.  ``gap_s`` is the benchmark's
    own time between top-level spans inside the timed windows, added up
    at those boundaries as the run goes.
    """

    def __init__(self) -> None:
        self.on = False
        self.names: list = []
        self._index: dict = {}
        self.name_ix = array("H")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list = []
        #: Operation id for spans with no keyed or parent operation.
        self.current_op = -1
        self._next_op = 0
        #: key (a group id) -> the id of that key's outstanding op.
        self.op_by_key: dict = {}
        self.counts: Counter = Counter()
        self.gap_s = 0.0
        #: When the benchmark last got the thread back at top level.
        self._mark = 0.0

    def new_op(self) -> int:
        op = self._next_op
        self._next_op += 1
        return op

    def begin(self, t: float) -> None:
        """Open a timed window that started at clock reading ``t``."""
        self._mark = t
        self.on = True

    def finish(self, t: float) -> None:
        """Close the timed window at clock reading ``t``."""
        self.on = False
        self.gap_s += t - self._mark

    def wrap(self, name: str, fn, key=None, after=None):
        """``fn`` wrapped in a span called ``name``.  With ``key`` the
        span's operation is ``op_by_key[key]``; otherwise it inherits
        its parent's, or ``current_op`` at top level.  ``after(args,
        result)`` records counts once ``fn`` returned; its time is the
        tracer's."""
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        stack, enter, start = self._stack, self.enter, self.start
        end, leave = self.end, self.leave
        name_ix, parent_of, op_of = self.name_ix, self.parent, self.op
        op_by_key = self.op_by_key
        tracer = self

        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            e0 = perf_counter()
            i = len(start)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                tracer.gap_s += e0 - tracer._mark
            if key is not None:
                op = op_by_key.get(key, -1)
            elif parent >= 0:
                op = op_of[parent]
            else:
                op = tracer.current_op
            enter.append(e0)
            name_ix.append(ix)
            parent_of.append(parent)
            op_of.append(op)
            end.append(0.0)
            leave.append(0.0)
            stack.append(i)
            result = _RAISED
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[i] = perf_counter()
                stack.pop()
                if after is not None and result is not _RAISED:
                    after(args, result)
                e1 = leave[i] = perf_counter()
                if not stack:
                    tracer._mark = e1

        span.__wrapped__ = fn
        return span

    # -- analysis ---------------------------------------------------------

    def calls(self) -> Counter:
        """Spans per name."""
        out = Counter()
        for ix in self.name_ix:
            out[self.names[ix]] += 1
        return out

    def self_times(self) -> tuple[dict, float]:
        """``(self seconds per span name, tracer seconds)``.  A span's
        self time is its call's duration minus the whole of its
        children's spans, wrappers included."""
        enter, start, end, leave = self.enter, self.start, self.end, self.leave
        child = [0.0] * len(start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += leave[i] - enter[i]
        by_name: dict = defaultdict(float)
        own = 0.0
        for i, ix in enumerate(self.name_ix):
            by_name[self.names[ix]] += end[i] - start[i] - child[i]
            own += (start[i] - enter[i]) + (leave[i] - end[i])
        return dict(by_name), own

    def misnested(self) -> int:
        """Spans whose clock readings are out of order, that do not lie
        inside their parent's call, or that overlap the previous span
        under the same parent (top level included)."""
        enter, start, end, leave = self.enter, self.start, self.end, self.leave
        last: dict = {}
        bad = 0
        for i, p in enumerate(self.parent):
            e0, e1 = enter[i], leave[i]
            if not e0 <= start[i] <= end[i] <= e1:
                bad += 1
            elif p >= 0 and not start[p] <= e0 <= e1 <= end[p]:
                bad += 1
            elif e0 < last.get(p, e0):
                bad += 1
            last[p] = e1
        return bad

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as f:
            f.write("name\tenter\tstart\tend\tleave\tparent\top\n")
            names = self.names
            for i, ix in enumerate(self.name_ix):
                f.write(f"{names[ix]}\t{self.enter[i]:.9f}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                        f"{self.leave[i]:.9f}\t{self.parent[i]}\t"
                        f"{self.op[i]}\n")


#: ``span`` sets a call's result to this until the call returns.
_RAISED = object()


def layer_of(span_name: str) -> str:
    return LAYERS[span_name.split(".", 1)[0]]


# -- crypto: a delegating provider -------------------------------------------

_CRYPTO_SPANS = {
    "seal": "crypto.seal",
    "open": "crypto.open",
    "seal_many": "crypto.seal_many",
    "open_many": "crypto.open_many",
    "hmac_sha256": "crypto.mac",
    "hmac_new": "crypto.mac",
    "_tag": "crypto.mac",
    "hkdf_extract": "crypto.kdf",
    "hkdf_expand": "crypto.kdf",
    "pbkdf2_hmac_sha256": "crypto.kdf",
    "sha256": "crypto.hash",
    "sha256_new": "crypto.hash",
    "aes": "crypto.cipher",
    "_make_aes": "crypto.cipher",
    "aes_encrypt_block": "crypto.cipher",
    "aes_decrypt_block": "crypto.cipher",
    "ctr_transform": "crypto.cipher",
    "cbc_encrypt": "crypto.cipher",
    "cbc_decrypt": "crypto.cipher",
}


class TracedProvider(CryptoProvider):
    """Delegates every primitive to ``inner`` through a span.

    It carries the inner backend's name, so key objects share the
    inner backend's derived-material cache keying.
    """

    def __init__(self, inner: CryptoProvider, tracer: Tracer) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self.aes_backend = inner.aes_backend
        counts = tracer.counts

        def batch(args, _result):
            counts["crypto.batch_items"] += len(args[2])

        for method, span in _CRYPTO_SPANS.items():
            after = batch if method in ("seal_many", "open_many") else None
            setattr(self, method,
                    tracer.wrap(span, getattr(inner, method), after=after))

    # The abstract methods, for instantiation; __init__ shadows them.
    def sha256(self, data):
        return self.inner.sha256(data)

    def sha256_new(self, data=b""):
        return self.inner.sha256_new(data)

    def hmac_sha256(self, key, data):
        return self.inner.hmac_sha256(key, data)

    def hmac_new(self, key, data=b""):
        return self.inner.hmac_new(key, data)

    def _make_aes(self, key):
        return self.inner._make_aes(key)


# -- module-level functions at their import sites ----------------------------


@contextmanager
def patched_functions(tracer: Tracer):
    """Wrap the wire codec, ``Envelope`` (de)serialisation and
    ``frame_id`` wherever ``repro`` modules imported them."""
    from repro.telemetry import events
    from repro.wire import codec
    from repro.wire.message import Envelope

    targets = {
        codec.encode_fields: tracer.wrap("wire.encode", codec.encode_fields),
        codec.decode_fields: tracer.wrap("wire.decode", codec.decode_fields),
        events.frame_id: tracer.wrap("telemetry.frame_id", events.frame_id),
    }
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            try:
                replacement = targets.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if replacement is not None:
                setattr(module, attr, replacement)
                undo.append((module, attr, value))
    to_bytes = Envelope.__dict__["to_bytes"]
    from_bytes = Envelope.__dict__["from_bytes"]
    Envelope.to_bytes = tracer.wrap("wire.encode", to_bytes)
    Envelope.from_bytes = classmethod(
        tracer.wrap("wire.decode", from_bytes.__func__))
    try:
        yield
    finally:
        Envelope.to_bytes = to_bytes
        Envelope.from_bytes = from_bytes
        for module, attr, value in undo:
            setattr(module, attr, value)


# -- per-trial object instrumentation -----------------------------------------


def _wrap_attrs(tracer, obj, names, span, key=None):
    for name in names:
        setattr(obj, name, tracer.wrap(span, getattr(obj, name), key))


def instrument_network(tracer, net) -> None:
    _wrap_attrs(tracer, net, ("run", "post_all"), "harness.run")
    _wrap_attrs(tracer, net, ("step",), "harness.step")


def instrument_churn(wl, tracer) -> None:
    net = wl.net
    instrument_network(tracer, net)
    for host in wl.hosts.values():
        _wrap_attrs(tracer, host, ("pump", "enqueue", "handle",
                                   "handle_many"), "fabric.demux")
        mailbox = host.mailbox
        waits = {}

        def offered(args, accepted):
            if accepted:
                waits[id(args[0])] = perf_counter()

        def drained(_args, out, _mb=mailbox):
            counts = tracer.counts
            counts["overload.max_depth"] = max(
                counts["overload.max_depth"], _mb.depth + len(out))
            counts["fabric.frames_drained"] += len(out)
            now = perf_counter()
            for envelope in out:
                t = waits.pop(id(envelope), None)
                if t is not None:
                    counts["overload.waited"] += 1
                    counts["overload.wait_s"] += now - t

        def appended(args, _result):
            tracer.counts["storage.bytes"] += len(args[1])

        mailbox.offer = tracer.wrap("overload.offer", mailbox.offer,
                                    after=offered)
        mailbox.drain = tracer.wrap("overload.drain", mailbox.drain,
                                    after=drained)
        host.disk.append = tracer.wrap("storage.append", host.disk.append,
                                       after=appended)
    for gid, qs in wl.sets.items():
        leader = qs.leader
        _wrap_attrs(tracer, leader, ("handle",), "leader.handle", gid)
        _wrap_attrs(tracer, leader, ("handle_many",), "leader.handle_many",
                    gid)
        leader.bind_certifier(tracer.wrap("quorum.certify", qs._certify, gid))
        for witness in qs.witnesses.values():
            _wrap_attrs(tracer, witness, ("attest",), "quorum.attest", gid)
        _wrap_attrs(tracer, qs.journal, ("record_mutation",),
                    "storage.record", gid)
        _wrap_attrs(tracer, qs.journal, ("compact",), "storage.compact", gid)
    for uid, fm in wl.members.items():
        gid = fm.group_id
        _wrap_attrs(tracer, fm, ("handle", "start_join", "start_leave"),
                    "fabric.member", gid)
        net.register(uid, fm.handle)
        proto = fm.protocol
        _wrap_attrs(tracer, proto, ("handle",), "member.handle", gid)
        _wrap_attrs(tracer, proto, ("start_join", "start_leave"),
                    "member.start", gid)
        _wrap_attrs(tracer, proto.verifier, ("check",), "quorum.verify", gid)
        _wrap_attrs(tracer, proto.verifier, ("observe",), "quorum.observe",
                    gid)


def instrument_data_member(tracer, net, dm) -> None:
    dm.handle = tracer.wrap("dataplane.handle", dm.handle)
    net.register(dm.user_id, dm.handle)
    _wrap_attrs(tracer, dm, ("send_data", "tick"), "dataplane.handle")
    _wrap_attrs(tracer, dm.member, ("handle",), "member.handle")
    _wrap_attrs(tracer, dm.member, ("start_join", "start_leave"),
                "member.start")
    _wrap_attrs(tracer, dm.channel, ("seal",), "dataplane.seal")
    _wrap_attrs(tracer, dm.channel, ("open",), "dataplane.open")
    _wrap_attrs(tracer, dm.channel, ("rebind",), "dataplane.rebind")
    _wrap_attrs(tracer, dm.sender, ("rebind",), "dataplane.reseal")


def instrument_data(wl, tracer) -> None:
    net = wl.net
    instrument_network(tracer, net)
    wl.leader.handle = tracer.wrap("leader.handle", wl.leader.handle)
    net.register("leader", wl.leader.handle)
    if wl.bus is not None:
        wl.bus.emit = tracer.wrap("telemetry.emit", wl.bus.emit)
    for dm in wl.present.values():
        instrument_data_member(tracer, net, dm)
    wl.on_new_member = lambda dm: instrument_data_member(tracer, net, dm)
