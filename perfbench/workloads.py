"""The benchmark's workloads: set-up, closed-loop operations, and gates.

Every workload is a **closed loop** on one thread: the protocol cores
are synchronous sans-IO objects driven by a
:class:`~repro.enclaves.harness.SyncNetwork` in this process, so an
open wall-clock schedule would mostly measure the generator.  A run is
a sequence of *trials*.  Each trial builds its system from scratch
(``setup``, timed apart), performs a fixed, seeded list of operations
(the timed phase), and then checks the outputs (the gate, untimed).
Fixed-size trials keep per-operation cost comparable between a slow
and a fast program: state that grows with history (admin logs, journal
replays) grows by the same amount per trial on both.

Why each workload exists, which layers it loads and which it leaves
idle:

* ``churn`` — management only.  4 groups x 8 members on 2
  :class:`~repro.fabric.shard.ShardHost` s, each group a quorum replica
  set (n = 4, ``host_quorum_group``) journaling to its shard's
  ``SimDisk``, members built with ``quorum_fabric_member``, frames
  entering each shard through a bounded mailbox (``enqueue``/``pump``).
  Half of each group stays for the whole trial; the other half leaves
  and rejoins on seeded exponential session times.  Each group keeps
  one operation outstanding, so shard pumps see batches from several
  groups.  Every mutation pays the handshake, certification by 3
  witnesses, a journal record and an O(members) fan-out.  Loads wire,
  crypto, enclaves, quorum, storage, fabric, overload and the harness;
  the data plane and telemetry stay idle.
* ``data`` — data only.  16 ``DataMember`` s on a direct
  ``GroupLeader`` (composed as ``repro.dataplane.soak`` does),
  round-robin senders, one payload outstanding, seeded sizes from 64 B
  to 4 KiB, no loss and no membership change after set-up.  Loads the
  ratchet, reliable multicast, the blind relay, crypto and the wire
  codec; quorum, storage, fabric, overload and telemetry stay idle.
* ``rekey`` — the same data plane used differently.  24 members; per
  ~20 payloads one leave and, about 10 payloads later, the join of a
  fresh identity; an ``EventBus`` with a ``HealthProbe`` attached, as
  the soaks run.  Every leave and join re-seeds all sender chains, so
  a data-path change that costs rekeys (or a rekey change that costs
  data) shows here and not on ``data``.  The payloads between a leave
  and the next join are sealed at the post-leave epoch, which the
  leaver's captured state must not open.  The only workload where
  telemetry does work.

**Composition gap.**  No public API composes ``DataMember`` with
``FabricMember`` or ``QuorumMemberProtocol``: ``DataMember`` wraps a
bare ``MemberProtocol`` addressed at a direct leader, and
``FabricMember`` builds its own inner protocol.  So data traffic cannot
ride the quorum fabric, and ``churn`` measures management while
``data``/``rekey`` measure the data plane on a direct leader.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from time import perf_counter

from repro.crypto.rng import DeterministicRandom
from repro.dataplane.channel import DataChannel, decode_data_body
from repro.dataplane.member import DataMember
from repro.enclaves.common import Rejected, RekeyPolicy, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.exceptions import CodecError, IntegrityError, RatchetError, StateError
from repro.fabric.directory import GroupDirectory
from repro.fabric.shard import ShardHost
from repro.overload.mailbox import BoundedMailbox, MailboxConfig
from repro.quorum.fabric import host_quorum_group, quorum_fabric_member
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus
from repro.telemetry.health import HealthProbe
from repro.util.clock import TickClock, VirtualClock
from repro.wire.labels import Label

#: Steps one ``SyncNetwork.run`` may take before it counts as a livelock.
STEP_CAP = 100_000
_ID_LEN = 8


@dataclass
class Samples:
    """What the timed phases of one run produced."""

    latencies: dict = field(default_factory=lambda: {
        "join": [], "leave": [], "data": []})
    setups: list = field(default_factory=list)
    #: Wall seconds spent inside the timed phases (set-up and gates
    #: excluded).
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Payload x receiver deliveries.
    deliveries: int = 0
    #: Bytes of the frame bodies posted in the timed phases.
    wire_bytes: int = 0
    violations: list = field(default_factory=list)

    def every(self) -> list:
        """All completed operations' latencies (s)."""
        lat = self.latencies
        return lat["join"] + lat["leave"] + lat["data"]


class Workload:
    """One trial: ``setup()``, then ``run(samples)``, then
    ``gate()`` (a list of violations, empty when the outputs are right).

    ``seed`` and ``trial`` fix every input through ``random.Random``;
    the program sees only the generated operations.
    """

    name = "abstract"
    #: Set by ``instrument`` for a traced run.
    tracer = None
    #: Bytes of the frame bodies posted in the timed phases.
    wire_bytes = 0

    def __init__(self, seed: int, trial: int) -> None:
        self.rnd = random.Random(seed * 1_000_003 + trial)
        self.drng = DeterministicRandom(self.rnd.getrandbits(63))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, samples: Samples) -> None:
        raise NotImplementedError

    def gate(self) -> list:
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        """Wrap this trial's objects for a traced run (see trace.py)."""
        raise NotImplementedError

    def _op_start(self) -> float:
        tracer = self.tracer
        if tracer is not None:
            tracer.current_op = tracer.new_op()
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin(t0)
        return t0

    def _op_end(self, samples: Samples, t0: float) -> float:
        t1 = perf_counter()
        tracer = self.tracer
        if tracer is not None:
            tracer.finish(t1)
            tracer.current_op = -1
        samples.busy_s += t1 - t0
        return t1 - t0


# -- correctness checks (shared by the gates and the negative controls) -----


def check_member_views(label, leader, protocols) -> list:
    """§5.4 per member: the accepted admin list is a prefix of the
    leader's send list, and the member holds the leader's epoch and
    key fingerprint.  ``protocols`` maps user id -> MemberProtocol."""
    out = []
    epoch, fp = leader.group_epoch, leader.group_key_fingerprint
    if sorted(protocols) != leader.members:
        out.append(f"{label}: leader members {leader.members} != "
                   f"connected {sorted(protocols)}")
    for uid, proto in sorted(protocols.items()):
        sent = [p.encode() for p in leader.admin_send_log(uid)]
        got = [p.encode() for p in proto.admin_log]
        if got != sent[:len(got)]:
            out.append(f"{label}/{uid}: admin log is not a prefix of "
                       "the leader's send log")
        if proto.group_epoch != epoch or proto.group_key_fingerprint != fp:
            out.append(f"{label}/{uid}: holds epoch {proto.group_epoch} "
                       f"key {proto.group_key_fingerprint}, leader has "
                       f"epoch {epoch} key {fp}")
    return out


def check_exactly_once(sent, received) -> list:
    """Each payload reached exactly the members present when it was
    sent (sender excluded), each exactly once.

    ``sent`` maps payload id -> frozenset of expected receivers;
    ``received`` maps payload id -> Counter of receivers.
    """
    out = []
    for pid, expected in sent.items():
        got = received.get(pid, Counter())
        dupes = sorted(u for u, n in got.items() if n > 1)
        if dupes:
            out.append(f"payload {pid}: delivered twice to {dupes}")
        if set(got) != expected:
            missing = sorted(expected - set(got))
            extra = sorted(set(got) - expected)
            out.append(f"payload {pid}: missing at {missing}, "
                       f"delivered to non-recipients {extra}")
    for pid in received.keys() - sent.keys():
        out.append(f"unknown payload {pid} delivered")
    return out


def try_open_post_leave(channel, key, frame) -> bool:
    """Can a leaver's captured state read one post-leave frame?

    Two arms, as in the data soak: the captured channel itself, and a
    fresh channel re-seeded from the captured group key at the frame's
    epoch.  Both must fail.
    """
    try:
        channel.open(frame)
        return True
    except (RatchetError, IntegrityError, CodecError, StateError):
        pass
    if key is None:
        return False
    try:
        _sender, epoch, _seq, _box = decode_data_body(frame.body)
        forged = DataChannel("leaver-forged")
        forged.rebind(key, epoch)
        forged.open(frame)
        return True
    except (RatchetError, IntegrityError, CodecError, StateError):
        return False


def check_post_leave(captures) -> list:
    """Zero post-leave decrypts.  ``captures`` is a list of
    ``(user id, channel, key, epoch, frames)``; every frame sealed at a
    later epoch than the capture must stay closed."""
    out = []
    for uid, channel, key, epoch, frames in captures:
        opened = sum(
            1 for frame in frames
            if decode_data_body(frame.body)[1] > epoch
            and try_open_post_leave(channel, key, frame)
        )
        if opened:
            out.append(f"{uid}: captured state opened {opened} "
                       "post-leave frame(s)")
    return out


def _payload(rnd: random.Random, pid: int, size: int) -> bytes:
    return pid.to_bytes(_ID_LEN, "big") + rnd.randbytes(size - _ID_LEN)


# -- churn -------------------------------------------------------------------


class Churn(Workload):
    """Quorum-certified joins and leaves across a 2-shard fabric."""

    name = "churn"
    shard_ids = ("shard-0", "shard-1")
    #: Mean time offline relative to a mean session of 1: churners are
    #: online most of the time, so group sizes stay near full.
    mean_offline = 0.25
    #: Far above the few frames per group in flight: a shed frame loses
    #: an operation, which the gate reports.
    mailbox_capacity = 256
    #: Frames one ``ShardHost.pump`` may demux.
    pump_budget = 64

    def __init__(self, seed: int, trial: int, *, groups: int = 4,
                 members: int = 8, ops_per_group: int = 16) -> None:
        super().__init__(seed, trial)
        self.n_groups = groups
        self.n_members = members
        self.ops_per_group = ops_per_group

    def setup(self) -> None:
        drng = self.drng
        self.net = SyncNetwork()
        self.users = UserDirectory()
        self.fabric = GroupDirectory(self.shard_ids,
                                     rng=drng.fork("directory"))
        self.hosts = {}
        for sid in self.shard_ids:
            host = ShardHost(
                sid, SimDisk(rng=drng.fork(f"disk-{sid}")),
                rng=drng.fork(sid), clock=VirtualClock(),
                mailbox=BoundedMailbox(
                    sid, MailboxConfig(capacity=self.mailbox_capacity)),
            )
            self.hosts[sid] = host
            self.net.register(sid, self._intake(host))
        self.sets = {}
        self.members = {}
        self.present = {}
        for gid in self._balanced_group_ids():
            record = self.fabric.create_group(gid)
            self.sets[gid] = host_quorum_group(
                self.hosts[record.shard_id], self.users, gid,
                rng=drng.fork(gid), clock=VirtualClock(),
            )
            self.present[gid] = set()
            for i in range(self.n_members):
                uid = f"{gid}.m{i}"
                creds = self.users.register_password(uid, f"pw-{uid}")
                fm = quorum_fabric_member(
                    creds, gid, self.fabric, self.sets[gid],
                    rng=drng.fork(uid))
                self.members[uid] = fm
                wire(self.net, uid, fm)
        joins = {gid: deque(("join", f"{gid}.m{i}")
                            for i in range(self.n_members))
                 for gid in self.sets}
        failed = self._drive(joins, None)
        if failed:
            raise RuntimeError(f"churn set-up: {failed} join(s) failed")
        self.schedule = self._schedule()
        self.net.wire_log.clear()

    def _balanced_group_ids(self) -> list:
        """Group ids placed evenly over the shards by the directory's
        own hash ring (placement depends only on the name)."""
        per_shard = -(-self.n_groups // len(self.shard_ids))
        load = Counter()
        out = []
        k = 0
        while len(out) < self.n_groups:
            gid = f"grp-{k}"
            shard = self.fabric.ring.locate(gid)
            if load[shard] < per_shard:
                load[shard] += 1
                out.append(gid)
            k += 1
        return out

    def _intake(self, host):
        def handler(envelope):
            host.enqueue(envelope)
            return [], []
        return handler

    def _schedule(self) -> dict:
        """Per group: the first ``ops_per_group`` leave/join events of
        the churning half, ordered by seeded exponential session times
        (mean 1) and off times (mean ``mean_offline``).  The times are
        virtual; only their order matters."""
        stay = self.n_members // 2
        out = {}
        for gid in self.sets:
            events = []
            for i in range(stay, self.n_members):
                t, online = 0.0, True
                while t <= self.ops_per_group:
                    t += self.rnd.expovariate(
                        1.0 if online else 1.0 / self.mean_offline)
                    events.append((t, "leave" if online else "join",
                                   f"{gid}.m{i}"))
                    online = not online
            events.sort()
            out[gid] = deque((kind, uid) for _t, kind, uid
                             in events[:self.ops_per_group])
        return out

    def _drive(self, queues, samples) -> int:
        """Run each group's operation queue with one operation
        outstanding per group; returns the number of failed ops."""
        net, hosts = self.net, list(self.hosts.values())
        tracer = self.tracer if samples is not None else None
        active = {}
        failed = 0

        def start(gid):
            queue = queues[gid]
            if not queue:
                return
            kind, uid = queue.popleft()
            fm = self.members[uid]
            before = self.sets[gid].leader.group_epoch
            if tracer is not None:
                tracer.op_by_key[gid] = tracer.new_op()
            t0 = perf_counter()
            if kind == "join":
                net.post_all(fm.start_join())
            else:
                net.post(fm.start_leave())
            active[gid] = (kind, uid, before, t0)

        for gid in queues:
            start(gid)
        while active:
            moved = net.run(STEP_CAP)
            for host in hosts:
                if host.mailbox.depth:
                    out, _events = host.pump(self.pump_budget)
                    net.post_all(out)
                    moved += 1
            for gid in list(active):
                kind, uid, before, t0 = active[gid]
                if self._done(gid, kind, uid, before):
                    t1 = perf_counter()
                    del active[gid]
                    if kind == "join":
                        self.present[gid].add(uid)
                    else:
                        self.present[gid].discard(uid)
                    if samples is not None:
                        samples.latencies[kind].append(t1 - t0)
                    start(gid)
            if not moved and active:
                # Nothing in flight, nothing queued: the outstanding
                # operations lost a frame and will never complete.
                failed += len(active) + sum(len(queues[g]) for g in active)
                for gid in active:
                    queues[gid].clear()
                active.clear()
        return failed

    def _done(self, gid, kind, uid, before) -> bool:
        leader = self.sets[gid].leader
        epoch = leader.group_epoch
        if epoch <= before:
            return False
        members = self.members
        if kind == "join":
            if not members[uid].connected:
                return False
        elif uid in leader.members:
            return False
        for other in self.present[gid]:
            if other != uid and members[other].protocol.group_epoch != epoch:
                return False
        return kind != "join" or members[uid].protocol.group_epoch == epoch

    def run(self, samples: Samples) -> None:
        ops = sum(len(q) for q in self.schedule.values())
        t0 = self._op_start()
        failed = self._drive(self.schedule, samples)
        self._op_end(samples, t0)
        self.wire_bytes += sum(len(e.body) for e in self.net.wire_log)
        samples.attempted += ops
        samples.failed += failed

    def gate(self) -> list:
        out = []
        for gid, qs in sorted(self.sets.items()):
            protocols = {uid: self.members[uid].protocol
                         for uid in self.present[gid]}
            out += check_member_views(gid, qs.leader, protocols)
            refused = sum(w.refused for w in qs.witnesses.values())
            if refused:
                out.append(f"{gid}: witnesses refused {refused} "
                           "attestation(s)")
        out += [f"{uid}: refused a certificate: {reason}"
                for uid, reason in self.certificate_refusals()]
        shed = sum(h.stats.shed for h in self.hosts.values())
        if shed:
            out.append(f"shard mailboxes shed {shed} frame(s)")
        return out

    def certificate_refusals(self) -> list:
        """``(member, reason)`` for every certificate a member refused."""
        return [(uid, event.reason)
                for uid, events in self.net.events.items()
                for event in events
                if isinstance(event, Rejected) and "certif" in event.reason]

    def instrument(self, tracer) -> None:
        from perfbench import trace

        self.tracer = tracer
        trace.instrument_churn(self, tracer)


# -- data plane --------------------------------------------------------------


class Data(Workload):
    """Round-robin payloads through the ratcheted data plane."""

    name = "data"
    #: Called with each member created during the timed phase.
    on_new_member = None
    #: Virtual seconds between payloads.
    dt = 0.5

    #: Payload sizes, uniform in bytes.
    min_size, max_size = 64, 4096

    def __init__(self, seed: int, trial: int, *, members: int = 16,
                 payloads: int = 600) -> None:
        super().__init__(seed, trial)
        self.n_members = members
        self.n_payloads = payloads

    # -- set-up -------------------------------------------------------------

    def _bus(self):
        return None

    def setup(self) -> None:
        drng = self.drng
        self.now = 0.0
        self.bus = self._bus()
        self.net = SyncNetwork(telemetry=self.bus)
        self.users = UserDirectory()
        self.leader = GroupLeader(
            "leader", self.users,
            config=LeaderConfig(
                rekey_policy=RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE),
            rng=drng.fork("leader"), clock=VirtualClock(),
            telemetry=self.bus,
        )
        wire(self.net, "leader", self.leader)
        self.creds = {}
        self.present = {}
        #: Every DataMember built, departed ones included.
        self.all_members = []
        #: Payload deliveries consumed from inboxes.
        self.delivered_total = 0
        for i in range(self.n_members):
            uid = f"user-{i}"
            dm = self._new_member(uid)
            self.net.post(dm.member.start_join())
            self.net.run(STEP_CAP)
            self.present[uid] = dm
        #: payload id -> receivers expected / Counter of receivers.
        self.sent = {}
        self.received = {}
        self.captures = []
        self.ops = self._ops()
        self._consume_inboxes()
        self.net.wire_log.clear()
        self.net.clear_events()

    def _new_member(self, uid: str) -> DataMember:
        self.creds[uid] = self.users.register_password(uid, f"pw-{uid}")
        core = MemberProtocol(self.creds[uid], "leader", self.drng.fork(uid))
        dm = DataMember(core, clock=lambda: self.now, telemetry=self.bus)
        wire(self.net, uid, dm)
        self.all_members.append(dm)
        return dm

    def _ops(self) -> list:
        sizes = [self.rnd.randint(self.min_size, self.max_size)
                 for _ in range(self.n_payloads)]
        return [("data", size) for size in sizes]

    # -- the timed phase ------------------------------------------------------

    def run(self, samples: Samples) -> None:
        sender_ix = 0
        for kind, arg in self.ops:
            if kind == "data":
                uids = sorted(self.present)
                uid = uids[sender_ix % len(uids)]
                sender_ix += 1
                ok = self._send(samples, uid, arg)
            elif kind == "leave":
                uids = sorted(self.present)
                ok = self._leave(samples, uids[arg % len(uids)])
            else:
                ok = self._join(samples, f"user-{len(self.creds)}")
            samples.attempted += 1
            if not ok:
                samples.failed += 1
            self._after_op()

    def _send(self, samples, uid, size) -> bool:
        pid = len(self.sent)
        payload = _payload(self.rnd, pid, size)
        sender = self.present[uid]
        receivers = [dm for u, dm in self.present.items() if u != uid]
        self.sent[pid] = frozenset(u for u in self.present if u != uid)
        net = self.net
        self.now += self.dt
        t0 = self._op_start()
        net.post_all(sender.send_data(payload))
        net.run(STEP_CAP)
        elapsed = self._op_end(samples, t0)
        # The network is lossless, so one run must deliver the payload
        # everywhere and bring back every ACK.
        if sender.sender.pending or not all(
                any(entry[2] == payload for entry in dm.inbox)
                for dm in receivers):
            return False
        samples.latencies["data"].append(elapsed)
        samples.deliveries += len(receivers)
        return True

    def _settled(self, epoch) -> bool:
        """Every present member holds ``epoch``, and its chains (and so
        its re-sealed in-flight payloads) moved to it."""
        return all(m.member.group_epoch == epoch and m.channel.epoch == epoch
                   for m in self.present.values())

    def _leave(self, samples, uid) -> bool:
        net, leader = self.net, self.leader
        dm = self.present.pop(uid)
        capture = [uid, dm.channel, dm.member.group_key, dm.channel.epoch, []]
        before = leader.group_epoch
        fingerprint = leader.group_key_fingerprint
        t0 = self._op_start()
        net.post(dm.member.start_leave())
        net.run(STEP_CAP)
        elapsed = self._op_end(samples, t0)
        self._drain_inbox(uid, dm)
        self.captures.append(capture)
        epoch = leader.group_epoch
        if (epoch <= before or leader.group_key_fingerprint == fingerprint
                or uid in leader.members or not self._settled(epoch)):
            return False
        samples.latencies["leave"].append(elapsed)
        return True

    def _join(self, samples, uid) -> bool:
        net, leader = self.net, self.leader
        dm = self._new_member(uid)
        if self.on_new_member is not None:
            self.on_new_member(dm)
        before = leader.group_epoch
        t0 = self._op_start()
        net.post(dm.member.start_join())
        net.run(STEP_CAP)
        elapsed = self._op_end(samples, t0)
        self.present[uid] = dm
        epoch = leader.group_epoch
        if (epoch <= before or dm.member.state is not MemberState.CONNECTED
                or not self._settled(epoch)):
            return False
        samples.latencies["join"].append(elapsed)
        return True

    # -- bookkeeping between operations (untimed) ---------------------------

    def _after_op(self) -> None:
        self._consume_inboxes()
        self.wire_bytes += sum(len(e.body) for e in self.net.wire_log)
        open_captures = [c for c in self.captures if len(c[4]) < 32]
        if open_captures:
            frames = [f for f in self.net.wire_log
                      if f.label is Label.DATA_MSG]
            for capture in open_captures:
                capture[4].extend(frames[:32 - len(capture[4])])
        self.net.wire_log.clear()
        self.net.clear_events()

    def _consume_inboxes(self) -> None:
        for uid, dm in self.present.items():
            self._drain_inbox(uid, dm)

    def _drain_inbox(self, uid, dm) -> None:
        self.delivered_total += len(dm.inbox)
        for _sender, _seq, payload in dm.inbox:
            pid = int.from_bytes(payload[:_ID_LEN], "big")
            self.received.setdefault(pid, Counter())[uid] += 1
        dm.inbox.clear()

    def gate(self) -> list:
        out = check_member_views(
            "group", self.leader,
            {uid: dm.member for uid, dm in self.present.items()})
        out += check_exactly_once(self.sent, self.received)
        out += check_post_leave(self.captures)
        return out

    def instrument(self, tracer) -> None:
        from perfbench import trace

        self.tracer = tracer
        trace.instrument_data(self, tracer)


class _Bus(EventBus):
    """An ``EventBus`` whose instance attributes can be wrapped (the
    base class has ``__slots__``)."""


class Rekey(Data):
    """Data with one leave and one join per ~20 payloads, live telemetry.

    The leave comes first and the join of a fresh identity about 10
    payloads later, so payloads are sealed at every post-leave epoch.
    Lossless, and no identity rejoins: with loss or a same-user rejoin
    the current data plane fails this gate (see ``perfbench/README.md``).
    """

    name = "rekey"

    def __init__(self, seed: int, trial: int, *, members: int = 24,
                 payloads: int = 300, rekey_every: int = 20) -> None:
        super().__init__(seed, trial, members=members, payloads=payloads)
        self.rekey_every = rekey_every

    def _bus(self):
        bus = _Bus(TickClock())
        self.probe = HealthProbe().subscribe_to(bus)
        return bus

    def _ops(self) -> list:
        """Leaves and joins alternate, each after a seeded gap of about
        half of ``rekey_every`` payloads."""
        ops = []
        kind, gap = "leave", self._gap()
        for op in super()._ops():
            ops.append(op)
            gap -= 1
            if gap == 0:
                ops.append((kind, self.rnd.getrandbits(32)))
                kind = "join" if kind == "leave" else "leave"
                gap = self._gap()
        return ops

    def _gap(self) -> int:
        half, quarter = self.rekey_every // 2, self.rekey_every // 4
        return half - quarter + self.rnd.randrange(2 * quarter + 1)

    def gate(self) -> list:
        out = super().gate()
        out += [f"health probe: {v}" for v in self.probe.violations]
        return out


WORKLOADS = {cls.name: cls for cls in (Churn, Data, Rekey)}
