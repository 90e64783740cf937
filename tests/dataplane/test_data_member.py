"""End-to-end data-plane tests through the leader relay."""

from repro.attacks.base import build_data, build_itgm
from repro.crypto.rng import DeterministicRandom
from repro.dataplane.member import DataMember
from repro.enclaves.harness import wire
from repro.enclaves.itgm.member import MemberProtocol
from repro.wire.labels import Label
from repro.wire.message import Envelope


class TestRelayedDelivery:
    def test_payload_reaches_every_other_member(self):
        scenario = build_data(["alice", "bob", "carol"], seed=1)
        net = scenario.net
        net.post_all(scenario.members["alice"].send_data(b"hi all"))
        net.run()
        assert [p for (_s, _q, p)
                in scenario.members["bob"].inbox] == [b"hi all"]
        assert [p for (_s, _q, p)
                in scenario.members["carol"].inbox] == [b"hi all"]
        assert scenario.members["alice"].inbox == []  # no echo

    def test_leader_never_opens_data(self):
        """The relay holds no message key: its fan-out copies are the
        sender's bytes verbatim."""
        scenario = build_data(["alice", "bob"], seed=1)
        net = scenario.net
        net.post_all(scenario.members["alice"].send_data(b"opaque"))
        net.run()
        to_leader = [e.body for e in net.wire_log
                     if e.label is Label.DATA_MSG and e.recipient == "leader"]
        to_bob = [e.body for e in net.wire_log
                  if e.label is Label.DATA_MSG and e.recipient == "bob"]
        assert to_bob and to_bob[0] == to_leader[0]

    def test_acks_clear_sender_pending(self):
        scenario = build_data(["alice", "bob", "carol"], seed=1)
        net = scenario.net
        net.post_all(scenario.members["alice"].send_data(b"acked"))
        net.run()
        sender = scenario.members["alice"].sender
        assert sender.pending == 0
        assert sender.fully_acked == 1

    def test_non_member_data_rejected(self):
        scenario = build_data(["alice", "bob"], seed=1)
        net = scenario.net
        before = [len(m.inbox) for m in scenario.members.values()]
        forged = Envelope(Label.DATA_MSG, "mallory", "leader", b"\x00junk")
        net.post(forged)
        net.run()
        assert [len(m.inbox) for m in scenario.members.values()] == before

    def test_rekey_reseeds_and_traffic_continues(self):
        scenario = build_data(["alice", "bob"], seed=1)
        net = scenario.net
        alice, bob = scenario.members["alice"], scenario.members["bob"]
        net.post_all(alice.send_data(b"before"))
        net.run()
        old_epoch = alice.channel.epoch
        net.post_all(scenario.leader.rekey_now())
        net.run()
        assert alice.channel.epoch > old_epoch
        assert bob.channel.epoch == alice.channel.epoch
        net.post_all(alice.send_data(b"after"))
        net.run()
        assert [p for (_s, _q, p) in bob.inbox] == [b"before", b"after"]

    def test_unreliable_member_interoperates(self):
        """A reliable=False sender's bare payloads still deliver."""
        scenario = build_data(["alice", "bob"], seed=1, reliable=False)
        net = scenario.net
        assert scenario.members["alice"].sender is None
        net.post_all(scenario.members["alice"].send_data(b"bare"))
        net.run()
        assert [p for (_s, _q, p)
                in scenario.members["bob"].inbox] == [b"bare"]


class TestLostAckRepair:
    def test_retransmit_of_a_delivered_frame_is_acked_again(self):
        """A lost DATA_ACK is repaired: the receiver answers the
        sender's retransmit with its cumulative ACK instead of
        shedding it silently as a ratchet replay."""
        now = [0.0]
        scenario = build_itgm(["alice", "bob", "carol"], seed=5)
        net = scenario.net
        members = {}
        for user_id, member in scenario.members.items():
            members[user_id] = DataMember(member, clock=lambda: now[0])
            wire(net, user_id, members[user_id])
        alice, bob = members["alice"], members["bob"]
        dropped = []

        def drop_bobs_first_ack(envelope):
            if (not dropped and envelope.label is Label.DATA_ACK
                    and envelope.sender == "bob"):
                dropped.append(envelope)
                return []
            return None

        net.set_interceptor(drop_bobs_first_ack)
        net.post_all(alice.send_data(b"once"))
        net.run()
        assert dropped and alice.sender.pending == 1
        for _ in range(39):
            now[0] += 1.0
            net.post_all(alice.tick())
            net.run()
        assert alice.sender.pending == 0
        assert alice.sender.retransmits == 1
        assert bob.receiver.acks_sent == 2
        assert bob.receiver.nacks_sent == 0
        assert [p for (_s, _q, p) in bob.inbox] == [b"once"]


class TestRejoinedSender:
    def test_rejoined_senders_payloads_are_not_duplicates(self):
        """A sender who leaves and rejoins starts a fresh DataMember
        whose message ids restart at 0; receivers must deliver them."""
        scenario = build_data(["alice", "bob", "carol"], seed=5)
        net = scenario.net
        alice, bob = scenario.members["alice"], scenario.members["bob"]
        for i in range(3):
            net.post_all(alice.send_data(b"pre-%d" % i))
            net.run()
        net.post(alice.member.start_leave())
        net.run()
        rejoined = DataMember(MemberProtocol(
            alice.member.credentials, "leader", DeterministicRandom(6)))
        wire(net, "alice", rejoined)
        net.post(rejoined.member.start_join())
        net.run()
        for i in range(2):
            net.post_all(rejoined.send_data(b"post-%d" % i))
            net.run()
        assert [p for (_s, _q, p) in bob.inbox] == [
            b"pre-0", b"pre-1", b"pre-2", b"post-0", b"post-1"]
        assert bob.receiver.duplicates_suppressed == 0

    def test_member_who_stays_keeps_cross_epoch_dedup(self):
        """A payload re-sealed at a new epoch after its ACK was lost is
        still delivered once when its sender never left."""
        scenario = build_data(["alice", "bob", "carol"], seed=5)
        net = scenario.net
        alice, bob = scenario.members["alice"], scenario.members["bob"]
        net.set_interceptor(
            lambda e: [] if e.label is Label.DATA_ACK else None)
        net.post_all(alice.send_data(b"once"))
        net.run()
        net.set_interceptor(None)
        assert alice.sender.pending == 1
        net.post_all(scenario.leader.rekey_now())
        net.run()
        assert alice.sender.pending == 0
        assert [p for (_s, _q, p) in bob.inbox] == [b"once"]
        assert bob.receiver.duplicates_suppressed == 1
