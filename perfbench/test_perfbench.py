"""The benchmark's own tests: each correctness check fails on tampered
output (negative controls), a clean trial passes on another seed, and
two traced runs with one seed give identical per-layer counts.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.crypto.provider import FastProvider, using_provider  # noqa: E402
from repro.enclaves.common import Rejected  # noqa: E402
from repro.enclaves.itgm.admin import MemberJoinedPayload  # noqa: E402
from repro.wire.labels import Label  # noqa: E402

from perfbench import run as bench  # noqa: E402
from perfbench.workloads import Churn, Data, Rekey, Samples  # noqa: E402

SMALL = {
    "churn": partial(Churn, groups=2, members=4, ops_per_group=6),
    "data": partial(Data, members=4, payloads=20),
    "rekey": partial(Rekey, members=6, payloads=40, rekey_every=10),
}


@pytest.fixture(autouse=True)
def fast_backend():
    with using_provider("fast"):
        yield


def trial(name: str, seed: int = 5):
    wl = SMALL[name](seed, 0)
    wl.setup()
    samples = Samples()
    wl.run(samples)
    return wl, samples


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [5, 23])
def test_clean_trial_passes(name, seed):
    wl, samples = trial(name, seed)
    assert samples.failed == 0
    assert wl.gate() == []


# -- negative controls: every check bites --------------------------------------


def test_admin_prefix_violation_detected():
    wl, _ = trial("data")
    dm = next(iter(wl.present.values()))
    dm.member.admin_log.append(MemberJoinedPayload("mallory"))
    assert any("not a prefix" in v for v in wl.gate())


def test_epoch_disagreement_detected():
    wl, _ = trial("churn")
    gid = sorted(wl.present)[0]
    uid = sorted(wl.present[gid])[0]
    wl.members[uid].protocol._group_epoch -= 1
    assert any("holds epoch" in v for v in wl.gate())


def test_membership_disagreement_detected():
    wl, _ = trial("data")
    wl.present.pop(sorted(wl.present)[0])
    assert any("leader members" in v for v in wl.gate())


def test_witness_refusal_detected():
    wl, _ = trial("churn")
    qs = next(iter(wl.sets.values()))
    next(iter(qs.witnesses.values())).refused += 1
    assert any("refused" in v for v in wl.gate())


def test_member_certificate_refusal_detected():
    wl, _ = trial("churn")
    uid = next(iter(wl.members))
    wl.net.events[uid].append(
        Rejected("certificate rejected: forged", Label.ADMIN_MSG))
    assert any("refused a certificate" in v for v in wl.gate())


def test_shed_frame_detected():
    wl, _ = trial("churn")
    next(iter(wl.hosts.values())).stats.shed += 1
    assert any("shed" in v for v in wl.gate())


@pytest.mark.parametrize("tamper", ["duplicate", "missing", "stranger"])
def test_exactly_once_violations_detected(tamper):
    wl, _ = trial("data")
    pid = 3
    counts = wl.received[pid]
    uid = sorted(counts)[0]
    if tamper == "duplicate":
        counts[uid] += 1
    elif tamper == "missing":
        del counts[uid]
    else:
        counts["stranger"] += 1
    assert any(f"payload {pid}:" in v for v in wl.gate())


def test_post_leave_decrypt_detected():
    from repro.dataplane.channel import DataChannel

    wl, _ = trial("rekey")
    assert wl.captures, "the small rekey trial must include a leave"
    capture = wl.captures[0]
    assert capture[4], "post-leave frames must have been captured"
    # Stand-in for leaked state: a capture holding the current key, and
    # a post-leave frame sealed under it.
    member = next(iter(wl.present.values()))
    key, epoch = member.member.group_key, member.channel.epoch
    assert epoch > capture[3]
    sender = DataChannel("sender-x")
    sender.rebind(key, epoch)
    _seq, frame = sender.seal(b"post-leave secret", "leader")
    reader = DataChannel("leaked")
    reader.rebind(key, epoch)
    capture[1:] = [reader, key, capture[3], [frame]]
    assert any("post-leave" in v for v in wl.gate())


def test_leave_that_keeps_the_key_detected():
    """A leave that raises the epoch but keeps the group key fails the
    leave itself, and the leaver's captured key opens the payloads
    sealed before the next join."""
    from repro.crypto.aead import AuthenticatedCipher

    wl = SMALL["rekey"](5, 0)
    wl.setup()
    leader = wl.leader
    rotate = leader._rotate_group_key

    def keep_key_on_leave(eviction=False):
        key = leader._group_key
        rotate(eviction)
        if eviction:
            leader._group_key = key
            leader._group_cipher = AuthenticatedCipher(key, leader._rng)

    leader._rotate_group_key = keep_key_on_leave
    samples = Samples()
    wl.run(samples)
    assert samples.failed > 0
    assert any("post-leave" in v for v in wl.gate())


def test_health_probe_violation_detected():
    wl, _ = trial("rekey")
    wl.probe.violations.append("stale group-key epoch")
    assert any("health probe" in v for v in wl.gate())


# -- exact repeats of every per-layer count ------------------------------------


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(("_calls", "_per_op", "_per_mutation",
                           "retransmits", "shed", "refusals", "events",
                           "offered", "rejected", "max_depth"))}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_and_ledger_adds_up(name):
    fast = FastProvider()
    runs = [bench.traced_run(SMALL[name], 7, 1, fast) for _ in range(2)]
    first, second = (_counts(r[2]) for r in runs)
    assert first == second
    assert first, "no counts reported"
    for _samples, tracer, metrics, _lines, violations in runs:
        assert violations == []
        self_s, trace_s = tracer.self_times()
        wall = metrics["ledger.traced_wall_s"]["value"]
        unattributed = metrics["ledger.unattributed_s"]["value"]
        assert metrics["ledger.trace_s"]["value"] == trace_s > 0
        assert (sum(self_s.values()) + trace_s + unattributed
                == pytest.approx(wall, rel=1e-9))


@pytest.mark.parametrize("tamper", ["top_level_leave", "child_outside"])
def test_ledger_violations_detected(tamper):
    samples, tracer, _m, _l, violations = bench.traced_run(
        SMALL["data"], 7, 1, FastProvider())
    assert violations == []
    wall = samples.busy_s
    if tamper == "top_level_leave":
        # A top-level span that claims to end later than it did: the
        # parts no longer add up to the clocked wall time.
        i = list(tracer.parent).index(-1)
        tracer.leave[i] += 1e-3
        assert any("traced wall time" in v
                   for v in bench.ledger_violations(tracer, wall))
    else:
        i = next(i for i, p in enumerate(tracer.parent) if p >= 0)
        p = tracer.parent[i]
        tracer.enter[i] = tracer.start[p] - 1e-3
        assert any("do not nest" in v
                   for v in bench.ledger_violations(tracer, wall))
