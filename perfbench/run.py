#!/usr/bin/env python3
"""The repository benchmark: one command, one process, one thread.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
of the same checkout; without it the command exits with status 2 and
prints no result.  The crypto backend is pinned to ``fast`` here, so
``REPRO_CRYPTO_BACKEND`` cannot change what is measured.

``--trace 0`` measures for ``--seconds`` (whole trials) and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of trials twice,
untraced and traced, and reports the per-layer metrics and the ledger.
The last line of standard output is the result as one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Earlier lines give
the environment and the per-kind latencies.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Trials per traced run: fixed work, so every count repeats exactly.
TRACE_TRIALS = {"churn": 2, "data": 2, "rekey": 2}
#: Fewest trials (set-up samples) in an untimed run.
MIN_TRIALS = 3
#: Times a trial builds its system; each build is one set-up sample.
SETUP_BUILDS = 3
#: Below this share of the traced wall time the ledger is complete.
UNATTRIBUTED_LIMIT = 0.05


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` (no subprocess); "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _src_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as f:
            total += sum(1 for _ in f)
    return total


def envelope(provider) -> dict:
    """What produced a result; a run whose AES is not the
    ``cryptography`` library measures a different program."""
    return {
        "crypto_backend": provider.name,
        "aes_backend": provider.aes_backend,
        "comparable": provider.aes_backend == "cryptography",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(ROOT),
        "src_lines": _src_lines(ROOT),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quantile(values: list, q: int) -> float:
    """The q-th percentile, reported only with >= 10 samples beyond it."""
    if len(values) * (100 - q) < 10 * 100:
        raise RuntimeError(
            f"{len(values)} samples are too few for a p{q}")
    return statistics.quantiles(values, n=100)[q - 1]


def run_trials(cls, seed: int, *, seconds: float | None = None,
               trials: int | None = None, tracer=None):
    """Trials of one workload until ``seconds`` pass (whole trials, at
    least ``MIN_TRIALS``) or exactly ``trials`` trials."""
    from perfbench.workloads import Samples

    samples = Samples()
    start = perf_counter()
    trial = 0
    while True:
        for _build in range(SETUP_BUILDS):
            # Free the previous system before the next one is built, so
            # peak memory is one system's and no build pays for
            # collecting another's garbage.
            wl = None
            gc.collect()
            wl = cls(seed, trial)
            t0 = perf_counter()
            wl.setup()
            samples.setups.append(perf_counter() - t0)
        if tracer is not None:
            wl.instrument(tracer)
            before = _layer_state(wl)
        wl.run(samples)
        samples.wire_bytes += wl.wire_bytes
        if tracer is not None:
            _accumulate(tracer, before, _layer_state(wl))
        samples.violations += [f"trial {trial}: {v}" for v in wl.gate()]
        trial += 1
        if trials is not None:
            if trial >= trials:
                break
        elif trial >= MIN_TRIALS and perf_counter() - start >= seconds:
            break
    return samples


# -- per-layer state read around the timed phase ------------------------------


def _layer_state(wl) -> Counter:
    """Program counters that the traced run reports as deltas."""
    state = Counter()
    for host in getattr(wl, "hosts", {}).values():
        stats, mb = host.stats, host.mailbox.stats
        state["fabric.demux_calls"] += stats.frames_in
        state["fabric.rejected"] += (stats.foreign_rejected
                                     + stats.malformed + stats.redirected)
        state["overload.offered"] += mb.offered
        state["overload.shed"] += (mb.shed_capacity + mb.shed_fair_share
                                   + mb.shed_brownout + mb.evicted)
        state["storage.fsyncs"] += host.disk.counters["fsyncs"]
    for qs in getattr(wl, "sets", {}).values():
        state["storage.mutations"] += qs.journal.seq
        state["quorum.refusals"] += sum(
            w.refused for w in qs.witnesses.values())
    if hasattr(wl, "certificate_refusals"):
        state["quorum.refusals"] += len(wl.certificate_refusals())
    members = getattr(wl, "all_members", ())
    for dm in members:
        state["dataplane.retransmits"] += dm.sender.retransmits
        state["dataplane.skip_hits"] += dm.channel.skip_stats()["skip_hits"]
    state["dataplane.delivered"] += getattr(wl, "delivered_total", 0)
    state["wire.bytes"] += wl.wire_bytes
    return state


def _accumulate(tracer, before, after) -> None:
    for key in after.keys() | before.keys():
        tracer.counts[key] += after[key] - before[key]


# -- results -----------------------------------------------------------------


def end_to_end(samples) -> tuple[dict, list]:
    """The end-to-end metrics, and human-readable per-kind lines."""
    lat = samples.latencies
    every = samples.every()
    metrics = {
        # The upper quartile: on a shared machine the samples fall into
        # a fast and a slow mode, and a run's median jumps between them
        # with the mix of the run, while its upper quartile stays put.
        "setup_s": _metric(
            statistics.quantiles(samples.setups, n=4)[2], "s"),
        "wire_kib_per_op": _metric(
            samples.wire_bytes / len(every) / 1024, "KiB"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"op: n={len(every)} op_p50_ms "
             f"{statistics.median(every) * 1e3:.3f} op_p90_ms "
             f"{_quantile(every, 90) * 1e3:.3f}"
             f" ops_per_s {len(every) / samples.busy_s:.2f}"]
    for kind, values in lat.items():
        if not values:
            continue
        parts = [f"{kind}_p50_ms {statistics.median(values) * 1e3:.3f}"]
        for q in (90, 99):
            if len(values) * (100 - q) >= 1000:
                parts.append(f"{kind}_p{q}_ms "
                             f"{_quantile(values, q) * 1e3:.3f}")
        lines.append(f"{kind}: n={len(values)} " + " ".join(parts))
    lines.append(f"deliveries_per_s {samples.deliveries / samples.busy_s:.1f}"
                 f" failed_ratio {samples.failed / samples.attempted:.6f}"
                 f" trials {len(samples.setups) // SETUP_BUILDS}"
                 f" setup_p50_s {statistics.median(samples.setups):.4f}")
    return metrics, lines


def per_layer(tracer, traced, untraced) -> tuple[dict, list]:
    """The per-layer metrics and the ledger, from the traced run."""
    from perfbench.trace import layer_of

    calls = tracer.calls()
    self_s, trace_s = tracer.self_times()
    counts = tracer.counts
    ops = len(traced.every())
    mutations = counts["storage.mutations"]

    def c(*names):
        return sum(calls[n] for n in names)

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    layers: dict = {}
    for name, seconds in self_s.items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + seconds
    wall = traced.busy_s
    unattributed = tracer.gap_s
    batches = c("crypto.seal_many", "crypto.open_many")
    opens = c("dataplane.open")
    m = {
        "crypto.seal_calls": (c("crypto.seal", "crypto.seal_many"), "count"),
        "crypto.open_calls": (c("crypto.open", "crypto.open_many"), "count"),
        "crypto.mac_calls": (c("crypto.mac"), "count"),
        "crypto.kdf_calls": (c("crypto.kdf"), "count"),
        "crypto.batch_size_mean": (
            ratio(counts["crypto.batch_items"], batches), "frames"),
        "crypto.self_s": (layers.get("crypto", 0.0), "s"),
        "wire.encode_calls": (c("wire.encode"), "count"),
        "wire.decode_calls": (c("wire.decode"), "count"),
        "wire.bytes_per_op": (ratio(counts["wire.bytes"], ops), "B"),
        "wire.self_s": (layers.get("wire", 0.0), "s"),
        "enclaves.leader_handle_calls": (c("leader.handle"), "count"),
        "enclaves.leader_self_s": (layers.get("enclaves.leader", 0.0), "s"),
        "enclaves.member_handle_calls": (c("member.handle"), "count"),
        "enclaves.member_self_s": (layers.get("enclaves.member", 0.0), "s"),
        "enclaves.frames_per_op": (ratio(
            c("leader.handle", "member.handle"), ops), "frames"),
        "quorum.attest_calls": (c("quorum.attest"), "count"),
        "quorum.attest_s": (t("quorum.attest"), "s"),
        "quorum.certify_s": (t("quorum.certify"), "s"),
        "quorum.verify_calls": (c("quorum.verify"), "count"),
        "quorum.verify_s": (t("quorum.verify", "quorum.observe"), "s"),
        "quorum.attestations_per_mutation": (
            ratio(c("quorum.attest"), mutations), "count"),
        "quorum.refusals": (counts["quorum.refusals"], "count"),
        "storage.record_calls": (c("storage.record"), "count"),
        "storage.record_s": (t("storage.record"), "s"),
        "storage.compact_calls": (c("storage.compact"), "count"),
        "storage.compact_s": (t("storage.compact"), "s"),
        "storage.fsyncs_per_mutation": (
            ratio(counts["storage.fsyncs"], mutations), "count"),
        "storage.bytes_per_mutation": (
            ratio(counts["storage.bytes"], mutations), "B"),
        "fabric.demux_calls": (counts["fabric.demux_calls"], "count"),
        "fabric.demux_self_s": (layers.get("fabric", 0.0), "s"),
        "fabric.frames_per_pump": (ratio(
            counts["fabric.frames_drained"], c("overload.drain")), "frames"),
        "fabric.rejected": (counts["fabric.rejected"], "count"),
        "overload.offered": (counts["overload.offered"], "count"),
        "overload.shed": (counts["overload.shed"], "count"),
        "overload.queue_wait_s": (ratio(
            counts["overload.wait_s"], counts["overload.waited"]), "s"),
        "overload.max_depth": (counts["overload.max_depth"], "frames"),
        "overload.self_s": (layers.get("overload", 0.0), "s"),
        "dataplane.seal_calls": (c("dataplane.seal"), "count"),
        "dataplane.open_calls": (opens, "count"),
        "dataplane.self_s": (layers.get("dataplane", 0.0), "s"),
        "dataplane.rebind_calls": (c("dataplane.rebind"), "count"),
        "dataplane.rebind_s": (
            t("dataplane.rebind", "dataplane.reseal"), "s"),
        "dataplane.retransmits": (counts["dataplane.retransmits"], "count"),
        "dataplane.skip_hits": (counts["dataplane.skip_hits"], "count"),
        "dataplane.useful_ratio": (
            ratio(counts["dataplane.delivered"], opens), "ratio"),
        "telemetry.events": (c("telemetry.emit"), "count"),
        "telemetry.emit_s": (layers.get("telemetry", 0.0), "s"),
        "harness.steps_per_op": (ratio(c("harness.step"), ops), "count"),
        "harness.self_s": (layers.get("harness", 0.0), "s"),
        "ledger.traced_wall_s": (wall, "s"),
        "ledger.unattributed_s": (unattributed, "s"),
        "ledger.trace_s": (trace_s, "s"),
        "ledger.trace_overhead_ratio": (
            ratio(wall, untraced.busy_s), "ratio"),
        "failed_ratio": (ratio(traced.failed, traced.attempted), "ratio"),
    }
    lines = [f"ledger over {wall:.4f} s traced "
             f"({untraced.busy_s:.4f} s untraced):"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<16} {seconds:10.4f} s "
                     f"{100 * seconds / wall:6.2f}%")
    for row, seconds in (("trace", trace_s), ("unattributed", unattributed)):
        lines.append(f"  {row:<16} {seconds:10.4f} s "
                     f"{100 * seconds / wall:6.2f}%")
    return {k: _metric(v, u) for k, (v, u) in m.items()}, lines


def ledger_violations(tracer, wall: float) -> list:
    """The layers' self times, the tracer's time and the unattributed
    time must add up to ``wall``, the traced wall time the workloads
    clocked around their operations; and the spans must nest."""
    self_s, trace_s = tracer.self_times()
    total = sum(self_s.values()) + trace_s + tracer.gap_s
    out = []
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        out.append(f"ledger: self {sum(self_s.values())} s + trace "
                   f"{trace_s} s + unattributed {tracer.gap_s} s = "
                   f"{total} s, but the traced wall time is {wall} s")
    misnested = tracer.misnested()
    if misnested:
        out.append(f"ledger: {misnested} span(s) do not nest")
    return out


def traced_run(cls, seed: int, trials: int, provider):
    """The same fixed trials untraced, then traced: ``(samples, tracer,
    metrics, lines, violations)`` of the traced pass."""
    from repro.crypto.provider import using_provider

    from perfbench import trace

    untraced = run_trials(cls, seed, trials=trials)
    tracer = trace.Tracer()
    with using_provider(trace.TracedProvider(provider, tracer)), \
            trace.patched_functions(tracer):
        samples = run_trials(cls, seed, trials=trials, tracer=tracer)
    metrics, lines = per_layer(tracer, samples, untraced)
    violations = (samples.violations + untraced.violations
                  + ledger_violations(tracer, samples.busy_s))
    share = metrics["ledger.unattributed_s"]["value"] / samples.busy_s
    if share >= UNATTRIBUTED_LIMIT:
        lines.append(f"ledger: unattributed {100 * share:.2f}% misses the "
                     f"{100 * UNATTRIBUTED_LIMIT:.0f}% target")
    return samples, tracer, metrics, lines, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.crypto.provider import FastProvider, using_provider

    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    fast = FastProvider()
    env = envelope(fast)
    env.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"envelope": env}, sort_keys=True))
    if not env["comparable"]:
        print("perfbench: AES is not the cryptography library; this run "
              "is not comparable with others", file=sys.stderr)

    with using_provider(fast):
        if args.trace == 0:
            samples = run_trials(cls, args.seed, seconds=args.seconds)
            metrics, lines = end_to_end(samples)
            violations = samples.violations
        else:
            samples, tracer, metrics, lines, violations = traced_run(
                cls, args.seed, TRACE_TRIALS[args.workload], fast)
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans)
            lines.append(f"spans: {len(tracer.start)} written to "
                         f"{spans.relative_to(ROOT)}")

    for line in lines:
        print(line)
    for violation in violations[:50]:
        print(f"VIOLATION {violation}")
    correct = not violations
    print(json.dumps({
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
