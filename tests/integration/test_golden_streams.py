"""Golden digests of the seeded telemetry streams.

Every seeded CLI run exports a JSONL event stream (or, for ``obs
profile``, a JSON phase profile) that must be byte-identical from run
to run and from commit to commit unless a change means to alter
behaviour.  Each case below replays one such run in-process and
compares the sha256 of its export with the committed digest.

The streams are backend-identical (``tests/crypto/test_backend_
determinism.py`` proves this for two of them, and these digests were
recorded under both backends), so the runs are pinned to ``fast`` to
keep the suite quick; without ``cryptography`` installed the fast
backend falls back to the pure AES and the digests still hold.

A digest that changes on purpose is updated here, with the reason in
the change log.  A digest that changes by accident is a behaviour
change somewhere below the CLI: replay the command from the case table
at both commits and diff the two exports to find the first event that
differs.
"""

import contextlib
import hashlib
import io

import pytest

from repro.cli import main
from repro.crypto.provider import using_provider

#: name -> (argv with ``{out}`` for the export path, sha256 of the export)
CASES = {
    "chaos": (
        ["chaos", "--seed", "7", "--telemetry", "{out}"],
        "fe8f82e62efe443f5f93cb50ffd21b923a7bf54835575dd65b2074320fd0184f",
    ),
    "fabric-soak": (
        ["fabric", "soak", "--seed", "7", "--groups", "4", "--shards", "2",
         "--duration", "25", "--telemetry", "{out}"],
        "d876ab52cedf5aa3e29191d7f6728d8207d19d5527bfc257666ee5c655408579",
    ),
    "fabric-migrate": (
        ["fabric", "migrate", "--telemetry", "{out}"],
        "b9545f53fe3e2cf15413e8084cce9fdbfecd8e110dc82a0ad07cd7c5364929bb",
    ),
    "quorum-soak": (
        ["quorum", "soak", "--seed", "7", "--out", "{out}"],
        "8d64186e1847a97f29c044e2e55ac7c34337b88db38cb3cc765f74291fef4b8e",
    ),
    "data-soak": (
        ["data", "soak", "--seed", "7", "--out", "{out}"],
        "205f96c975823329d59adf9baee5e5ab11cf2845c5369b8428644e0a53152fc2",
    ),
    "data-demo": (
        ["data", "demo", "--telemetry", "{out}"],
        "9565c3d84b8bf811d94cec7ff7579a267fb71ff1d5a782a5e87255db34227fac",
    ),
    "overload-soak": (
        ["overload", "soak", "--seed", "7", "--out", "{out}"],
        "07f97745055977a4aac501ef4ded417577cbdebc906135df86b49665c718214b",
    ),
    "obs-trace": (
        ["obs", "trace", "--seed", "7", "--out", "{out}"],
        "12e90f541f2877b50a9d3f363759d91ced24be8f0d15a5b92fd167d2662cbf49",
    ),
    "obs-profile": (
        ["obs", "profile", "--seed", "7", "--out", "{out}"],
        "26321872e095d4a4d64ad99caee086ee7fa7203e35efa697e82eeffb3cf4a0aa",
    ),
    "trace-demo": (
        ["trace", "--scenario", "demo", "--seed", "0", "--out", "{out}"],
        "eb7829019aaf89dc3e1ff43cefcd5ae9e0dd47ed468b17530c3f9dd5738aa97a",
    ),
    "churn": (
        ["churn", "--seed", "1", "--telemetry", "{out}"],
        "fbdae449e9756cae62977163bcd28ce5b988ff086ba4d237afcb1830572fd41b",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_stream_matches_golden_digest(name, tmp_path):
    argv, want = CASES[name]
    out = tmp_path / "export"
    with using_provider("fast"), contextlib.redirect_stdout(io.StringIO()):
        rc = main([arg.format(out=out) for arg in argv])
    assert rc == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == want, (
        f"{name}: the export of `repro {' '.join(argv)}` changed"
    )
