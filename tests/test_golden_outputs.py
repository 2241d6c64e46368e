"""Every request the benchmark records, replayed in process against its golden result.

``perfbench/golden/{sweep,shape,algebra}.json`` hold each benchmark request's
argv and its expected exit code and stdout.  A ``cli`` request runs through
``c1atlas.cli.main`` and an ``api`` request through the benchmark child's
``_run``, with the shipped catalog, as the benchmark's children run them; the
benchmark's own ``check_output`` judges each result.  So any change to an
output the benchmark checks fails here, before the benchmark runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from c1atlas import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402  (perfbench/child.py)
import run  # noqa: E402  (perfbench/run.py)

REQUEST_COUNTS = {"sweep": 490, "shape": 63, "algebra": 46}


def _replay(argv) -> tuple:
    """(exit code, stdout bytes) of one request, run in this process."""
    kind, args = argv[0], argv[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(args) if kind == "cli" else child._run(kind, args, None)
    return rc, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("workload", sorted(REQUEST_COUNTS))
def test_golden_requests_replay_exactly(workload, monkeypatch):
    monkeypatch.delenv("C1_ATLAS_CATALOG", raising=False)  # always the shipped catalog
    requests = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())["requests"]
    assert len(requests) == REQUEST_COUNTS[workload]
    mismatches = []
    for request in requests:
        reason = run.check_output(request["expect"], *_replay(request["argv"]))
        if reason is not None:
            mismatches.append(f"{request['id']}: {reason}")
    assert not mismatches, f"{len(mismatches)} of {len(requests)} differ: {mismatches[:5]}"
