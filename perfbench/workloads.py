"""Workload domains and the seeded request lists drawn from them.

A workload's domain is the list of requests stored in ``golden/<name>.json``
together with the expected result of each (see ``record.py``).  Every request
carries a stratum; the table ``BATCH`` says how a batch draws from each one:

* ``"all"``      every request of the stratum, in seeded order;
* ``("parts", k)`` the stratum is cut into k parts of nearly equal recorded
  cost and the seed picks one part.

Drawing whole balanced parts rather than independent samples keeps the cost of
a batch nearly the same for every seed, so runs with different seeds measure
the same amount of work.  The seed only chooses and orders requests; the
program under test sees nothing but each request's argv.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# stratum -> "all" | ("parts", k), per workload; the order is the draw order.
BATCH = {
    "sweep": {
        "whole": "all",
        "pair": ("parts", 13),
        "grading": ("parts", 49),
        "roots": ("parts", 39),
        "strings": ("parts", 74),
        "catalog": ("parts", 19),
    },
    "shape": {
        "light": ("parts", 2),
        "heavy": ("parts", 14),
    },
    "algebra": {
        "dump": "all",
        "verify": "all",
        "geodesy": "all",
        "small": ("parts", 3),
    },
}

WORKLOADS = tuple(BATCH)


def load_domain(workload: str) -> list:
    """The recorded requests of a workload, in domain order."""
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def balanced_parts(requests, k: int) -> list:
    """Split requests into k parts of nearly equal total recorded cost.

    Longest-processing-time greedy: the costliest remaining request goes to
    the part with the smallest total so far (lowest index on ties).  The
    result depends only on the ids and recorded costs, never on the seed.
    """
    if not 1 <= k <= len(requests):
        raise ValueError(f"cannot cut {len(requests)} requests into {k} parts")
    parts = [[] for _ in range(k)]
    totals = [0.0] * k
    for req in sorted(requests, key=lambda r: (-r["cost_s"], r["id"])):
        i = min(range(k), key=lambda p: (totals[p], p))
        parts[i].append(req)
        totals[i] += req["cost_s"]
    return parts


def make_batch(workload: str, seed: int, domain=None) -> list:
    """The request list of one batch: same workload and seed, same list."""
    if workload not in BATCH:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if domain is None:
        domain = load_domain(workload)
    rng = random.Random(f"{workload}/{seed}")
    batch = []
    for stratum, rule in BATCH[workload].items():
        members = [r for r in domain if r["stratum"] == stratum]
        if not members:
            raise ValueError(f"{workload}: stratum {stratum!r} is empty")
        if rule == "all":
            batch.extend(members)
        else:
            _, k = rule
            batch.extend(balanced_parts(members, k)[rng.randrange(k)])
    rng.shuffle(batch)
    return batch
