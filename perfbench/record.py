"""Record the workload domains and their golden outputs.

    python3 perfbench/record.py [--workload sweep|shape|algebra ...] [--passes N]

Enumerates every request of each workload's domain, runs it through the same
child process the benchmark uses, and writes ``golden/<workload>.json``:
per request its id, stratum, argv, recorded wall time ``cost_s`` (the median
over ``--passes`` passes, used only to cut strata into parts of equal cost)
and the expected result:

* the exit code and the sha256 of stdout, for every CLI and ``dump`` request;
* exit 0 and the final line ``verify: OK`` for ``verify --full``;
* the expected verdict of every ``geodesy`` pair, stated here independently:
  the w = 0 orbit is totally geodesic except at the short simple root of G2.

A request that exits non-zero, prints different output on another pass, or
gives a verdict other than the stated one stops the recording.  Re-record only when
outputs are meant to change; the files are also the byte-identical reference
for refactors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
import statistics
import sys
import time

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from c1atlas import analyze_all, default_catalog  # noqa: E402

FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
CLASSICAL = [("A", 1), ("B", 2), ("C", 3), ("D", 4), ("BC", 1)]  # family, smallest rank
MAX_RANK = 8
SMALL_MAX_RANK = 6  # small-rank algebra dumps give the algebra batch's median enough samples
SNAKE_STATUSES = {
    "ELIMINATED_MULTIPLICITY",
    "ELIMINATED_SHAPE_THEOREM",
    "W_ZERO_TOTALLY_GEODESIC",
    "SURVIVES_W_ZERO_G2",
}


def _types():
    out = [(fam, rank, ["--type", fam]) for fam, rank in FIXED_RANK.items()]
    for fam, low in CLASSICAL:
        out += [(fam, r, ["--type", fam, "--rank", str(r)]) for r in range(low, MAX_RANK + 1)]
    return out


def _unit(rank, i):
    return ",".join(str(int(k == i)) for k in range(rank))


def sweep_domain(catalog):
    reqs = [
        ("whole", ["cli", "analyze", "--all", "--format", "json"]),
        ("whole", ["cli", "classify", "--all", "--format", "json"]),
    ]
    for space in catalog:
        for j in range(1, space.rank + 1):
            reqs.append(("pair", ["cli", "analyze", "--space", space.name, "--j", str(j), "--format", "json"]))
    for _, rank, typ in _types():
        for j in range(1, rank + 1):
            reqs.append(("grading", ["cli", "grading", *typ, "--j", str(j), "--format", "json"]))
    for _, rank, typ in _types():
        reqs.append(("roots", ["cli", "roots", *typ, "--format", "json"]))
    for _, rank, typ in _types():
        if rank < 2:
            continue
        reqs.append(("strings", ["cli", "strings", *typ, "--root", _unit(rank, 0), "--beta", _unit(rank, 1), "--format", "json"]))
        phi = ",".join(str(i) for i in range(2, rank + 1))
        reqs.append(("strings", ["cli", "strings", *typ, "--root", _unit(rank, 0), "--phi", phi, "--format", "json"]))
    reqs.append(("catalog", ["cli", "catalog", "--format", "json"]))
    for fam in ["A", "B", "C", "D", "BC", *FIXED_RANK]:
        reqs.append(("catalog", ["cli", "catalog", "--family", fam, "--format", "json"]))
    for k in range(1, MAX_RANK + 1):
        reqs.append(("catalog", ["cli", "catalog", "--min-rank", str(k), "--format", "json"]))
    return reqs


def _n_real_dim(space):
    """Real dimension of the nilpotent part n of the exact model."""
    return len(space.root_system().positives) * (2 if space.complexified_flag else 1)


def shape_domain(catalog):
    reqs = []
    for space in catalog:
        exact = space.split_flag or space.complexified_flag
        if not exact or space.rank < 2 or space.rtype.family in ("E6", "E7", "E8"):
            continue
        if space.rtype.family == "F4" and space.complexified_flag:
            continue  # F4(C): over 40 s per pair, left out
        stratum = "light" if _n_real_dim(space) <= 12 else "heavy"
        for j in range(1, space.rank + 1):
            reqs.append((stratum, ["cli", "shape", "--space", space.name, "--j", str(j), "--format", "json"]))
    return reqs


def geodesy_pairs(catalog):
    """The snake-bearing split/complexified pairs, plus E6^6 at j = 1."""
    exact = {s.name: s for s in catalog if s.split_flag or s.complexified_flag}
    pairs = [(v.space, v.j) for v in analyze_all(catalog) if v.space in exact and v.status in SNAKE_STATUSES]
    pairs.append(("E6^6/Sp(4)", 1))
    return pairs, exact


def expected_geodesy(catalog):
    pairs, exact = geodesy_pairs(catalog)
    verdicts = {}
    for name, j in pairs:
        space = exact[name]
        rs = space.root_system()
        short_g2 = space.rtype.family == "G2" and rs.length_sq(rs.simple(j)) < rs.length_sq(rs.simple(3 - j))
        verdicts[f"{name} j={j}"] = not short_g2
    return pairs, verdicts


SMALL_ALGEBRAS = [("G2", 2), ("F4", 4)] + [
    (fam, r) for fam, low in CLASSICAL if fam != "BC" for r in range(low, SMALL_MAX_RANK + 1)
]


def algebra_domain(catalog):
    reqs = [
        ("dump", ["api", "dump", "E6", "6", "rational"]),
        ("dump", ["api", "dump", "E7", "7", "rational"]),
        ("dump", ["api", "dump", "E8", "8", "rational"]),
        ("dump", ["api", "dump", "E6", "6", "gaussian"]),
        ("verify", ["cli", "verify", "--full"]),
    ]
    for ring in ("rational", "gaussian"):
        reqs += [("small", ["api", "dump", fam, str(r), ring]) for fam, r in SMALL_ALGEBRAS]
    pairs, _ = geodesy_pairs(catalog)
    reqs.append(("geodesy", ["api", "geodesy", *(x for name, j in pairs for x in (name, str(j)))]))
    return reqs


DOMAINS = {"sweep": sweep_domain, "shape": shape_domain, "algebra": algebra_domain}


def record(workload, catalog, passes=1):
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    _, verdicts = expected_geodesy(catalog)
    domain = DOMAINS[workload](catalog)
    walls = [[] for _ in domain]
    outputs = [None] * len(domain)
    # Whole passes over the domain, so that a slow spell of the machine
    # touches one sample of many requests rather than every sample of one.
    for _ in range(passes):
        for i, (stratum, argv) in enumerate(domain):
            rc, stdout, wall = run.run_child(run.child_argv({"argv": argv}), env, time.monotonic() + 600)
            if rc != 0:
                raise SystemExit(f"{shlex.join(argv)} exited {rc}: {(run.OUT / 'stderr.txt').read_text()[-2000:]}")
            if outputs[i] is not None and stdout != outputs[i]:
                raise SystemExit(f"{shlex.join(argv)}: stdout differs between passes")
            outputs[i] = stdout
            walls[i].append(wall)
            print(f"{wall:8.3f}s  {stratum:8s} {shlex.join(argv)[:100]}", flush=True)
    out = []
    for (stratum, argv), stdout, times in zip(domain, outputs, walls):
        if argv[:2] == ["cli", "verify"]:
            expect = {"rc": 0, "last_line": "verify: OK"}
        elif argv[:2] == ["api", "geodesy"]:
            expect = {"rc": 0, "json": verdicts}
        else:
            expect = {"rc": 0, "sha256": hashlib.sha256(stdout).hexdigest()}
        reason = run.check_output(expect, 0, stdout)
        if reason:
            raise SystemExit(f"{shlex.join(argv)}: {reason}")
        rid = shlex.join(argv[1:]) if argv[0] == "cli" else shlex.join(argv)
        cost = round(statistics.median(times), 3)
        out.append({"id": rid, "stratum": stratum, "argv": argv, "cost_s": cost, "expect": expect})
    path = workloads.GOLDEN_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "requests": out}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--passes", type=int, default=1, help="runs of each request; cost_s is their median")
    args = parser.parse_args(argv)
    catalog = default_catalog()
    for workload in args.workload or workloads.WORKLOADS:
        record(workload, catalog, args.passes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
