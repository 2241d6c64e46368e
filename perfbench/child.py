"""One benchmark request, run in a fresh interpreter.

    child.py [--trace SUMMARY.json] probe
    child.py [--trace SUMMARY.json] cli ARGS...            # same as `c1atlas ARGS...`
    child.py [--trace SUMMARY.json] api dump FAMILY RANK RING
    child.py [--trace SUMMARY.json] api geodesy SPACE J [SPACE J ...]

``probe`` is the start-up cost every CLI call pays: interpreter, ``import
c1atlas.cli`` and ``default_catalog()``.  ``cli`` runs the console-script
entry point.  The ``api`` requests call the package's exported functions:
``dump`` builds a Chevalley algebra and prints its structure constants, and
``geodesy`` prints the ``is_totally_geodesic`` verdict of the w = 0 orbit of
each (space, j) pair, building each space's algebra once.  With ``--trace``
the layers are wrapped by ``spans.install`` and the span summary is written
to SUMMARY.json when the request ends.  The package is found on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys


def _probe() -> int:
    import c1atlas.cli

    c1atlas.cli.default_catalog()
    return 0


def _cli(args) -> int:
    from c1atlas import cli

    return cli.main(args)


def _dump(family, rank, ring) -> None:
    from c1atlas import chevalley, rootsys

    algebra = chevalley.build_algebra(rootsys.root_system(family, int(rank)), ring)
    rows = chevalley.dump_structure_constants(algebra)
    print(json.dumps(rows, separators=(",", ":")))


def _geodesy(*args) -> None:
    from c1atlas import catalog, chevalley, shapeops
    from c1atlas.scalars import GAUSSIAN, RATIONAL

    entries = catalog.default_catalog()
    algebras = {}
    verdicts = {}
    for name, j in zip(args[::2], args[1::2]):
        space = catalog.find_space(entries, name)
        if name not in algebras:
            ring = RATIONAL if space.split_flag else GAUSSIAN
            algebras[name] = chevalley.build_algebra(space.root_system(), ring)
        orbit = shapeops.OrbitSubalgebra(shapeops.SolvableModel(algebras[name]), int(j))
        verdicts[f"{name} j={j}"] = shapeops.is_totally_geodesic(orbit)
    print(json.dumps(verdicts, indent=1))


_API = {"dump": _dump, "geodesy": _geodesy}


def _run(kind, args, recorder) -> int:
    if kind == "probe":
        return _probe()
    if kind == "cli":
        return _cli(args)
    call = _API[args[0]]
    if recorder is None:
        call(*args[1:])
    else:
        recorder.call("api", call, args[1:], {})
    return 0


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    if trace_path is None:
        return _run(kind, args, None)

    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return _run(kind, args, recorder)
    finally:
        sys.stdout.flush()
        recorder.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
