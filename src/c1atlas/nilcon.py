"""Elimination pipeline for nilpotent-construction candidates.

For a space M and a distinguished simple root a_j, any new cohomogeneity-one
action built from a subspace of the level-one part of the maximal grading has
to clear a ladder of combinatorial obstructions:

 * a_j must be attached to exactly one node of the Dynkin diagram;
 * the level-one roots must form a height chain (one root per height);
 * the chain must touch every other simple root, otherwise the candidate is a
   canonical extension from a smaller boundary component;
 * every other simple root needs a chain root of at least twice its
   multiplicity, otherwise only the trivial subspace survives and its orbit is
   totally geodesic (except at the short G2 root, the one genuine survivor);
 * at the short end of the B/BC chains the shape-operator theorem eliminates
   the remaining candidates outright.

Each verdict carries a witness re-checkable from the root system and catalog
alone, and the whole (space, j) sweep is deterministic.
"""

from __future__ import annotations

from .catalog import SpaceEntry
from .errors import IdentityViolation, UnknownConfiguration
from .rootsys import Record, Root, RootSystem

RANK_ONE_KNOWN = "RANK_ONE_KNOWN"
ELIMINATED_CORNER = "ELIMINATED_CORNER"
ELIMINATED_HEIGHT_COLLISION = "ELIMINATED_HEIGHT_COLLISION"
ELIMINATED_MULTIPLICITY = "ELIMINATED_MULTIPLICITY"
ELIMINATED_SHAPE_THEOREM = "ELIMINATED_SHAPE_THEOREM"
W_ZERO_TOTALLY_GEODESIC = "W_ZERO_TOTALLY_GEODESIC"
SURVIVES_W_ZERO_G2 = "SURVIVES_W_ZERO_G2"
# the note each verdict carries, by status
NOTES = {
    RANK_ONE_KNOWN: "rank-one moduli are catalog data, not searched here",
    ELIMINATED_CORNER: "a_j is attached to more than one node; two height-2 level-one roots",
    ELIMINATED_HEIGHT_COLLISION: "two level-one roots of equal height",
    ELIMINATED_MULTIPLICITY: "no chain root reaches twice the multiplicity of a_i; only the "
    "trivial subspace remains and its orbit would be totally geodesic",
    ELIMINATED_SHAPE_THEOREM: "short-end chain with passing multiplicities: the shape-operator "
    "theorem forces a totally geodesic singular orbit",
    W_ZERO_TOTALLY_GEODESIC: "only the trivial subspace remains; its singular orbit, when the "
    "action exists, is totally geodesic",
    SURVIVES_W_ZERO_G2: "trivial subspace at the short G2 root; non-totally-geodesic singular orbit",
}
# the statuses past a snake: each says whether the w = 0 singular orbit bends
SNAKE_STATUSES = frozenset(
    (ELIMINATED_MULTIPLICITY, ELIMINATED_SHAPE_THEOREM, W_ZERO_TOTALLY_GEODESIC, SURVIVES_W_ZERO_G2)
)


class Snake(Record):
    """The height chain in the level-one roots: one root per height 1..m.

    Consecutive roots differ by a simple root; the chain starts at a_j.
    """

    __slots__ = ("j", "roots")

    def _check(self):
        for k, lam in enumerate(self.roots, start=1):
            if lam.height != k:
                raise ValueError("snake heights must be 1, 2, ... in order")

    @property
    def top(self) -> Root:
        return self.roots[-1]


def snake_check(rs: RootSystem, j: int):
    """Return the Snake of the level-one roots, or a colliding same-height pair."""
    by_height: dict = {}
    for lam in rs.maximal_grading(j).level(1):
        by_height.setdefault(lam.height, []).append(lam)
    for h in sorted(by_height):
        if len(by_height[h]) > 1:
            first, second = sorted(by_height[h])[:2]
            return (first, second)
    heights = sorted(by_height)
    if heights != list(range(1, len(heights) + 1)):
        raise IdentityViolation("level-one heights have a gap")
    chain = tuple(by_height[h][0] for h in heights)
    for a, b in zip(chain, chain[1:]):
        step = tuple(y - x for x, y in zip(a.coeffs, b.coeffs))
        if sum(step) != 1 or any(c < 0 for c in step):
            raise IdentityViolation("snake step is not simple")
    return Snake(j=j, roots=chain)


def ce_reduction_check(rs: RootSystem, snake: Snake) -> frozenset:
    """Simple roots off a_j that the snake never touches.

    A nonempty result means every candidate built on this snake already arises
    as a canonical extension from the boundary component that omits those
    roots, so nothing new can come from it.
    """
    untouched = []
    for i in range(1, rs.rank + 1):
        if i == snake.j:
            continue
        if all(lam.coefficient(i) == 0 for lam in snake.roots):
            untouched.append(i)
    return frozenset(untouched)


def multiplicity_check(space: SpaceEntry, snake: Snake) -> int | None:
    """Violating simple index for the doubling bound, or None when all pass.

    A nonzero candidate subspace forces, for every other simple root a_i, some
    chain root of multiplicity at least 2 * mult(a_i).  Among violators the
    witness is the index of largest multiplicity (ties toward the larger
    index), which is the short end for the B/BC chains.
    """
    rs = space.root_system()
    chain_mults = [space.mult_of(lam) for lam in snake.roots]
    best = max(chain_mults)
    violators = [
        i
        for i in range(1, rs.rank + 1)
        if i != snake.j and best < 2 * space.simple_mult(i)
    ]
    if not violators:
        return None
    return max(violators, key=lambda i: (space.simple_mult(i), i))


class NCVerdict(Record):
    """Decision for one (space, distinguished root) pair, with its witness dict."""

    __slots__ = ("space", "j", "status", "witness", "note")
    _defaults = {"witness": {}, "note": ""}


def short_g2_root(space: SpaceEntry) -> int | None:
    """Index of the short simple root of a G2-type space; None for other types."""
    if space.rtype.family != "G2":
        return None
    rs = space.root_system()
    return min((1, 2), key=lambda i: rs.length6(rs.simple(i)))


def _ladder(space: SpaceEntry, j: int):
    """(status, witness) from the first rung of the ladder that fires for (space, a_j)."""
    rs = space.root_system()
    snake = snake_check(rs, j)  # rejects j outside 1..rank
    if rs.rank == 1:
        recognised = space.rank_one(1)
        return RANK_ONE_KNOWN, {"recognized": str(recognised) if recognised else None}
    neighbors = rs.dynkin_neighbors(j)
    if len(neighbors) != 1:
        return ELIMINATED_CORNER, {"neighbors": sorted(neighbors)}
    if isinstance(snake, tuple):
        first, second = snake
        return ELIMINATED_HEIGHT_COLLISION, {
            "pair": [list(first.coeffs), list(second.coeffs)],
            "height": first.height,
        }
    untouched = ce_reduction_check(rs, snake)
    if untouched:
        raise UnknownConfiguration(
            f"{space.name}, j={j}: snake misses simple roots {sorted(untouched)} on a "
            "connected diagram; this must not happen"
        )
    chain = [list(r.coeffs) for r in snake.roots]
    violator = multiplicity_check(space, snake)
    if violator is not None:
        if j == short_g2_root(space):
            return SURVIVES_W_ZERO_G2, {"snake": chain, "w": "zero"}
        if space.rtype.family == "G2":
            return W_ZERO_TOTALLY_GEODESIC, {"index": violator, "snake": chain}
        return ELIMINATED_MULTIPLICITY, {
            "index": violator,
            "required": 2 * space.simple_mult(violator),
            "max_chain_mult": max(space.mult_of(r) for r in snake.roots),
        }
    if space.rtype.family in ("B", "BC") and j == rs.rank:
        return ELIMINATED_SHAPE_THEOREM, {"snake": chain}
    raise UnknownConfiguration(
        f"{space.name}, j={j}: multiplicity bound passes outside the short B/BC end"
    )


def analyze(space: SpaceEntry, j: int) -> NCVerdict:
    """Run the full elimination ladder for (space, a_j)."""
    status, witness = _ladder(space, j)
    return NCVerdict(space.name, j, status, witness=witness, note=NOTES[status])


def analyze_all(catalog) -> list:
    """Deterministic sweep of every (space, j) pair in the catalog."""
    out = []
    for space in sorted(catalog, key=lambda s: s.name):
        for j in range(1, space.rank + 1):
            out.append(analyze(space, j))
    return out


def survivors(verdicts) -> list:
    return [v for v in verdicts if v.status == SURVIVES_W_ZERO_G2]


def verify_witness(space: SpaceEntry, verdict: NCVerdict) -> bool:
    """Re-check a verdict from the root system and catalog alone.

    The rung helpers walk the ladder again, without ``analyze``: every rung
    before the verdict's status must pass and its own must fire.  The whole
    witness dict, in key order, the note and the space name must then match.
    The witness is only compared, so a malformed one gives False.
    """
    rs = space.root_system()
    status, j = verdict.status, verdict.j
    if verdict.space != space.name or verdict.note != NOTES.get(status) or j not in range(1, rs.rank + 1):
        return False
    if rs.rank == 1:
        recognised = space.rank_one(1)
        return status == RANK_ONE_KNOWN and _same(verdict, recognized=str(recognised) if recognised else None)
    neighbors = rs.dynkin_neighbors(j)
    if status == ELIMINATED_CORNER or len(neighbors) != 1:
        return status == ELIMINATED_CORNER and len(neighbors) != 1 and _same(verdict, neighbors=sorted(neighbors))
    snake = snake_check(rs, j)
    if status == ELIMINATED_HEIGHT_COLLISION or isinstance(snake, tuple):
        return (
            status == ELIMINATED_HEIGHT_COLLISION
            and isinstance(snake, tuple)
            and _same(verdict, pair=[list(r.coeffs) for r in snake], height=snake[0].height)
        )
    if ce_reduction_check(rs, snake):
        return False
    chain = [list(r.coeffs) for r in snake.roots]
    violator = multiplicity_check(space, snake)
    if violator is None:
        return (
            status == ELIMINATED_SHAPE_THEOREM
            and space.rtype.family in ("B", "BC")
            and j == rs.rank
            and _same(verdict, snake=chain)
        )
    short = short_g2_root(space)
    if status == SURVIVES_W_ZERO_G2:
        return j == short and _same(verdict, snake=chain, w="zero")
    if status == W_ZERO_TOTALLY_GEODESIC:
        return short not in (None, j) and _same(verdict, index=violator, snake=chain)
    return (
        status == ELIMINATED_MULTIPLICITY
        and short is None
        and _same(
            verdict,
            index=violator,
            required=2 * space.simple_mult(violator),
            max_chain_mult=max(space.mult_of(r) for r in snake.roots),
        )
    )


def _same(verdict: NCVerdict, **expected) -> bool:
    """Whether the verdict's witness is exactly ``expected``, key order included."""
    w = verdict.witness
    return isinstance(w, dict) and list(w.items()) == list(expected.items())


def verdict_table(verdicts) -> str:
    """Aligned, locale-independent text table of a verdict sweep."""
    headers = ("space", "j", "status", "witness")
    rows = [
        (v.space, str(v.j), v.status, _witness_summary(v))
        for v in verdicts
    ]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(4)
    ]
    lines = [
        "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)),
        "  ".join("-" * widths[c] for c in range(4)),
    ]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(4)))
    return "\n".join(lines)


def _witness_summary(v: NCVerdict) -> str:
    w = v.witness
    if v.status == ELIMINATED_CORNER:
        return "neighbors " + ",".join(map(str, w["neighbors"]))
    if v.status == ELIMINATED_HEIGHT_COLLISION:
        first, second = (Root(tuple(c)) for c in w["pair"])
        return f"{first} vs {second}"
    if v.status == ELIMINATED_MULTIPLICITY:
        return f"a{w['index']}: need {w['required']}, max {w['max_chain_mult']}"
    if v.status == RANK_ONE_KNOWN:
        return w.get("recognized") or "-"
    if v.status in (SURVIVES_W_ZERO_G2, W_ZERO_TOTALLY_GEODESIC):
        return "w = 0"
    return "chain ok"
