"""Exact combinatorics of reduced and non-reduced root systems.

Roots are integer coefficient vectors over a fixed simple system a1..ar.  All
inner products are exact rationals with long roots normalised to squared
length 2 (the BC families keep the squared-length ladder 1, 2, 4 for the
classes e_i, e_i +- e_j, 2e_i).  Every squared length lies in {2/3, 1, 2, 4},
so six times the Gram matrix is integral: inner products, squared lengths
and Cartan pairings are computed on Python ints, and the first two are
returned as exact Fractions.  Positive roots are generated by string closure
from the Cartan matrix; the BC families are the corresponding B closure with
the doubled short roots appended.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import IdentityViolation, InvalidIndex, InvalidRank, NotARoot, ProportionalRoots

FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "BC")
FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
# Largest admissible rank.  Every space in the catalog has rank <= 8; the cap
# bounds the work a single request can ask for (B20 has 400 positive roots).
MAX_RANK = 20


class Record:
    """An immutable value record, built without generated code.

    A subclass names its fields in ``__slots__``, in constructor order, and
    may give defaults in ``_defaults``; a dict default is copied, so each
    instance owns its own.  The constructor takes fields by position or by
    keyword, stores them with ``object.__setattr__`` and then runs the
    ``_check`` hook.  Assignment and deletion raise AttributeError, and
    equality, hashing and repr go by the field values in field order:
    ``Root(coeffs=(1, 0))``.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes at most {len(names)} fields")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{type(self).__name__}() got two values for {name!r}")
            kwargs[name] = value
        for name in names:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                if type(value) is dict:
                    value = dict(value)
            else:
                raise TypeError(f"{type(self).__name__}() is missing the field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() has no field {next(iter(kwargs))!r}")
        self._check()

    def _check(self):
        """Validate the fields once they are set; a subclass raises on bad values."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def to_json(self) -> dict:
        """The fields by name, in field order; the values are stored as they are."""
        return {name: getattr(self, name) for name in self.__slots__}


class RootSystemType(Record):
    """A family letter plus a rank, e.g. ('BC', 2)."""

    __slots__ = ("family", "rank")

    def _check(self):
        if self.family not in FAMILIES:
            raise InvalidRank(f"unknown family {self.family!r}")
        r = self.rank
        if r > MAX_RANK:
            raise InvalidRank(f"rank {r} exceeds the cap of {MAX_RANK}")
        if self.family in FIXED_RANK:
            if r != FIXED_RANK[self.family]:
                raise InvalidRank(f"{self.family} has fixed rank {FIXED_RANK[self.family]}")
        elif self.family == "A" and r < 1:
            raise InvalidRank("A_r needs r >= 1")
        elif self.family == "B" and r < 2:
            raise InvalidRank("B_r needs r >= 2 (B2 is the canonical form of C2)")
        elif self.family == "C" and r < 3:
            raise InvalidRank("C_r needs r >= 3 (C2 is canonicalised to B2)")
        elif self.family == "D" and r < 4:
            raise InvalidRank("D_r needs r >= 4")
        elif self.family == "BC" and r < 1:
            raise InvalidRank("BC_r needs r >= 1")

    def __str__(self):
        if self.family in FIXED_RANK:
            return self.family
        return f"{self.family}{self.rank}"


def root_order(coeffs: tuple) -> tuple:
    """Sort key of the canonical root order: by height, then by coefficients."""
    return (sum(coeffs), coeffs)


@functools.total_ordering
class Root(Record):
    """Integer coefficient vector over the simple roots a1..ar.

    Roots are built in hot loops, so the constructor, equality and hash are
    written out for the one field.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        if coeffs and min(coeffs) < 0 < max(coeffs):
            raise ValueError(f"mixed-sign coefficient vector {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    def coefficient(self, i: int) -> int:
        """Coefficient n_i of the simple root a_i (1-based)."""
        return self.coeffs[i - 1]

    @property
    def support(self) -> frozenset:
        return frozenset(i + 1 for i, n in enumerate(self.coeffs) if n != 0)

    def __neg__(self) -> "Root":
        return Root(tuple(-n for n in self.coeffs))

    def shifted(self, other: "Root", k: int = 1) -> tuple:
        """Coefficient vector of self + k*other (may not be a root)."""
        return tuple(a + k * b for a, b in zip(self.coeffs, other.coeffs))

    def _key(self):
        return root_order(self.coeffs)

    def __lt__(self, other):
        return self._key() < other._key()

    def __str__(self):
        if all(n == 0 for n in self.coeffs):
            return "0"
        parts = []
        for i, n in enumerate(self.coeffs, start=1):
            if n == 0:
                continue
            if n == 1:
                term = f"a{i}"
            elif n == -1:
                term = f"-a{i}"
            else:
                term = f"{n}a{i}"
            if parts and n > 0:
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)


def _chain_edges(r):
    return [(i, i + 1) for i in range(1, r)]


def _family_diagram(family: str, rank: int):
    """Return (edges, cartan_overrides, six times the squared lengths) for the family."""
    if family == "A":
        return _chain_edges(rank), {}, [12] * rank
    if family in ("B", "BC"):
        if rank == 1:
            return [], {}, [6]
        d = [12] * (rank - 1) + [6]
        ov = {(rank - 1, rank): -2, (rank, rank - 1): -1}
        return _chain_edges(rank), ov, d
    if family == "C":
        d = [6] * (rank - 1) + [12]
        ov = {(rank - 1, rank): -1, (rank, rank - 1): -2}
        return _chain_edges(rank), ov, d
    if family == "D":
        edges = _chain_edges(rank - 1) + [(rank - 2, rank)]
        return edges, {}, [12] * rank
    if family in ("E6", "E7", "E8"):
        edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
        if family in ("E7", "E8"):
            edges.append((6, 7))
        if family == "E8":
            edges.append((7, 8))
        return edges, {}, [12] * rank
    if family == "F4":
        ov = {(2, 3): -2, (3, 2): -1}
        return _chain_edges(4), ov, [12, 12, 6, 6]
    if family == "G2":
        # a2 is the short simple root.
        ov = {(1, 2): -3, (2, 1): -1}
        return [(1, 2)], ov, [12, 4]
    raise InvalidRank(f"unknown family {family!r}")


class RootSystem:
    """A finite root system with exact pairing data.

    All public indices of simple roots are 1-based.  ``positives`` is sorted
    by ``root_order`` (height, then lexicographic coefficients), the canonical
    order used everywhere downstream.
    """

    def __init__(self, rtype: RootSystemType):
        self.rtype = rtype
        r = rtype.rank
        base_family = "B" if rtype.family == "BC" else rtype.family
        edges, overrides, d6 = _family_diagram(rtype.family, r)
        cartan = [[0] * r for _ in range(r)]
        for i in range(r):
            cartan[i][i] = 2
        for (i, j) in edges:
            cartan[i - 1][j - 1] = overrides.get((i, j), -1)
            cartan[j - 1][i - 1] = overrides.get((j, i), -1)
        self.cartan = tuple(tuple(row) for row in cartan)
        # six times (a_i, a_j) = cartan[i][j] * 6 (a_j, a_j) / 2
        twice = [[cartan[i][j] * d6[j] for j in range(r)] for i in range(r)]
        if any(twice[i][j] != twice[j][i] for i in range(r) for j in range(i + 1, r)):
            raise IdentityViolation(f"Cartan data of {rtype} is not symmetrizable")
        gram6 = [[divmod(t, 2) for t in row] for row in twice]
        if any(rem for row in gram6 for _, rem in row):
            raise IdentityViolation(f"six times the Gram matrix of {rtype} is not integral")
        self._gram6 = tuple(tuple(g for g, _ in row) for row in gram6)
        self.gram = tuple(tuple(Fraction(g, 6) for g in row) for row in self._gram6)
        self.non_reduced = rtype.family == "BC"

        # Six times the squared length of every root; a non-root vector's is
        # computed on demand.
        len6 = self._generate_positives()
        if self.non_reduced:
            for coeffs, n in list(len6.items()):
                if n == 6:  # squared length 1: the short roots e_i, doubled to 2e_i
                    len6[tuple(2 * c for c in coeffs)] = 4 * n
        ordered = sorted(len6, key=root_order)
        self.positives = tuple(Root(c) for c in ordered)
        self._posset = frozenset(ordered)
        negatives = {tuple(-c for c in coeffs): n for coeffs, n in len6.items()}
        self._allset = self._posset | frozenset(negatives)
        len6.update(negatives)
        self._root_len6 = len6

    # -- generation -------------------------------------------------------
    def _generate_positives(self) -> dict:
        """Six times the squared length of every positive root of the reduced closure.

        Roots are grown from the simple roots by the string criterion: lam + a_i
        is a root iff p - <lam, a_i-dual> > 0, with p the depth of the a_i-string
        below lam.  Each root carries six times its inner products with the
        simple roots, so a pairing is one integer division and both the
        products and the six-fold length are carried to lam + a_i.
        """
        r = self.rtype.rank
        gram6 = self._gram6
        diag = [gram6[i][i] for i in range(r)]
        simples = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        # coefficient tuple -> (six times (lam, a_1..a_r), six times (lam, lam))
        data = {s: (gram6[i], diag[i]) for i, s in enumerate(simples)}
        frontier = simples
        while frontier:
            new = []
            for lam in frontier:
                inner6, len6 = data[lam]
                for i in range(r):
                    head, ci, tail = lam[:i], lam[i], lam[i + 1 :]
                    cand = head + (ci + 1,) + tail
                    if cand in data:
                        continue
                    pairing, rem = divmod(2 * inner6[i], diag[i])
                    if rem:
                        raise IdentityViolation(
                            f"non-integral Cartan pairing of {Root(lam)} with {Root(simples[i])}"
                        )
                    p = 0
                    while p < ci and head + (ci - p - 1,) + tail in data:
                        p += 1
                    if p > pairing:
                        data[cand] = (
                            tuple(map(operator.add, inner6, gram6[i])),
                            len6 + 2 * inner6[i] + diag[i],
                        )
                        new.append(cand)
            frontier = new
        return {lam: len6 for lam, (_, len6) in data.items()}

    # -- exact pairing ------------------------------------------------------
    def _inner6(self, lam_coeffs, mu_coeffs) -> int:
        """Six times (lam, mu), on integer coefficient vectors."""
        total = 0
        for a, row in zip(lam_coeffs, self._gram6):
            if a:
                total += a * sum(map(operator.mul, mu_coeffs, row))
        return total

    def _length6(self, coeffs) -> int:
        """Six times the squared length: stored for roots, computed for any other vector."""
        n = self._root_len6.get(coeffs)
        return self._inner6(coeffs, coeffs) if n is None else n

    def _vector(self, lam: Root) -> tuple:
        """lam's coefficients; NotARoot unless there is one per simple root."""
        if len(lam.coeffs) != self.rank:
            raise NotARoot(
                f"coefficient vector {lam.coeffs} has {len(lam.coeffs)} entries, "
                f"not one per simple root of {self.rtype}"
            )
        return lam.coeffs

    def inner(self, lam: Root, mu: Root) -> Fraction:
        return Fraction(self._inner6(self._vector(lam), self._vector(mu)), 6)

    def length_sq(self, lam: Root) -> Fraction:
        return Fraction(self._length6(self._vector(lam)), 6)

    def _pairing_coeffs(self, lam_coeffs, mu_coeffs) -> int:
        val, rem = divmod(2 * self._inner6(lam_coeffs, mu_coeffs), self._length6(mu_coeffs))
        if rem:
            raise IdentityViolation(
                f"non-integral Cartan pairing of {Root(lam_coeffs)} with {Root(mu_coeffs)}"
            )
        return val

    def pairing(self, lam: Root, mu: Root) -> int:
        """Cartan integer 2 (lam, mu) / (mu, mu)."""
        return self._pairing_coeffs(self._vector(lam), self._vector(mu))

    # -- membership ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.rtype.rank

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise InvalidIndex(f"simple index {i} is outside 1..{self.rank}")

    def simple(self, i: int) -> Root:
        """The simple root a_i; InvalidIndex unless 1 <= i <= rank."""
        self._check_index(i)
        return Root(tuple(int(j == i - 1) for j in range(self.rank)))

    @property
    def simples(self):
        return tuple(self.simple(i) for i in range(1, self.rank + 1))

    def contains(self, coeffs: Root | tuple) -> bool:
        if isinstance(coeffs, Root):
            coeffs = coeffs.coeffs
        return coeffs in self._allset

    # -- strings --------------------------------------------------------------
    def _check_string_ends(self, lam: Root, beta: Root) -> None:
        """NotARoot unless lam and beta are roots; ProportionalRoots if they are proportional."""
        if not (self.contains(lam) and self.contains(beta)):
            raise NotARoot("string endpoints must be roots")
        a, b = lam.coeffs, beta.coeffs
        if all(a[i] * b[j] == a[j] * b[i] for i in range(self.rank) for j in range(i + 1, self.rank)):
            raise ProportionalRoots(f"{lam} and {beta} are proportional")

    def root_string(self, lam: Root, beta: Root):
        """The upward beta-string [lam, lam+beta, ..., lam+q*beta] inside the system."""
        self._check_string_ends(lam, beta)
        out = [lam]
        k = 1
        while lam.shifted(beta, k) in self._allset:
            out.append(Root(lam.shifted(beta, k)))
            k += 1
        return out

    def string_down_count(self, lam: Root, beta: Root) -> int:
        """Largest p with lam - p*beta still a root (the classical string depth)."""
        self._check_string_ends(lam, beta)
        p = 0
        while lam.shifted(beta, -(p + 1)) in self._allset:
            p += 1
        return p

    def phi_string(self, lam: Root, phi: Iterable[int]):
        """All of Sigma u {0} congruent to lam modulo the span of {a_i : i in phi}."""
        lam_coeffs = self._vector(lam)
        phi = self._simple_subset(phi)
        fixed = [i for i in range(self.rank) if (i + 1) not in phi]
        out = set()
        zero = (0,) * self.rank
        for coeffs in self._allset | {zero}:
            if all(coeffs[i] == lam_coeffs[i] for i in fixed):
                out.add(Root(coeffs))
        return out

    # -- parabolic grading ------------------------------------------------------
    def _simple_subset(self, phi: Iterable[int]) -> frozenset:
        """phi as a frozenset; InvalidIndex unless every index lies in 1..rank."""
        phi = frozenset(phi)
        if not phi <= set(range(1, self.rank + 1)):
            raise InvalidIndex(f"phi {sorted(phi)} is not a set of simple indices 1..{self.rank}")
        return phi

    def grading(self, phi: Iterable[int]) -> "ParabolicGrading":
        phi = self._simple_subset(phi)
        levels: dict = {}
        sigma = []
        for lam in self.positives:
            nu = sum(lam.coeffs[i - 1] for i in range(1, self.rank + 1) if i not in phi)
            if nu == 0:
                sigma.append(lam)
            else:
                levels.setdefault(nu, []).append(lam)
        return ParabolicGrading(
            base=self,
            phi=phi,
            levels={nu: tuple(sorted(rs)) for nu, rs in levels.items()},
            sigma_phi_pos=tuple(sorted(sigma)),
        )

    def maximal_grading(self, j: int) -> "ParabolicGrading":
        """The grading off every simple root but a_j; j must lie in 1..rank."""
        if not 1 <= j <= self.rank:
            raise InvalidIndex(f"j = {j} is out of range for rank {self.rank}")
        return self.grading(frozenset(range(1, self.rank + 1)) - {j})

    # -- diagram ----------------------------------------------------------------
    def dynkin_neighbors(self, i: int) -> frozenset:
        """The nodes joined to node i; InvalidIndex unless 1 <= i <= rank."""
        self._check_index(i)
        return frozenset(
            j + 1
            for j in range(self.rank)
            if j != i - 1 and self.cartan[i - 1][j] != 0
        )

    def components(self, nodes: Iterable[int]) -> list:
        """Connected components of the Dynkin subdiagram on nodes.

        Each component is a sorted tuple; components come in order of their
        least node.
        """
        remaining = set(nodes)
        comps = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                for j in self.dynkin_neighbors(frontier.pop()):
                    if j in remaining and j not in comp:
                        comp.add(j)
                        frontier.append(j)
            remaining -= comp
            comps.append(tuple(sorted(comp)))
        return comps

    def subsystem_type(self, nodes: Iterable[int]) -> RootSystemType:
        """Type of the subsystem generated by a connected set of simple roots.

        A connected root system is fixed by its rank and its number of positive
        roots of each squared length (Bourbaki, Ch. VI, Plates I-IX), so this is
        the first type of that rank, in FAMILIES order, whose generated system
        has the same counts from short to long.  Nodes outside 1..rank raise
        InvalidIndex; a node set no system matches (a disconnected one) raises
        IdentityViolation.
        """
        nodes = self._simple_subset(nodes)
        off = [i for i in range(self.rank) if i + 1 not in nodes]
        sizes = Counter(self._root_len6[c] for c in self._posset if not any(c[i] for i in off))
        return _type_with_counts(len(nodes), tuple(sizes[n] for n in sorted(sizes)))

    def weighted_diagram_automorphisms(self, mult: Mapping[int, object] | None = None):
        """All index permutations preserving the Cartan matrix and the weights.

        ``mult`` maps 1-based simple indices to arbitrary comparable weights
        (restricted-root multiplicities in practice); None means unweighted.
        Returned as sorted tuples sigma with sigma[i-1] = image of i.
        """
        r = self.rank
        cartan = self.cartan
        weights = [None if mult is None else mult[i] for i in range(1, r + 1)]
        results = []
        image = [0] * r

        def extend(i):
            if i == r:
                results.append(tuple(image))
                return
            used = set(image[:i])
            for cand in range(1, r + 1):
                if cand in used:
                    continue
                if weights[i] != weights[cand - 1]:
                    continue
                if cartan[i][i] != cartan[cand - 1][cand - 1]:
                    continue
                ok = True
                for j in range(i):
                    if (
                        cartan[i][j] != cartan[cand - 1][image[j] - 1]
                        or cartan[j][i] != cartan[image[j] - 1][cand - 1]
                    ):
                        ok = False
                        break
                if ok:
                    image[i] = cand
                    extend(i + 1)
                    image[i] = 0

        extend(0)
        return tuple(sorted(results))

    def __repr__(self):
        return f"RootSystem({self.rtype}, {len(self.positives)} positive roots)"


class ParabolicGrading(Record):
    """Level decomposition of the positive roots off a simple subset phi.

    ``base`` is the RootSystem and ``phi`` a frozenset of simple indices.
    ``levels[nu]`` holds the positive roots whose coefficient sum over the
    complement of phi equals nu; ``sigma_phi_pos`` is the level-zero subsystem's
    positive part.
    """

    __slots__ = ("base", "phi", "levels", "sigma_phi_pos")

    def level(self, nu: int) -> tuple:
        """The roots of level nu: level 0 is ``sigma_phi_pos``, and a negative
        level holds the negatives of the roots of level -nu, in their order."""
        if nu == 0:
            return self.sigma_phi_pos
        if nu < 0:
            return tuple(-lam for lam in self.levels.get(-nu, ()))
        return self.levels.get(nu, ())


def length_class_counts(family: str, rank: int) -> dict:
    """Number of positive roots of each squared length of a type, in closed form.

    Keyed by the exact squared length, long roots at 2 as in ``RootSystem``
    (Bourbaki, Ch. VI, Plates I-IX; BC_n is B_n plus the n doubled short
    roots 2e_i).  A class with no roots is left out: BC1 has none of squared
    length 2.  No root system is built.  The type is validated first, so an
    unknown family or a bad rank raises InvalidRank.
    """
    n = RootSystemType(family, rank).rank
    pairs = n * (n - 1)  # the roots e_i +- e_j with i < j
    six_fold = {
        "A": {12: n * (n + 1) // 2},
        "B": {6: n, 12: pairs},
        "C": {6: pairs, 12: n},
        "D": {12: pairs},
        "E6": {12: 36},
        "E7": {12: 63},
        "E8": {12: 120},
        "F4": {6: 12, 12: 12},
        "G2": {4: 3, 12: 3},
        "BC": {6: n, 12: pairs, 24: n},
    }[family]
    return {Fraction(n6, 6): k for n6, k in six_fold.items() if k}


_CACHE: dict = {}


def root_system(family: str, rank: int) -> RootSystem:
    """The root system of a family and rank, memoised; the type is validated on the first build."""
    rs = _CACHE.get((family, rank))
    if rs is None:
        rs = _CACHE[(family, rank)] = RootSystem(RootSystemType(family, rank))
    return rs


@functools.lru_cache(maxsize=None)
def _type_with_counts(rank: int, counts: tuple) -> RootSystemType:
    """RootSystem.subsystem_type from its counts, memoised on (rank, counts)."""
    for family in FAMILIES:
        try:
            sizes = length_class_counts(family, rank)
        except InvalidRank:
            continue
        if tuple(sizes[k] for k in sorted(sizes)) == counts:
            return RootSystemType(family, rank)
    raise IdentityViolation(f"no root system of rank {rank} has {counts} positive roots by length")
