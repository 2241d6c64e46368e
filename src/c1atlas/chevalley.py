"""Semisimple Lie algebras over Q from integer Chevalley structure constants.

The split algebra has the real basis {h_1..h_r} (simple coroots) plus
{e_lam : lam a root}.  Signs of the constants N(lam, mu) are fixed by the
extraspecial-pair algorithm driven by the canonical (height, lex) order of
the positive roots, so identical inputs always produce identical tables.
They are computed on ints by root position: the negative of a root sits
|Phi+| positions away, a sum is found by its coefficient tuple, and each
length ratio is an exact divmod of six-fold squared lengths.

The complexified algebra g(C) is read as a real Lie algebra with the real
basis h_i, e_lam, i*h_i, i*e_lam.  Because [i^a x, i^b y] = i^(a+b) [x, y],
its structure constants are the split ones under that i-parity rule, so they
are integers too.  Both rings therefore use one scalar field, Q: the terms of
an element are its real coordinates, ints or Fractions.

The real basis is numbered 0..dim-1, and every table is keyed by that index:
element terms, the bracket rows, theta and the Gram rows.  The split basis
comes first (h_1..h_r, then e_lam in the order of ``roots``, negatives after
the positives), and over Q(i) its i-copy follows, so i times basis vector k
is k + split_dim.  Only input and output read names: ``labels[k]`` is
("h", i), ("e", lam), ("ih", i) or ("ie", lam), and ``index`` maps a label
back to k.

On the real basis the Cartan involution is a signed permutation:
theta(h_i) = -h_i and theta(e_lam) = -e_-lam, while theta(i h_i) = i h_i and
theta(i e_lam) = i e_-lam (the split involution composed with complex
conjugation).  ``killing`` is the trace form of the real algebra, which for
g(C) is twice the real part of the complex one.  The positive definite form
b_theta(x, y) = -B(x, theta y) has as Gram matrix one Cartan block on each of
the h and ih parts plus an integral diagonal on the root vectors.  This
module owns the int rows of b_theta, ``_b_theta_rows``, which ``shapeops``
reads as they are, and beside them the int rows of B; ``b_theta_terms``
evaluates b_theta on term dicts, and ``killing`` and ``b_theta`` return a
sum over those rows as a Fraction.

Everything a build and a structure-constant dump compute is an int, so this
module loads no ``fractions`` at import: the functions that return a Fraction
(the forms, the element constructors, scaling an element) run ``import
fractions`` when they are called, a lookup that costs a fraction of what a
``from`` import inside a function does.  Algebras are immutable after
construction, equal bracket-table entries are one shared tuple, and brackets
and Gram lookups are pure.
"""

from __future__ import annotations

import operator

from .errors import IdentityViolation, NonReducedSystem, NotARoot
from .rootsys import Root, RootSystem
from .scalars import GAUSSIAN, RATIONAL


class AlgebraElement:
    """Sparse vector of real coordinates, keyed by basis index; zero entries are never stored."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: v for k, v in terms.items() if v != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        import fractions

        scalar = fractions.Fraction(scalar)
        return AlgebraElement(self.algebra, {k: scalar * v for k, v in self.terms.items()})

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("AlgebraElement is unhashable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, k: int):
        return self.terms.get(k, 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            tag, payload = self.algebra.labels[k]
            name = f"{tag}{payload}" if tag[-1] == "h" else f"{tag}[{payload}]"
            bits.append(f"({self.terms[k]})*{name}")
        return " + ".join(bits)


def _form(rows, x: dict, y: dict):
    """The bilinear form with sparse int Gram rows `rows` on the term dicts x and y."""
    total = 0
    for ky, cy in y.items():
        for kx, g in rows[ky]:
            cx = x.get(kx)
            if cx is not None:
                total += cx * cy * g
    return total


class ChevalleyAlgebra:
    """Exact split (or realified complexified) semisimple Lie algebra over a reduced system."""

    def __init__(self, rs: RootSystem, scalars: str = RATIONAL):
        if rs.non_reduced:
            raise NonReducedSystem("Chevalley bases exist for reduced systems only")
        if scalars not in (RATIONAL, GAUSSIAN):
            raise ValueError(f"unknown scalar ring {scalars!r}")
        self.rs = rs
        self.scalars = scalars
        positives = rs.positives  # already in root order
        self.roots = positives + tuple(-p for p in positives)
        r, n_pos = rs.rank, len(positives)
        split = [("h", i) for i in range(1, r + 1)] + [("e", lam) for lam in self.roots]
        prefixes = ("", "i") if scalars == GAUSSIAN else ("",)
        self.labels = tuple((prefix + tag, p) for prefix in prefixes for tag, p in split)
        self.index = {label: k for k, label in enumerate(self.labels)}
        self.dim = len(self.labels)
        self.split_dim = len(split)
        self._copies = range(0, self.dim, self.split_dim)  # offsets of the real copies
        # theta on the real basis: h_i -> -h_i and e_lam -> -e_-lam, where -lam
        # sits |Phi+| positions from lam in ``roots``; the i-copies keep the sign
        split_image = list(range(r)) + [r + (a + n_pos) % (2 * n_pos) for a in range(2 * n_pos)]
        self._theta_image = tuple(c + k for c in self._copies for k in split_image)
        self._theta_sign = tuple(-1 if c == 0 else 1 for c in self._copies for _ in split)
        # <lam, a_i-dual> for every root (in the order of self.roots) and simple a_i
        simples = rs.simples
        simple_pairings = [tuple(rs.pairing(lam, a) for a in simples) for lam in self.roots]
        self._table, coroots = self._bracket_table(simple_pairings)
        self._killing_rows, self._b_theta_rows = self._forms(coroots, simple_pairings)

    # -- structure constants -----------------------------------------------
    def _root_constants(self, split, share) -> None:
        """Write [e_lam, e_mu] = N(lam, mu) e_(lam+mu) into the rows `split` wherever lam + mu is a root.

        Root position a (in ``roots``) is basis index rank + a.  The positive
        special pairs x + e = g are filled first, in root order, with the
        extraspecial signs +.  Each positive triple then gives all six of its
        sign variants at once: N(x, e) / |g|^2 = N(e, -g) / |x|^2 =
        N(-g, x) / |e|^2 and N(-x, -e) = -N(x, e), each stored in both orders
        with N(b, a) = -N(a, b).  Every pair of roots summing to a root lies in
        exactly one such triple.  Everything runs on ints: -roots[a] sits at
        a +- |Phi+|, sums are looked up by coefficient tuple, and each length
        ratio is an exact divmod of the six-fold squared lengths of the roots
        it involves, negatives included, whose remainder raises
        IdentityViolation.  The constants of earlier triples are read back
        from `split`, and every entry goes through `share`.
        """
        r = self.rs.rank
        coeffs = [lam.coeffs for lam in self.roots]
        n_pos = len(coeffs) // 2
        position = {c: a for a, c in enumerate(coeffs)}
        len6 = [self.rs._root_len6[c] for c in coeffs]
        heights = [sum(c) for c in coeffs]

        def minus(a, b):
            return position.get(tuple(map(operator.sub, coeffs[a], coeffs[b])))

        def exact(num, den, a, b):
            q, rem = divmod(num, den)
            if rem:
                raise IdentityViolation(f"non-integral N({self.roots[a]}, {self.roots[b]})")
            return q

        def n(a, b):
            return split[r + a][r + b][0][1]

        def put(a, b, s, value):
            split[r + a][r + b] = share(((r + s, value),))
            split[r + b][r + a] = share(((r + s, -value),))

        def emit(x, e, g, value):
            """The six sign variants of the positive triple x + e = g with N(x, e) = value."""
            mx, me, mg = x + n_pos, e + n_pos, g + n_pos
            put(x, e, g, value)
            put(e, mg, mx, exact(value * len6[x], len6[g], e, mg))
            put(mg, x, me, exact(value * len6[e], len6[g], mg, x))
            put(mx, me, mg, -value)
            put(me, g, x, -exact(value * len6[mx], len6[mg], me, g))
            put(g, mx, e, -exact(value * len6[me], len6[mg], g, mx))

        for g in range(n_pos):
            if heights[g] == 1:
                continue
            pairs = []
            for x in range(g):
                if heights[x] >= heights[g]:
                    break
                e = minus(g, x)
                if e is not None and x < e:
                    pairs.append((x, e))
            alpha, beta = pairs[0]  # the extraspecial pair of g
            minus_alpha = alpha + n_pos
            # N(alpha, beta) = p + 1, p the depth of the alpha-string below beta
            p, down = 0, minus(beta, alpha)
            while down is not None:
                p, down = p + 1, minus(down, alpha)
            emit(alpha, beta, g, 1 + p)
            for x, e in pairs[1:]:
                acc = 0
                d1 = minus(x, alpha)
                if d1 is not None:
                    acc += n(minus_alpha, x) * n(d1, e)
                d2 = minus(e, alpha)
                if d2 is not None:
                    acc += n(minus_alpha, e) * n(x, d2)
                emit(x, e, g, exact(acc, n(minus_alpha, g), x, e))

    def _root_index(self, lam: Root) -> int:
        """Basis index of e_lam; NotARoot unless lam is a root of the system."""
        k = self.index.get(("e", lam))
        if k is None:
            raise NotARoot(f"{lam} is not a root of {self.rs.rtype}")
        return k

    def structure_constant(self, lam: Root, mu: Root) -> int:
        """N(lam, mu) with [e_lam, e_mu] = N(lam, mu) e_(lam+mu); 0 if lam + mu is not a root.

        lam and mu must be roots, else NotARoot.
        """
        ka, kb = self._root_index(lam), self._root_index(mu)
        s = lam.shifted(mu)
        if not self.rs.contains(s):
            return 0
        out = dict(self._table[ka].get(kb, ()))
        return int(out.get(self.index[("e", Root(s))], 0))

    def coroot_coefficients(self, lam: Root):
        """Integers c_i with lam-dual = sum c_i alpha_i-dual; NotARoot unless lam is a root."""
        rs = self.rs
        if not rs.contains(lam):
            raise NotARoot(f"{lam} is not a root of {rs.rtype}")
        ll = rs._length6(lam.coeffs)
        out = []
        for i in range(rs.rank):
            c, rem = divmod(lam.coeffs[i] * rs._gram6[i][i], ll)
            if rem:
                raise IdentityViolation(f"coroot of {lam} is not an integral coroot combination")
            out.append(c)
        return tuple(out)

    def _bracket_table(self, simple_pairings):
        """Brackets of all ordered pairs of basis vectors as rows of sparse terms, and the coroots.

        ``table[ka][kb]`` holds the nonzero (k, coefficient) terms of
        [basis ka, basis kb]; a pair with a zero bracket is absent.  The
        coefficients are ints, so a bracket of Fraction elements stays exact.
        Equal entries are one tuple: E8 has 752 distinct ones among 15,504.
        """
        r = self.rs.rank
        n = len(self.roots)
        split = [{} for _ in range(self.split_dim)]
        shared = {}  # the first instance of each entry value, for this build only

        def share(terms):
            return shared.setdefault(terms, terms)

        # first, so that its length-ratio guards run before the coroot guard
        self._root_constants(split, share)

        def put(ka, kb, terms):
            split[ka][kb] = share(terms)
            split[kb][ka] = share(tuple((k, -v) for k, v in terms))

        for i in range(r):
            for a, vals in enumerate(simple_pairings):
                if vals[i]:
                    put(i, r + a, ((r + a, vals[i]),))
        coroots = [self.coroot_coefficients(lam) for lam in self.roots[: n // 2]]
        for a, coro in enumerate(coroots):
            # [e_lam, e_-lam] = h_lam, the coroot of the positive root lam
            put(r + a, r + a + n // 2, tuple((i, c) for i, c in enumerate(coro) if c))
        if self.scalars == RATIONAL:
            return split, coroots
        # [i^a x, i^b y] = i^(a+b) [x, y]: one factor i moves the bracket to
        # the i-copies, two give the sign of i^2 = -1
        d = self.split_dim
        table = split + [{} for _ in split]
        for ka, row in enumerate(split):
            for kb, terms in list(row.items()):
                i_terms = share(tuple((k + d, v) for k, v in terms))
                row[kb + d] = i_terms
                table[ka + d][kb] = i_terms
                table[ka + d][kb + d] = share(tuple((k, -v) for k, v in terms))
        return table, coroots

    # -- public element API ---------------------------------------------------
    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def unit(self, k: int) -> AlgebraElement:
        """Basis vector number k."""
        import fractions

        return AlgebraElement(self, {k: fractions.Fraction(1)})

    def element(self, terms: dict) -> AlgebraElement:
        """The element with coordinates `terms`, keyed by label; every key must lie in ``labels``."""
        import fractions

        out = {}
        for label, value in terms.items():
            k = self.index.get(label)
            if k is None:
                raise ValueError(f"{label!r} is not a real basis label of this algebra")
            out[k] = fractions.Fraction(value)
        return AlgebraElement(self, out)

    def h(self, i: int) -> AlgebraElement:
        return self.element({("h", i): 1})

    def e(self, lam: Root, coefficient=1) -> AlgebraElement:
        """coefficient * e_lam; NotARoot unless lam is a root."""
        import fractions

        return AlgebraElement(self, {self._root_index(lam): fractions.Fraction(coefficient)})

    def bracket_terms(self, x: dict, y: dict, out: dict | None = None) -> dict:
        """Add [x, y] into `out` (a new dict by default) and return it.

        x, y and `out` are sparse term dicts keyed by basis index.  The bracket
        rows hold ints, so int coefficients give int results; terms that cancel
        stay in `out` as zeros.
        """
        if out is None:
            out = {}
        table = self._table
        y_terms = y.items()
        for ka, ca in x.items():
            row = table[ka]
            for kb, cb in y_terms:
                terms = row.get(kb)
                if terms is None:
                    continue
                c = ca * cb
                for k, v in terms:
                    out[k] = out.get(k, 0) + c * v
        return out

    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self, self.bracket_terms(x.terms, y.terms))  # drops the terms that cancelled

    def theta_terms(self, x: dict) -> dict:
        """Cartan involution of a sparse term dict, a signed permutation of the real basis."""
        image, sign = self._theta_image, self._theta_sign
        return {image[k]: c if sign[k] > 0 else -c for k, c in x.items()}

    def theta(self, x: AlgebraElement) -> AlgebraElement:
        """Cartan involution, a signed permutation of the real basis."""
        return AlgebraElement(self, self.theta_terms(x.terms))

    # -- invariant forms ---------------------------------------------------------
    def _forms(self, coroots, simple_pairings):
        """Sparse int rows of B and of b_theta.

        ad(x) ad(y) shifts the root grading by the sum of the weights of x and
        y, so the only nonzero Gram entries of the Killing form B are Cartan x
        Cartan and the pairs (e_lam, e_-lam).  On the Cartan part the trace is
        B(h_i, h_j) = sum over roots of lam(h_i) lam(h_j), twice the sum H over
        the positive roots.  Invariance with [e_lam, e_-lam] = h_lam gives
        B(h_lam, h_lam) = lam(h_lam) B(e_lam, e_-lam), so B(e_lam, e_-lam) =
        B(h_lam, h_lam) / 2 = H(h_lam, h_lam), an int.

        The trace form of the realified g(C) is twice the real part of the
        complex one, so over Q(i) every entry is doubled.  For split basis
        vectors x, y, B(i^a x, i^b y) = Re(i^(a+b)) B(x, y): B keeps its sign
        on split pairs, changes it on pairs of i-copies and vanishes on mixed
        pairs.  theta negates the split basis and fixes the i-copies, so
        b_theta is the Cartan block on each of h and ih, and B(e_lam, e_-lam)
        on the diagonal at e_lam and at ie_lam.
        """
        r, n_pos = self.rs.rank, len(coroots)
        factor = 2 if self.scalars == GAUSSIAN else 1
        half = [
            [factor * sum(vals[i] * vals[j] for vals in simple_pairings[:n_pos]) for j in range(r)]
            for i in range(r)
        ]
        # b_theta(e_lam, e_lam) = B(e_lam, e_-lam) for each positive lam, in root order
        root_values = [sum(c[i] * half[i][j] * c[j] for i in range(r) for j in range(r)) for c in coroots]
        killing, b_theta = [], []
        for c in self._copies:
            sign = -1 if c else 1
            for half_row in half:
                row = tuple((c + j, 2 * v) for j, v in enumerate(half_row) if v)
                b_theta.append(row)
                killing.append(tuple((k, sign * v) for k, v in row))
            for a in range(2 * n_pos):
                value = root_values[a % n_pos]
                b_theta.append(((c + r + a, value),))
                killing.append(((c + r + (a + n_pos) % (2 * n_pos), sign * value),))
        return killing, b_theta

    def killing(self, x: AlgebraElement, y: AlgebraElement) -> Fraction:
        """Killing form of the real algebra."""
        import fractions

        return fractions.Fraction(_form(self._killing_rows, x.terms, y.terms))

    def b_theta_terms(self, x: dict, y: dict):
        """b_theta on sparse term dicts: an int on int coefficients."""
        return _form(self._b_theta_rows, x, y)

    def b_theta(self, x: AlgebraElement, y: AlgebraElement) -> Fraction:
        """The positive definite inner product -B(x, theta y) on the real algebra."""
        import fractions

        return fractions.Fraction(self.b_theta_terms(x.terms, y.terms))

    # -- verification helpers -------------------------------------------------
    def check_jacobi_exhaustive(self) -> int:
        """Jacobi on all unordered basis triples; returns the number checked.

        For basis vectors b_i, b_j, b_k with i < j < k it sums the int terms
        of [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]] straight
        from the bracket rows; a triple whose three inner brackets all vanish
        has nothing to sum.
        """
        table = self._table
        n = self.dim
        count = 0
        for i in range(n):
            row_i = table[i]
            for j in range(i + 1, n):
                row_j = table[j]
                ij = row_i.get(j)
                for k in range(j + 1, n):
                    row_k = table[k]
                    jk, ki = row_j.get(k), row_k.get(i)
                    if jk or ki or ij:
                        total = {}
                        for outer, inner in ((row_i, jk), (row_j, ki), (row_k, ij)):
                            for t, c in inner or ():
                                for u, v in outer.get(t, ()):
                                    total[u] = total.get(u, 0) + c * v
                        if any(total.values()):
                            raise IdentityViolation(f"Jacobi fails on basis triple {i},{j},{k}")
                    count += 1
        return count

    # -- the real basis -------------------------------------------------------
    def root_indices(self, roots) -> tuple:
        """Basis indices of the root spaces of `roots`, root by root: e_lam, then i*e_lam over Q(i).

        Every entry must be a root, else NotARoot.
        """
        return tuple(self._root_index(lam) + c for lam in roots for c in self._copies)


def build_algebra(rs: RootSystem, scalars: str = RATIONAL) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs, scalars)


def dump_structure_constants(algebra: ChevalleyAlgebra) -> list:
    """JSON-friendly table of all nonzero N(lam, mu) over root pairs.

    Rows follow ``algebra.roots`` in lam, then in mu.  They are read from the
    bracket table's rows of root vectors, keeping the entries that land on a
    root vector (the (e_lam, e_-lam) entries land in the Cartan).  Each root
    has one coefficient list, shared by every row that names it, so the rows
    are read-only.
    """
    r = algebra.rs.rank
    coeffs = [list(lam.coeffs) for lam in algebra.roots]
    out = []
    for a, lam in enumerate(coeffs):
        row = algebra._table[r + a]
        entries = sorted(
            (kb - r, terms[0][1])
            for kb, terms in row.items()
            if r <= kb < algebra.split_dim and terms[0][0] >= r
        )
        for b, n in entries:
            out.append({"lam": lam, "mu": coeffs[b], "n": n})
    return out
