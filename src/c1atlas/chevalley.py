"""Semisimple Lie algebras over Q from integer Chevalley structure constants.

The split algebra has the real basis {h_1..h_r} (simple coroots) plus
{e_lam : lam a root}.  Signs of the constants N(lam, mu) are fixed by the
extraspecial-pair algorithm driven by the canonical (height, lex) order of
the positive roots, so identical inputs always produce identical tables.

The complexified algebra g(C) is read as a real Lie algebra with the real
basis h_i, e_lam, i*h_i, i*e_lam (keys "h", "e", "ih", "ie").  Because
[i^a x, i^b y] = i^(a+b) [x, y], its structure constants are the split ones
under that i-parity rule, so they are rational too.  Both rings therefore use
one scalar field: every coefficient is a Fraction, and the terms of an element
are its real coordinates.

On the real basis the Cartan involution is a signed permutation:
theta(h_i) = -h_i and theta(e_lam) = -e_-lam, while theta(i h_i) = i h_i and
theta(i e_lam) = i e_-lam (the split involution composed with complex
conjugation).  ``killing`` is the trace form of the real algebra, which for
g(C) is twice the real part of the complex one.  The positive definite form
b_theta(x, y) = -B(x, theta y) has as Gram matrix one Cartan block on each of
the h and ih parts plus a diagonal on the root vectors.

Algebras are immutable after construction; brackets and Gram lookups are pure.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    IdentityViolation,
    InjectivityViolation,
    NonReducedSystem,
)
from .linalg import rank as mat_rank
from .linalg import solve
from .rootsys import Root, RootSystem
from .scalars import GAUSSIAN, RATIONAL


class AlgebraElement:
    """Sparse vector of real coordinates; zero entries are never stored."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: v for k, v in terms.items() if v != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
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

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=_basis_sort_key):
            bits.append(f"({self.terms[key]})*{_basis_name(key)}")
        return " + ".join(bits)


def _basis_name(key):
    tag, payload = key
    if tag[-1] == "h":
        return f"{tag}{payload}"
    return f"{tag}[{payload}]"


def _basis_sort_key(key):
    tag, payload = key
    if tag[-1] == "h":
        return (tag[0] == "i", 0, payload, ())
    return (tag[0] == "i", 1, payload.height, payload.coeffs)


def _times_i(key):
    """The key of i times the basis vector `key` of the split form."""
    return ("i" + key[0], key[1])


_ZERO = Fraction(0)


def _form(rows, x: AlgebraElement, y: AlgebraElement) -> Fraction:
    """The bilinear form with sparse Gram rows `rows` on x and y."""
    xt = x.terms
    total = _ZERO
    for ky, cy in y.terms.items():
        for kx, g in rows[ky].items():
            cx = xt.get(kx)
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
        self.roots = tuple(sorted(rs.positives) + [-p for p in sorted(rs.positives)])
        split = [("h", i) for i in range(1, rs.rank + 1)] + [("e", lam) for lam in self.roots]
        self.basis = tuple(split + ([_times_i(k) for k in split] if scalars == GAUSSIAN else []))
        self.dim = len(self.basis)
        self._keys = frozenset(self.basis)
        # theta on the real basis: key -> (image key, whether the sign flips)
        self._theta = {
            (tag, p): ((tag, p if tag[-1] == "h" else -p), tag[0] != "i") for tag, p in self.basis
        }
        self._n_pos = {}
        self._positive_constants()
        # <lam, a_i-dual> for every root (in the order of self.roots) and simple a_i
        simple_pairings = [tuple(rs.pairing(lam, a) for a in rs.simples) for lam in self.roots]
        self._table = self._bracket_table(simple_pairings)
        self._cartan_gram, root_gram = self._killing_gram(simple_pairings)
        self._killing_rows, self._b_theta_rows = self._forms(self._cartan_gram, root_gram)

    # -- structure constants -----------------------------------------------
    def _positive_constants(self):
        """Fill N(a, b) for positive special pairs a < b, extraspecial signs +."""
        rs = self.rs
        pos = sorted(rs.positives)
        table = self._n_pos
        for gamma in pos:
            if gamma.height == 1:
                continue
            pairs = []
            for xi in pos:
                if xi.height >= gamma.height:
                    break
                rest = tuple(g - x for g, x in zip(gamma.coeffs, xi.coeffs))
                if rs.contains(rest) and xi < Root(rest):
                    pairs.append((xi, Root(rest)))
            alpha, beta = pairs[0]
            table[(alpha, beta)] = Fraction(1 + rs.string_down_count(beta, alpha))
            for (xi, eta) in pairs[1:]:
                acc = Fraction(0)
                d1 = xi.shifted(alpha, -1)
                if rs.contains(d1):
                    acc += self._n_any(-alpha, xi) * self._n_any(Root(d1), eta)
                d2 = eta.shifted(alpha, -1)
                if rs.contains(d2):
                    acc += self._n_any(-alpha, eta) * self._n_any(xi, Root(d2))
                table[(xi, eta)] = acc / self._n_any(-alpha, gamma)
        if any(value.denominator != 1 for value in table.values()):
            raise IdentityViolation("non-integral structure constant")

    def _n_any(self, lam: Root, mu: Root) -> Fraction:
        """N(lam, mu) for any sign pattern from the positive table; lam + mu is a root."""
        lp, mp = lam.is_positive, mu.is_positive
        if lp and mp:
            if (lam, mu) in self._n_pos:
                return self._n_pos[(lam, mu)]
            return -self._n_pos[(mu, lam)]
        if not lp and not mp:
            return -self._n_any(-lam, -mu)
        if not lp:
            return -self._n_any(mu, lam)
        nu = Root(lam.shifted(mu))
        rs = self.rs
        if nu.is_positive:
            return rs.length_sq(nu) / rs.length_sq(lam) * self._n_any(nu, -mu)
        return rs.length_sq(nu) / rs.length_sq(mu) * self._n_any(-nu, lam)

    def structure_constant(self, lam: Root, mu: Root) -> int:
        """N(lam, mu) with [e_lam, e_mu] = N(lam, mu) e_(lam+mu); 0 if not a root."""
        s = lam.shifted(mu)
        if not self.rs.contains(s):
            return 0
        return int(self.bracket_basis(("e", lam), ("e", mu)).get(("e", Root(s)), 0))

    def coroot_coefficients(self, lam: Root):
        """Integers c_i with lam-dual = sum c_i alpha_i-dual."""
        rs = self.rs
        ll = rs.length_sq(lam)
        out = []
        for i in range(1, rs.rank + 1):
            c = lam.coeffs[i - 1] * rs.length_sq(rs.simple(i)) / ll
            if c.denominator != 1:
                raise IdentityViolation(f"coroot of {lam} is not an integral coroot combination")
            out.append(int(c))
        return tuple(out)

    def _bracket_table(self, simple_pairings):
        """Brackets of all ordered basis pairs, stored sparsely."""
        rs = self.rs
        table = {}
        for i in range(rs.rank):
            hi = ("h", i + 1)
            for lam, vals in zip(self.roots, simple_pairings):
                if vals[i]:
                    table[(hi, ("e", lam))] = {("e", lam): Fraction(vals[i])}
        for a, lam in enumerate(self.roots):
            for mu in self.roots[a + 1 :]:
                s = lam.shifted(mu)
                key = (("e", lam), ("e", mu))
                if all(c == 0 for c in s):
                    coro = self.coroot_coefficients(lam if lam.is_positive else mu)
                    sign = 1 if lam.is_positive else -1
                    table[key] = {
                        ("h", i + 1): Fraction(sign * c) for i, c in enumerate(coro) if c
                    }
                elif rs.contains(s):
                    n = self._n_any(lam, mu)
                    if n.denominator != 1:
                        raise IdentityViolation(f"non-integral N({lam}, {mu})")
                    if n:
                        table[key] = {("e", Root(s)): Fraction(n)}
        if self.scalars == GAUSSIAN:
            # [i^a x, i^b y] = i^(a+b) [x, y]: one factor i moves the bracket
            # to the i-keys, two give the sign of i^2 = -1
            for (ka, kb), out in list(table.items()):
                i_out = {_times_i(k): v for k, v in out.items()}
                table[(_times_i(ka), kb)] = i_out
                table[(ka, _times_i(kb))] = i_out
                table[(_times_i(ka), _times_i(kb))] = {k: -v for k, v in out.items()}
        return table

    def bracket_basis(self, ka, kb) -> dict:
        if ka == kb:
            return {}
        if (ka, kb) in self._table:
            return self._table[(ka, kb)]
        if (kb, ka) in self._table:
            return {k: -v for k, v in self._table[(kb, ka)].items()}
        return {}

    # -- public element API ---------------------------------------------------
    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def element(self, terms: dict) -> AlgebraElement:
        """The element with real coordinates `terms`; every key must lie in ``basis``."""
        for key in terms:
            if key not in self._keys:
                raise ValueError(f"{key!r} is not a real basis key of this algebra")
        return AlgebraElement(self, {k: Fraction(v) for k, v in terms.items()})

    def h(self, i: int) -> AlgebraElement:
        return self.element({("h", i): 1})

    def e(self, lam: Root, coefficient=1) -> AlgebraElement:
        return self.element({("e", lam): coefficient})

    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for ka, ca in x.terms.items():
            for kb, cb in y.terms.items():
                tab = self.bracket_basis(ka, kb)
                if not tab:
                    continue
                c = ca * cb
                for k, v in tab.items():
                    s = out.get(k, 0) + c * v
                    if s == 0:
                        out.pop(k, None)
                    else:
                        out[k] = s
        return AlgebraElement(self, out)

    def theta(self, x: AlgebraElement) -> AlgebraElement:
        """Cartan involution, a signed permutation of the real basis."""
        out = {}
        for key, c in x.terms.items():
            image, flip = self._theta[key]
            out[image] = -c if flip else c
        return AlgebraElement(self, out)

    # -- invariant forms ---------------------------------------------------------
    def _killing_gram(self, simple_pairings):
        """Exact Gram data of the Killing form B of the real algebra on the split keys.

        ad(x) ad(y) shifts the root grading by the sum of the weights of x and
        y, so the only nonzero Gram entries are Cartan x Cartan and the pairs
        (e_lam, e_-lam).  On the Cartan part the trace is B(h_i, h_j) = sum
        over roots of lam(h_i) lam(h_j).  Invariance with [e_lam, e_-lam] =
        h_lam gives B(h_lam, h_lam) = lam(h_lam) B(e_lam, e_-lam), so
        B(e_lam, e_-lam) = B(h_lam, h_lam) / 2.  The trace form of the
        realified g(C) is twice the real part of the complex one, so over Q(i)
        the Cartan block is doubled.
        """
        rs = self.rs
        r = rs.rank
        factor = 2 if self.scalars == GAUSSIAN else 1
        cartan = [
            [Fraction(factor * sum(vals[i] * vals[j] for vals in simple_pairings)) for j in range(r)]
            for i in range(r)
        ]
        root_entries = {}
        for lam in rs.positives:
            c = self.coroot_coefficients(lam)
            root_entries[lam] = sum(c[i] * cartan[i][j] * c[j] for i in range(r) for j in range(r)) / 2
        return cartan, root_entries

    def _forms(self, cartan, root_gram):
        """Sparse rows of B and of b_theta(x, y) = -B(x, theta y) on the real basis.

        For split keys x, y, B(i^a x, i^b y) = Re(i^(a+b)) B(x, y): B keeps its
        sign on split pairs, changes it on pairs of i-keys and vanishes on
        mixed pairs.  theta negates the split keys and fixes the i-keys, so
        b_theta is the Cartan block on each of h and ih, and B(e_lam, e_-lam)
        on the diagonal at e_lam and at ie_lam.
        """
        killing, b_theta = {}, {}
        parts = [("h", "e", 1)] + ([("ih", "ie", -1)] if self.scalars == GAUSSIAN else [])
        for h_tag, e_tag, sign in parts:
            for i, cartan_row in enumerate(cartan, start=1):
                row = {(h_tag, j): v for j, v in enumerate(cartan_row, start=1) if v}
                b_theta[(h_tag, i)] = row
                killing[(h_tag, i)] = {k: sign * v for k, v in row.items()}
            for lam, value in root_gram.items():
                for mu in (lam, -lam):
                    b_theta[(e_tag, mu)] = {(e_tag, mu): value}
                    killing[(e_tag, mu)] = {(e_tag, -mu): sign * value}
        return killing, b_theta

    def killing(self, x: AlgebraElement, y: AlgebraElement) -> Fraction:
        """Killing form of the real algebra."""
        return _form(self._killing_rows, x, y)

    def b_theta(self, x: AlgebraElement, y: AlgebraElement) -> Fraction:
        """The positive definite inner product -B(x, theta y) on the real algebra."""
        return _form(self._b_theta_rows, x, y)

    def cartan_dual(self, lam: Root) -> AlgebraElement:
        """The vector H in the Cartan part with b_theta(H, .) = lam(.) there."""
        rs = self.rs
        rhs = [Fraction(rs.pairing(lam, a)) for a in rs.simples]
        coeffs = solve(self._cartan_gram, rhs)
        return self.element({("h", i + 1): c for i, c in enumerate(coeffs)})

    # -- verification helpers -------------------------------------------------
    def jacobi_defect(self, x, y, z) -> AlgebraElement:
        b = self.bracket
        return b(x, b(y, z)) + b(y, b(z, x)) + b(z, b(x, y))

    def check_jacobi_exhaustive(self) -> int:
        """Jacobi on all unordered basis triples; returns the number checked."""
        elems = [AlgebraElement(self, {k: Fraction(1)}) for k in self.basis]
        n = len(elems)
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if not self.jacobi_defect(elems[i], elems[j], elems[k]).is_zero:
                        raise IdentityViolation(
                            f"Jacobi fails on basis triple {i},{j},{k}"
                        )
                    count += 1
        return count

    def check_constant_magnitudes(self) -> int:
        """|N(lam, mu)| = p + 1 for every root pair; returns pairs checked."""
        rs = self.rs
        count = 0
        for lam in self.roots:
            for mu in self.roots:
                s = lam.shifted(mu)
                if not rs.contains(s) or all(c == 0 for c in s):
                    continue
                p = rs.string_down_count(mu, lam)
                if abs(self.structure_constant(lam, mu)) != p + 1:
                    raise IdentityViolation(f"|N({lam},{mu})| != p+1")
                count += 1
        return count

    # -- the real basis -------------------------------------------------------
    # ("h", i) and ("e", lam) stand for h_i and e_lam; over Q(i) ("ih", i) and
    # ("ie", lam) stand for i*h_i and i*e_lam.
    def real_keys(self, roots) -> tuple:
        """Real basis keys of the root spaces of `roots`, in the given order."""
        if self.scalars == GAUSSIAN:
            return tuple(key for lam in roots for key in (("e", lam), ("ie", lam)))
        return tuple(("e", lam) for lam in roots)

    def real_vector(self, key) -> AlgebraElement:
        """The real basis vector named by `key`."""
        return self.element({key: 1})

    def in_centraliser_of_flat(self, x: AlgebraElement) -> bool:
        """Whether x lies in the compact centraliser of the flat (the k_0 part)."""
        return all(key[0] == "ih" for key in x.terms)


def build_algebra(rs: RootSystem, scalars: str = RATIONAL) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs, scalars)


def check_theta_bracket_identity(
    algebra: ChevalleyAlgebra, lam: Root, x: AlgebraElement, y: AlgebraElement = None
) -> None:
    """Verify [theta X, X] = b_theta(X, X) * H_lam for X in the root space of lam,
    and, given Y there b_theta-orthogonal to X, that [theta X, Y] lands in the
    k_0 part.  Raises IdentityViolation on failure.
    """
    space = set(algebra.real_keys([lam]))
    for elem in (x,) + ((y,) if y is not None else ()):
        if not elem.terms.keys() <= space:
            raise ValueError(f"vector has a component off the root space of {lam}")
    h_lam = algebra.cartan_dual(lam)
    lhs = algebra.bracket(algebra.theta(x), x)
    rhs = algebra.b_theta(x, x) * h_lam
    if lhs != rhs:
        raise IdentityViolation(f"[theta X, X] != |X|^2 H for X in g_{lam}")
    if y is not None:
        if algebra.b_theta(x, y) != 0:
            raise ValueError("X and Y must be b_theta-orthogonal")
        mixed = algebra.bracket(algebra.theta(x), y)
        if not algebra.in_centraliser_of_flat(mixed):
            raise IdentityViolation(f"[theta X, Y] escapes k_0 for X, Y in g_{lam}")


def check_string_injectivity(algebra: ChevalleyAlgebra, alpha: Root, beta: Root, k: int) -> None:
    """Exact-rank check that ad(X)^k : g_alpha -> g_(alpha+k*beta) is injective
    for every real basis vector X of g_beta.  Raises InjectivityViolation on failure.
    """
    rs = algebra.rs
    string = rs.root_string(alpha, beta)
    if k < 1 or k >= len(string):
        raise ValueError(f"power {k} outside the string through {alpha}")
    target = string[k]
    target_keys = algebra.real_keys([target])
    source = [algebra.real_vector(key) for key in algebra.real_keys([alpha])]
    for x in (algebra.real_vector(key) for key in algebra.real_keys([beta])):
        images = []
        for img in source:
            for _ in range(k):
                img = algebra.bracket(x, img)
            if not img.terms.keys() <= set(target_keys):
                raise ValueError(f"element is not contained in the root space of {target}")
            images.append(img.terms)
        mat = [[img.get(key, 0) for img in images] for key in target_keys]
        rk = mat_rank(mat)
        if rk != len(source):
            raise InjectivityViolation(
                f"ad(X)^{k} on g_{alpha} has rank {rk} < {len(source)}"
            )


def dump_structure_constants(algebra: ChevalleyAlgebra) -> list:
    """JSON-friendly table of all nonzero N(lam, mu) over root pairs.

    Rows follow ``algebra.roots`` in lam, then in mu.  They are read from the
    bracket table, which stores each unordered pair of roots once; the
    reversed pair has N(mu, lam) = -N(lam, mu).
    """
    index = {lam: a for a, lam in enumerate(algebra.roots)}
    rows = [[] for _ in algebra.roots]
    for (ka, kb), value in algebra._table.items():
        if ka[0] != "e":
            continue
        for (tag, _), n in value.items():
            if tag == "e":  # the (e_lam, e_-lam) entries land in the Cartan
                a, b = index[ka[1]], index[kb[1]]
                rows[a].append((b, int(n)))
                rows[b].append((a, -int(n)))
    out = []
    for lam, row in zip(algebra.roots, rows):
        for b, n in sorted(row):
            mu = algebra.roots[b]
            out.append({"lam": list(lam.coeffs), "mu": list(mu.coeffs), "n": n})
    return out
