"""Exception hierarchy shared by all c1atlas modules."""

from __future__ import annotations


class C1AtlasError(Exception):
    """Base class for all library errors."""


class UsageError(C1AtlasError):
    """Command-line arguments that do not form a valid request (exit code 2)."""


class InvalidRank(C1AtlasError):
    """Rank outside the admissible range for a root-system family."""


class InvalidIndex(C1AtlasError, ValueError):
    """Simple-root index outside 1..rank."""


class NotARoot(C1AtlasError, ValueError):
    """Coefficient vector that is not a root of the system at hand."""


class ProportionalRoots(C1AtlasError):
    """Root-string endpoints must not be proportional."""


class ParseError(C1AtlasError):
    """Malformed catalog or table file."""


class DimensionMismatch(C1AtlasError):
    """Catalog entry whose dimension disagrees with rank + sum of multiplicities."""


class NonReducedSystem(C1AtlasError):
    """Chevalley construction requires a reduced root system."""


class IdentityViolation(C1AtlasError):
    """An exact algebraic identity failed."""


class InjectivityViolation(C1AtlasError):
    """An iterated adjoint map that must be injective has a kernel."""


class FormulaMismatch(C1AtlasError):
    """Shape operator disagrees with its independent connection-based recomputation."""


class NotClosed(C1AtlasError):
    """Candidate tangent space is not closed under the bracket."""


class CheckFailed(C1AtlasError):
    """A verification check found a result other than the expected one."""


class UnknownConfiguration(C1AtlasError):
    """Elimination pipeline exhausted without a theorem-backed verdict."""


class UnknownSpace(C1AtlasError):
    """Name not present in the loaded catalog."""


class RHHasNoNCModuli(C1AtlasError):
    """Real hyperbolic spaces carry no nilpotent-construction moduli."""
