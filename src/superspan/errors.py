"""Exception hierarchy shared by all superspan modules."""


class SuperspanError(Exception):
    """Base class for the input and arithmetic errors raised by this package."""


class SoundnessError(RuntimeError):
    """An internal result failed its own soundness check: a bug, never
    bad input, so it is deliberately not a SuperspanError."""


# --- field construction and arithmetic ---

class NonMonicPolynomial(SuperspanError, ValueError):
    """Minimal polynomial is not monic."""


class ZeroDegree(SuperspanError, ValueError):
    """Minimal polynomial has degree zero."""


class NonPrimeCyclotomicOrder(SuperspanError, ValueError):
    """Cyclotomic order is not an odd prime."""


class MixedAmbients(SuperspanError, TypeError):
    """Operands belong to different ambient fields."""


class DivisionByZero(SuperspanError, ZeroDivisionError):
    """Division by the zero element."""


class NonInvertible(SuperspanError, ArithmeticError):
    """Nonzero element with no inverse (reducible minimal polynomial)."""


class ZeroToZeroPower(SuperspanError, ArithmeticError):
    """0**0 requested."""


class BadPrime(SuperspanError, ValueError):
    """Prime is not prime, collides with a denominator, or is one mod
    which the minimal polynomial has no root."""


class AllPrimesBad(SuperspanError, ValueError):
    """Every candidate filter prime was unusable."""


# --- points, tuples, matrices ---

class ZeroCoordinate(SuperspanError, ValueError):
    """Point lies in a coordinate hyperplane where that is not allowed."""


class TupleTooLong(SuperspanError, ValueError):
    """Iterate tuple has more entries than the ambient dimension permits."""


class ExponentBudgetExceeded(SuperspanError, OverflowError):
    """Exact materialization would exceed the configured exponent budget."""


class DimensionMismatch(SuperspanError, ValueError):
    """Vector or point dimension does not match the ambient."""


class ShapeMismatch(SuperspanError, ValueError):
    """Matrix shape violates an operation's requirements."""


class IndexOutOfRange(SuperspanError, IndexError):
    """Row or position index outside the valid range."""


class Unsupported(SuperspanError, ValueError):
    """Input is outside the supported scope (e.g. r = 0, general algebraic
    coordinates in the relation lattice)."""


# --- subsum analysis ---

class NonVanishingTotal(SuperspanError, ValueError):
    """Signed term sum is nonzero; no vanishing-subsum partition exists."""


class TooManyTerms(SuperspanError, ValueError):
    """Exhaustive subset search refused (more than 24 terms)."""


# --- constructions ---

class NonPrime(SuperspanError, ValueError):
    """Modulus is not prime."""


class DegenerateModulus(SuperspanError, ValueError):
    """Base is congruent to zero modulo the prime."""


class NotPrimitiveRoot(SuperspanError, ValueError):
    """Degree is not a primitive root for the requested cyclotomic order."""


class ZeroTail(SuperspanError, ValueError):
    """Cyclotomic family tail contains a zero entry."""


class WrongRelationRank(SuperspanError, ValueError):
    """Relation lattice does not have the shape required by the probe."""


class OffQuadric(SuperspanError, ValueError):
    """Point does not satisfy the quadric relation."""
