"""Exception taxonomy shared by all modules.

Every guard in the library raises a subclass of GslError carrying enough
context (the offending value, the size that tripped a limit) to reproduce
the failure.  Computational *disproofs* are not errors: a verification
returning a failed check with a witness is a normal result.
"""


class GslError(Exception):
    """Base class for all library errors."""


class UnsupportedSize(GslError):
    """Field parameters outside the supported range p in {2,3,5}, 1 <= m <= 8."""


class ReducibleModulus(GslError):
    """A requested modulus polynomial is not irreducible (a factor is attached)."""

    def __init__(self, modulus, factor):
        self.modulus = modulus
        self.factor = factor
        super().__init__(f"modulus {modulus} has factor {factor}")


class DivideByZero(GslError, ZeroDivisionError):
    """Division by the zero scalar or a non-unit element."""


class SizeGuard(GslError):
    """A dimension or candidate-count limit would be exceeded."""

    def __init__(self, what, size, limit):
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(f"{what}: {size} exceeds limit {limit}")


class NonUnit(GslError):
    """Inversion was requested for an element that is not a unit."""


class NotHomogeneous(GslError):
    """A weight decomposition was requested for a non-homogeneous ideal."""


class NotNormal(GslError):
    """A quotient group was requested for a non-normal subgroup; carries a witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subgroup is not normal; conjugation witness: {witness}")


class NotAnAction(GslError):
    """A candidate coaction fails one of the comodule axioms."""


class NotInvertible(GslError):
    """A coaction does not extend across the chart change (the leading
    coefficient is not invertible, or negative degrees survive)."""


class NotFractionalLinear(GslError):
    """A coaction is not of fractional-linear shape; carries the offending degree."""


class IdentityFailed(GslError):
    """A pinned structural identity did not hold in the constructed ring.

    Carries the identity label and the nonzero residual.
    """

    def __init__(self, label, residual):
        self.label = label
        self.residual = residual
        super().__init__(f"identity {label} failed: residual {residual}")


class BadParams(GslError):
    """Construction parameters outside the documented range."""


class VerifyError(GslError):
    """A Hopf-algebra axiom failed during construction of a presentation.

    Carries what was checked and a witness: the first ``hopf.Failure``
    of a verifier's report, or a message where no verifier ran.
    """

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} failed: {witness}")


class ParseError(GslError):
    """Syntax or resolution error in a presentation file or an id string."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
