"""Exception hierarchy for qfab."""


class QfabError(Exception):
    """Base class for all qfab errors."""


class NotAdmissible(QfabError):
    """The relation ideal is not admissible within the configured length bound."""


class DimensionMismatch(QfabError):
    pass


class AlgebraMismatch(QfabError):
    """Two representations over different algebras were combined."""


class NotQuotientModule(QfabError):
    """A module restricted to A/<e> is not killed by <e>."""


class SummandsNotDistinct(QfabError):
    pass


class SummandDecomposable(QfabError):
    pass


class ProjDimTooBig(QfabError):
    """proj.dim of the idempotent quotient exceeds 1, so the quiver-level
    fabric test does not apply."""


class ConditionFailed(QfabError):
    def __init__(self, condition, witness):
        self.condition = condition
        self.witness = witness
        super().__init__(f"condition ({condition}) failed: {witness}")


class NoCompanionFound(QfabError):
    pass


class VerificationFailed(QfabError):
    pass


class NotGorensteinCertified(QfabError):
    pass


class InfiniteQuotientGlobalDimension(QfabError):
    pass


class CornerProjDimUnbounded(QfabError):
    pass


class AxiomViolation(QfabError):
    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class HypothesisViolated(QfabError):
    pass


class StageVerificationFailed(QfabError):
    pass


class InputError(QfabError):
    """A value given to the program that it cannot use, such as an unknown
    name or an out-of-range parameter."""


class UnknownFixture(InputError):
    pass


class ParameterOutOfRange(InputError):
    pass


class ParseError(QfabError):
    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class UnknownVertex(ParseError):
    pass


class NonParallelRelation(ParseError):
    pass
