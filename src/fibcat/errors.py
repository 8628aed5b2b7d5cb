"""Exception hierarchy shared by all modules."""


class FibcatError(Exception):
    """Base class for all library errors."""


class MalformedSpec(FibcatError):
    """A reference does not resolve; path locates it within the structure,
    e.g. "morphisms[3].src" or "eltset.A"."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class CodMismatch(FibcatError):
    """Two functors fed to comma/pullback have different codomains."""


class ShapeMismatch(FibcatError):
    """Functor endpoints do not assemble into the expected diagram."""


class UnknownObject(FibcatError):
    pass


class UnknownMorphism(FibcatError):
    pass


class NotDiscreteFibration(FibcatError):
    pass


class InvalidFunctor(FibcatError):
    """A SetValuedFunctor fails its functoriality laws."""


class WitnessFailure(FibcatError):
    """A constructed isomorphism witness failed verification."""


class NotOverMCG(FibcatError):
    pass


class TypeSyntaxError(FibcatError):
    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class UnparsedSentence(FibcatError):
    def __init__(self, index, failure, detail):
        what = detail if failure.kind == "no-reduction" else f"unknown phrase {detail!r}"
        super().__init__(f"corpus sentence {index} does not parse: {what}")
        self.index = index
        self.failure = failure


class IoError(FibcatError):
    pass


class SchemaError(MalformedSpec):
    """A workspace file is malformed; path is a JSON path into it."""


class ValidationError(FibcatError):
    def __init__(self, report):
        lines = "; ".join(f"{v['law']} at {v['witness']}" for v in report.violations)
        super().__init__(lines or "validation failed")
        self.report = report


class UnknownName(FibcatError):
    pass
