"""Exception hierarchy shared across the package."""


class EastgenError(Exception):
    """Base class for all errors raised by this package."""


class CorpusParseError(EastgenError):
    """A corpus file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CorpusValidationError(EastgenError):
    """A parsed sentence violates the IOB tagging invariants."""

    def __init__(self, message: str, sentence: int, position: int):
        super().__init__(f"sentence {sentence}, token {position}: {message}")
        self.sentence = sentence
        self.position = position


class EmptyDatasetError(EastgenError):
    pass


class EmbeddingFormatError(EastgenError):
    """A malformed embedding file row; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OutOfVocabularyError(EastgenError):
    """Raised when a neighbor query token has no embedding vector."""

    def __init__(self, token: str):
        super().__init__(f"token not in vocabulary: {token!r}")
        self.token = token


class TreeSchemaError(EastgenError):
    """A tree document violates the serialization schema; carries the node path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class TreeValidationError(EastgenError):
    """A structurally well-formed tree breaks one or more model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class MissingLexiconError(EastgenError):
    """A tree references a slot for which the lexicon has no surface forms."""

    def __init__(self, slot: str):
        super().__init__(f"no lexicon entries for slot {slot!r}")
        self.slot = slot


class MissingTrainingSizeError(EastgenError, ValueError):
    """An intent has no training size to scale by `factor`, and no count was given."""

    def __init__(self, intent: str):
        super().__init__(
            f"no training size for intent {intent!r}: not in the corpus; pass --count"
        )
        self.intent = intent
