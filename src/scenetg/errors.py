"""Exception types shared across the package."""


class SceneTGError(Exception):
    """Base class for all package errors."""


class ParseError(SceneTGError):
    """Hierarchy dump is not well-formed XML."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class MissingAttribute(SceneTGError):
    """A node in a hierarchy dump lacks a mandatory attribute (class or package)."""


class SchemaError(SceneTGError):
    """An app model file violates the model schema; message carries the field path."""


class DanglingReference(SceneTGError):
    """An app model references an activity, scene, or widget that is not declared."""


class CorruptRun(SceneTGError):
    """A stored explore output cannot be read, is not valid JSON, or lacks a field its readers need."""


class MissingEdge(SceneTGError):
    """Requested activity edge does not exist in the graph."""


class DriverError(SceneTGError):
    """Driver-level failure (no app running, unrecoverable navigation, ...)."""


class SelectorNotFound(DriverError):
    """No component on the current page matches the selector."""

