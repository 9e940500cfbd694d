"""Exception hierarchy shared across the engine."""


class TotimeError(Exception):
    """Base class for all engine errors."""


class EmptySetError(TotimeError):
    """An operation requiring a nonempty set received an empty one."""


class PointNotInDomainError(TotimeError):
    """A time point lies outside the time domain."""


class CutMismatchError(TotimeError):
    """Two prefixes with different domains or cut times were compared."""


class CoverageGapError(TotimeError):
    """Pieces leave part of the required time range uncovered."""


class CoverageOverlapError(TotimeError):
    """Two pieces overlap inside the required time range."""


class StartMismatchError(TotimeError):
    """Partitions over different subgames were combined."""


class EmptyFamilyError(TotimeError):
    """A meet of zero partitions was requested."""


class ActionNotInAlphabetError(TotimeError):
    """An action symbol does not belong to the player's alphabet."""


class BadParametersError(TotimeError):
    """Strategy construction parameters are inconsistent."""


class MissingEntryError(TotimeError):
    """A table strategy has no entry for the queried (time, prefix)."""


class UnknownNameError(TotimeError):
    """Unknown gallery or strategy-family name."""


class PrefixMismatchError(TotimeError):
    """Two histories that must share a prefix do not."""


class SetOutsideSubgameError(TotimeError):
    """A consistency target set extends below the subgame start."""


class SearchSpaceTooLargeError(TotimeError):
    """Exhaustive enumeration would exceed the configured bound."""


class MissingWitnessError(TotimeError):
    """The dense solver needs hold-witnesses that a strategy does not supply."""


class DomainMismatchError(TotimeError):
    """Two objects that must share a time domain do not: a history and a
    game specification, or two partitions to meet."""


class SchemaError(TotimeError):
    """A game-spec document violates the JSON schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class UnknownStrategyKindError(SchemaError):
    """Strategy spec with an unrecognized "kind" value."""


class AlphabetMismatchError(SchemaError):
    """Strategy spec references actions outside the player's alphabet."""
