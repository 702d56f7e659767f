"""Exception types shared across the package."""


class CdckitError(Exception):
    """Base class for all package-specific errors."""


class InvalidDistance(CdckitError):
    pass


class InvalidDistances(CdckitError):
    pass


class OutOfRange(CdckitError):
    pass


class EnumerationLimitExceeded(CdckitError):
    pass


class InvalidParameters(CdckitError):
    pass


class PairLimitExceeded(CdckitError):
    pass


class MissingSubcode(CdckitError):
    pass


class HypothesisViolated(CdckitError):
    pass


class RegistryMiss(CdckitError):
    """Lookup of a base code size failed; carries the missing key."""

    def __init__(self, q: int, n: int, d: int, k: int):
        self.key = (q, n, d, k)
        super().__init__(f"no registry value for ({q},{n},{d},{k})")


class ManifestMiss(CdckitError):
    pass


class EmptyGrid(CdckitError):
    pass
