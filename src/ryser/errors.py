"""Error types shared across the library."""


class NotCoprime(ValueError):
    """Multiplicative order requested for a base sharing a factor with the modulus."""


class NotCandidateForm(ValueError):
    """n is not 4*u^2 with u odd; the failing test is carried as ``reason``."""

    def __init__(self, n: int, reason: str):
        super().__init__(f"{n} is not a candidate order: {reason}")
        self.n = n
        self.reason = reason

    def __reduce__(self):
        # args holds only the message, so the default reduce could not
        # rebuild this error, as a pooled worker's pickle must.
        return type(self), (self.n, self.reason), self.__dict__


class RangeTooLarge(ValueError):
    """Sieve range exceeds the configured cap."""


class PoolFailed(RuntimeError):
    """A worker pool could not start a worker, or one ended too early."""


class OrderTooLarge(ValueError):
    """Circulant search order outside the hard guard."""


class LengthTooLarge(ValueError):
    """Barker search length outside the hard guard."""


class NotADivisor(ValueError):
    """Grouping modulus does not divide the row length."""


class IndexOutOfRange(IndexError):
    """Autocorrelation shift outside the valid range."""
