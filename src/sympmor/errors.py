"""Exception types shared across the package."""


class SympmorError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SympmorError):
    """Shapes or dimensions are inconsistent."""


class AnchorMismatchError(SympmorError):
    """A tangent vector was used at a point other than its anchor."""


class RetractionSingularError(SympmorError):
    """The 2n x 2n SMW system is (numerically) singular."""


class SectionDegenerateError(SympmorError):
    """QR section construction hit a rank-deficient sample; retry with a new seed."""


class DegenerateBatchError(SympmorError):
    """Relative loss requested on a batch with zero Frobenius norm."""


class UnsplitSystemError(SympmorError):
    """A ROM was asked of a FOM that carries no `SecondOrder` split."""


class IntegrationFailureError(SympmorError):
    """A step failed: its Newton iteration did not converge or met a singular
    matrix, or an explicit step left a non-finite state."""

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"Newton did not converge at step {step_index}")


class TrainingDivergedError(SympmorError):
    """Training loss or gradient blew up; no update was taken for this batch."""

    def __init__(self, batch_index, message):
        self.batch_index = batch_index
        super().__init__(f"training diverged at batch {batch_index}: {message}")


class ConfigError(SympmorError):
    """Invalid or inconsistent run configuration."""
