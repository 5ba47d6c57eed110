"""Exception hierarchy for spinekit."""


class SpineKitError(Exception):
    """Base class for all spinekit errors."""


class DescriptorError(SpineKitError):
    """Volume descriptor is unreadable, malformed, or inconsistent with its raw files."""


class EmptySelectionError(SpineKitError):
    """A requested label has no voxels in the volume."""


class PhantomSpecError(SpineKitError):
    """Phantom parameters are degenerate or the shape cannot be generated."""


class ReconstructionError(SpineKitError):
    """Surface reconstruction failed (too few points, coplanar input, or no
    alpha value yields a closed manifold enclosing all points)."""


class MeshContractError(SpineKitError):
    """A mesh violates the closed-manifold contract required by the operation."""


class DegenerateDistributionError(SpineKitError):
    """Distance samples are too few or have zero variance for density estimation."""


class ThresholdFailureError(SpineKitError):
    """The density curve does not expose enough structure to place thresholds."""


class MappingError(SpineKitError):
    """A vertex is not a voxel centroid of its label, or has no candidate voxel."""


class RoiTooSmallError(SpineKitError):
    """The centroid-to-surface clearance is below one voxel diagonal."""


class ExtractionError(SpineKitError):
    """Intervertebral-space extraction failed for a vertebra pair."""
