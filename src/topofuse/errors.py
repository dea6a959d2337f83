"""Exception and warning types shared across the package."""

from __future__ import annotations


class TopofuseError(Exception):
    """Base class for all user-facing errors raised by this package."""


class MissingFile(TopofuseError):
    pass


class RowCountMismatch(TopofuseError):
    pass


class NonNumericCell(TopofuseError):
    pass


class DuplicateSpotId(TopofuseError):
    pass


class InvalidDataset(TopofuseError):
    pass


class UnknownKey(TopofuseError):
    pass


class OutOfRange(TopofuseError):
    pass


class IoFailure(TopofuseError):
    pass


class AllGenesFiltered(TopofuseError):
    pass


class ZeroLibrary(TopofuseError):
    pass


class RankDeficient(TopofuseError):
    pass


class ShapeMismatch(TopofuseError):
    pass


class StaleCache(TopofuseError):
    pass


class NonFiniteLoss(TopofuseError):
    pass


class DegenerateComponent(TopofuseError):
    pass


class LengthMismatch(TopofuseError):
    pass


class SingleClass(TopofuseError):
    pass


class WorkerLost(TopofuseError):
    """The worker process ended before it returned every result."""


class IsolatedNodesWarning(UserWarning):
    """Some nodes of a spatial graph have no neighbors; recorded, not fatal."""


class NonConvergenceWarning(UserWarning):
    """An iterative solver hit its sweep limit before reaching tolerance."""
