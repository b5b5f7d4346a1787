"""Exception types shared across the package."""


class CmlabError(Exception):
    """Base class for every error raised by cmlab."""


class ZeroOrNegativeDegree(CmlabError):
    """A degree sequence is not a nonempty list of integer degrees, holds
    one below 1 or above 2**31 - 1, or has a total above 2**31 - 1; or a
    degree -> multiplicity map has a multiplicity that is not an integer
    >= 0."""


class OddTotalDegree(CmlabError):
    """The total degree is odd, so no perfect pairing of half-edges exists."""


class InfeasibleTargets(CmlabError):
    """Requested degree-class counts cannot be realized on n vertices."""


class SeriesDivergence(CmlabError):
    """Closed-form limit requested outside its validity domain (2*p2 >= d)."""


class NuInfinite(CmlabError):
    """A formula requiring a finite second-moment ratio was given nu = inf."""


class InfeasibleProduct(CmlabError):
    """The exact no-short-line product needs 2*n1 <= total degree."""


class TooLarge(CmlabError):
    """Exhaustive enumeration requested beyond the half-edge cap."""


class DegreeMismatch(CmlabError):
    """A multigraph's realized degrees disagree with the prescribed sequence."""


class ZeroAcceptedSamples(CmlabError):
    """Conditioning by rejection discarded every replicate."""


class MalformedEdgeList(CmlabError):
    """An edge dump line is not two vertex ids within 1..n."""


class MalformedDegreeList(CmlabError):
    """A degree file line or a --degrees/--counts item is not integers."""


class InvalidLimitParams(CmlabError):
    """A LimitParams field is not a real number, is NaN, is infinite where
    it must be finite, or is out of range."""


class InvalidConfig(CmlabError, ValueError):
    """An ExperimentConfig or Seed field has the wrong type (not an
    integer, a bool, a str, a DegreeSequence or a BuildTargets, as the
    field asks) or is out of range, or the config does not name exactly
    one of seq and targets; or an enumeration cap is not an integer. A
    ValueError too, as these were before they had their own type."""
