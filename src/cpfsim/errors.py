"""Exception hierarchy shared by all cpfsim modules."""


class CpfSimError(Exception):
    """Base class for all package errors."""


class SpaceMismatch(CpfSimError):
    """Operands are defined on different mode spaces."""


class TruncationOverflow(CpfSimError):
    """An OAM shift would leave the truncation window [-L, L]."""


class UnknownElement(CpfSimError):
    """Element descriptor names no known optical element."""


class ConventionError(CpfSimError):
    """Internal self-check failed: an element came out non-unitary."""


class EmptyPostSelection(CpfSimError):
    """Post-selection pattern keeps no amplitude at all."""


class PatternMismatch(CpfSimError):
    """Two analyzer patterns of one Bell outcome herald different states."""


class BasisIncomplete(CpfSimError):
    """Measurement resolution does not cover the occupied subspace."""


class InvalidDimension(CpfSimError):
    """Qudit dimension below 2."""


class InvalidSubspace(CpfSimError):
    """Two-level subspace index out of range."""


class NotNormalized(CpfSimError):
    """State was required to be normalized and is not."""


class EncodingError(CpfSimError):
    """Photon state lies outside the supported qudit alphabet."""
