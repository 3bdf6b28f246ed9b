"""Exception types raised by consensuslab.

Everything derives from :class:`ConsensusError` so callers can catch the
whole family at once.  Each class carries the CLI exit code for it in
``exit_code``: 2 for a bad configuration (InvalidParam, DimensionMismatch,
DisconnectedGraph, StepSizeViolation, AsymmetricWeights,
InconsistentFormation), 3 for everything else.  The ValueError and
RuntimeError bases do not decide the code: NotIrreducible, NotReversible
and NotSymmetric are ValueErrors that exit 3.
"""


class ConsensusError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InvalidParam(ConsensusError, ValueError):
    """A parameter is outside its documented domain."""

    exit_code = 2


class DimensionMismatch(ConsensusError, ValueError):
    """Array shapes are inconsistent with each other."""

    exit_code = 2


class DisconnectedGraph(ConsensusError, ValueError):
    """The graph is not connected, but the operation needs it to be."""

    exit_code = 2


class GenerationFailed(ConsensusError, RuntimeError):
    """A randomized graph generator exhausted its retry budget."""


class NotIrreducible(ConsensusError, ValueError):
    """The chain is not irreducible (or its squared chain is not)."""


class NotReversible(ConsensusError, ValueError):
    """The chain does not satisfy detailed balance."""


class NotSymmetric(ConsensusError, ValueError):
    """The transition matrix is not symmetric."""


class RandomTargetViolation(ConsensusError, ArithmeticError):
    """The stationary-weighted hitting-time sum was not start-independent.

    For an irreducible chain the sum ``sum_j pi_j H(i -> j)`` must be the
    same for every start ``i``; a violation beyond tolerance means the
    hitting times are numerically bad.
    """


class EigSolverFailure(ConsensusError, RuntimeError):
    """The eigenvalue solver failed or returned an unusable spectrum."""


class SingularSystem(ConsensusError, RuntimeError):
    """A linear solve failed or produced an unacceptable residual."""


class NoConvergence(ConsensusError, RuntimeError):
    """An iteration failed to converge within its budget.

    Carries diagnostics: ``iterations`` actually run and ``trace_history``,
    the trace of the iterate at each step, or each squaring for the
    doubling oracle (useful to see divergence, e.g. the growing
    disagreement of a noisy bipartite walk).
    """

    def __init__(self, message, *, iterations=None, trace_history=None):
        super().__init__(message)
        self.iterations = iterations
        self.trace_history = trace_history


class StepSizeViolation(ConsensusError, ValueError):
    """A node's total formation weight is >= 1, so the update is unstable."""

    exit_code = 2


class AsymmetricWeights(ConsensusError, ValueError):
    """Formation weights differ between the two orientations of an edge."""

    exit_code = 2


class InconsistentFormation(ConsensusError, ValueError):
    """The relative-position offsets admit no set of absolute positions."""

    exit_code = 2
