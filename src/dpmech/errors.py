"""Exception types shared across the package."""


class MechDesignError(Exception):
    """Base class for all package-specific errors."""


def _count(x) -> str:
    """An integer below 2^64 in decimal, a larger one as "more than 10^k"
    (``str`` refuses 4 300 digits): k = floor((bits - 1) log10 2), log10 2
    rounded down, so 10^k < 2^(bits - 1) <= x."""
    if x.bit_length() > 64:
        return f"more than 10^{(x.bit_length() - 1) * 30102999 // 10**8}"
    return str(x)


class EnumerationBudgetExceeded(MechDesignError):
    """An exhaustive enumeration would exceed the configured evaluation cap."""

    def __init__(self, needed, budget):
        super().__init__(
            f"enumeration needs {_count(needed)} evaluations, budget is {budget}"
        )
        self.needed = needed
        self.budget = budget


class NotNonTrivial(MechDesignError):
    """No alternative separates some pair of types of some agent."""

    def __init__(self, witness):
        super().__init__(f"no separating alternative for {witness!r}")
        self.witness = witness


class ZeroProbabilityAsymmetry(MechDesignError):
    """A neighbor pair assigns zero probability on exactly one side.

    The measured privacy loss is infinite; the witness identifies the
    offending (agent, t, t_hat, alternative) tuple.
    """

    def __init__(self, witness):
        super().__init__(f"one-sided zero probability at {witness!r}")
        self.witness = witness


class ParamContractViolated(MechDesignError):
    """Mechanism parameters violate the truthfulness precondition."""


class PopulationTooSmall(ParamContractViolated):
    """The population does not meet the mechanism's size precondition."""

    def __init__(self, n, required):
        super().__init__(f"population {n} does not exceed required size {required}")
        self.n = n
        self.required = required


class WrongValuesKind(MechDesignError):
    """A check requiring private reactions was invoked on an env without them."""


class GridTooCoarse(MechDesignError):
    """The price grid cannot strictly separate two comparable signal vectors."""

    def __init__(self, low, high):
        super().__init__(
            f"no grid price p with {high} > p + 2/m > p > {low}"
        )
        self.low = low
        self.high = high


class ResolutionBudgetExceeded(MechDesignError):
    """A discretized alternative set (or a table over it) exceeds its cap."""

    def __init__(self, size, cap, what="grid support"):
        super().__init__(f"{what} {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class ConfigInvalid(MechDesignError):
    """Experiment configuration failed schema validation."""


class AssertionFailed(MechDesignError):
    """A declared experiment assertion did not hold; witnesses in the report."""
