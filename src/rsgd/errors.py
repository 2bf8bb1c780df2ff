"""Exception types shared across the package."""


class DegenerateRetraction(ValueError):
    """Retraction argument lands too close to the cut point (sphere: ||x + v|| ~ 0)."""


class InvalidPlan(ValueError):
    """Batch plan is inconsistent with its sample space or iteration index."""


class InvalidHyperparameters(ValueError):
    """Run hyperparameters violate their admissibility conditions: the adaptive
    step-size constants, eta_0 <= kappa, or a confined run's start inside its level."""


class UnboundedRegion(ValueError):
    """A gradient bound was requested over a non-compact region."""


class SamplerFailure(RuntimeError):
    """A band or sublevel-set sampler could not produce the requested points."""


class ConfinementViolation(RuntimeError):
    """A confined run left its certified sublevel set."""

    def __init__(self, message, t=None, seed=None):
        super().__init__(message)
        self.t = t
        self.seed = seed


class ConfigError(ValueError):
    """Experiment configuration file is missing, malformed, or inconsistent."""
