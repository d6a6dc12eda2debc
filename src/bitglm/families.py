"""The model-family interface the generic machinery is written against.

A family describes, for every observation i with natural parameter
eta_i = V_i theta and threshold tau_i, the distribution of a sufficient
statistic T of dimension d and of the censoring bit B (+1 iff the
observation falls at or below its threshold).

Design notes
------------
* All statistical methods are vectorized over observations: they take a
  DesignSet (plus a bits array where relevant) and return stacked arrays.
* The primitive conditional quantities are the *deviations*
  E[T|B=b] - E[T] and Cov(T|B=b) - Cov(T), for which every concrete
  family has a cancellation-free closed form.  The plain conditional
  moments are derived from them.  The score, the Hessian and all Fisher
  information assemblies consume only the deviations, which is what lets
  independent computation routes agree to ~1e-10 instead of ~1e-6.
* ``log_base_measure`` is carried for completeness of the density
  specification; no operation in this package consumes it (it cancels
  from every censored-likelihood quantity).
"""

import abc

import numpy as np

from .exceptions import DomainError
from .types import DesignSet, ParameterVector, check_domain


class ModelFamily(abc.ABC):
    """Abstract base for concrete model families.

    Subclasses set ``name``, ``d`` and ``k`` and implement the abstract
    methods.  ``theta`` arguments are plain (k,) arrays; use
    :meth:`parameter_vector` to get a validated ParameterVector.
    """

    #: registry name, e.g. "gaussian-case1"
    name = None
    #: sufficient-statistic dimension
    d = None
    #: parameter dimension
    k = None

    # -- parameter domain ------------------------------------------------
    @property
    @abc.abstractmethod
    def domain(self):
        """Per-coordinate constraints, a tuple of DOMAIN_KINDS entries."""

    def parameter_vector(self, values):
        return ParameterVector(values, self.domain)

    def check_theta(self, theta):
        check_domain(np.atleast_1d(np.asarray(theta, dtype=float)), self.domain)

    # -- density description ----------------------------------------------
    @abc.abstractmethod
    def log_partition(self, theta, designs):
        """phi(eta_i) per observation, shape (n,)."""

    @abc.abstractmethod
    def log_base_measure(self, x, designs):
        """log h(x_i) per observation; unused by any operation here."""

    # -- designs -----------------------------------------------------------
    @abc.abstractmethod
    def check_designs(self, designs):
        """Validate shapes, thresholds interior to the support, aux data."""

    # -- censoring ----------------------------------------------------------
    @abc.abstractmethod
    def prob_leq(self, theta, designs):
        """P(X_i <= tau_i) per observation, shape (n,)."""

    # -- sufficient-statistic moments ----------------------------------------
    @abc.abstractmethod
    def mean_T(self, theta, designs):
        """E[T_i], shape (n, d)."""

    @abc.abstractmethod
    def cov_T(self, theta, designs):
        """Cov(T_i), shape (n, d, d)."""

    @abc.abstractmethod
    def cond_mean_dev_T(self, theta, designs, bits):
        """E[T_i | B_i=b_i] - E[T_i], shape (n, d), cancellation-free."""

    @abc.abstractmethod
    def cond_cov_dev_T(self, theta, designs, bits):
        """Cov(T_i | B_i=b_i) - Cov(T_i), shape (n, d, d)."""

    def cond_devs_T(self, theta, designs, bits):
        """(mean deviation, covariance deviation) in one pass.

        Solvers call this once per iteration; families with shared
        intermediate quantities (standardized thresholds, hazard ratios)
        override it to avoid recomputing them.
        """
        return (
            self.cond_mean_dev_T(theta, designs, bits),
            self.cond_cov_dev_T(theta, designs, bits),
        )

    def conditional_mean_T(self, theta, designs, bits):
        """E[T_i | B_i=b_i], shape (n, d)."""
        return self.mean_T(theta, designs) + self.cond_mean_dev_T(theta, designs, bits)

    def conditional_cov_T(self, theta, designs, bits):
        """Cov(T_i | B_i=b_i), shape (n, d, d)."""
        return self.cov_T(theta, designs) + self.cond_cov_dev_T(theta, designs, bits)

    # -- optional diagnostics --------------------------------------------------
    def third_central_T(self, theta, designs):
        """Third central moment tensor of T_i, shape (n, d, d, d)."""
        raise NotImplementedError(f"{self.name} does not provide third central moments")

    def cond_third_central_T(self, theta, designs, bits):
        """Third central moment tensor of T_i given B_i=b_i."""
        raise NotImplementedError(f"{self.name} does not provide third central moments")

    @abc.abstractmethod
    def third_abs_moment_T(self, theta, designs):
        """E[||T_i||^3] per observation, shape (n,)."""

    # -- simulation --------------------------------------------------------------
    @abc.abstractmethod
    def sample(self, theta, designs, rng):
        """Draw one X_i per observation, shape (n,)."""

    # -- fitting ----------------------------------------------------------------
    def initial_point(self, data):
        """Deterministic starting point of the MLE solver for ``data``.

        Defaults to ones, sign-adjusted to the domain; the concrete
        families derive theirs from the data.
        """
        return np.array([-1.0 if kind == "negative" else 1.0 for kind in self.domain])

    # -- coordinate conversions -----------------------------------------------------
    def to_moment(self, theta):
        """Map natural coordinates to the family's reporting coordinates.

        Defaults to the identity; families with a distinct user-facing
        parameterization override this (and ``from_moment``).
        """
        return np.array(np.atleast_1d(theta), dtype=float)

    def from_moment(self, values):
        """Inverse of :meth:`to_moment`."""
        return np.array(np.atleast_1d(values), dtype=float)

    def moment_labels(self):
        """Names of the reporting coordinates, for tables and CLI output."""
        return tuple(f"theta{j + 1}" for j in range(self.k))

    # -- helpers -----------------------------------------------------------------------
    def _coerce(self, theta, designs):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.k,):
            raise DomainError(f"{self.name} expects {self.k} parameters, got shape {theta.shape}")
        designs = DesignSet.coerce(designs)
        if (designs.d, designs.k) != (self.d, self.k):
            raise DomainError(
                f"{self.name} expects designs of shape ({self.d}, {self.k}), "
                f"got ({designs.d}, {designs.k})"
            )
        return theta, designs
