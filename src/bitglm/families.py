"""The model-family interface the generic machinery is written against.

A family describes, for every observation i with natural parameter
eta_i = V_i theta and threshold tau_i, the distribution of a sufficient
statistic T of dimension d and of the censoring bit B (+1 iff the
observation falls at or below its threshold).

Design notes
------------
* All statistical methods are vectorized over observations: they take a
  DesignSet (plus a bits array where relevant) and return stacked arrays.
  A DesignSet is the one design type; anything else raises TypeError.
* The primitive conditional quantities are the *deviations*
  E[T|B=b] - E[T] and Cov(T|B=b) - Cov(T), for which every concrete
  family has a cancellation-free closed form.  ``cond_devs_T`` is the one
  route that returns both; the plain conditional moments, the Hessian and
  the curvature route to the information are derived from it, and
  ``cond_mean_dev_T`` is its first half.  The score, the Hessian and all
  Fisher information assemblies consume only the deviations, which is
  what lets independent computation routes agree to ~1e-10 instead of
  ~1e-6.
* A bit takes two values, so Cov(E[T|B]) is rank one, w u u^T, and
  ``bit_information_T`` gives its factors (u, w), cancellation-free, from
  one evaluation of each tail and of the density.  Each concrete family
  defines ``cond_mean_dev_T`` itself, as the first half of its
  ``cond_devs_T``: the benchmark tracer spans it in the class, and the
  tests check the factors against the two-bit mixture of the deviations.
* A family also owns what the CLI and the Monte Carlo harness need to
  build it: the config keys it reads (``per_obs_key``, ``param_keys``,
  ``fit_keys``), ``from_params``, ``from_data`` and ``uncensored_mle``.
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
    #: config key of the per-observation constant, e.g. "weights"
    per_obs_key = None
    #: reporting parameters a model config or ``true_params`` gives
    param_keys = ()
    #: model-section keys a ``fit`` config gives besides ``name``
    fit_keys = ()

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

    # -- designs -----------------------------------------------------------
    def check_designs(self, designs):
        """Validate thresholds interior to the support and aux data.

        Does nothing by default, which is all a family whose support is
        the whole real line needs.
        """

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
    def cond_devs_T(self, theta, designs, bits):
        """(E[T_i | B_i=b_i] - E[T_i], Cov(T_i | B_i=b_i) - Cov(T_i)),
        shapes (n, d) and (n, d, d), cancellation-free and in one pass."""

    @abc.abstractmethod
    def bit_information_T(self, theta, designs):
        """(u, w) with Cov(E[T_i | B_i]) = w_i u_i u_i^T, u (n, d) and
        w >= 0 (n,); w is not finite where a bit has probability 0."""

    @abc.abstractmethod
    def cond_mean_dev_T(self, theta, designs, bits):
        """E[T_i | B_i=b_i] - E[T_i], shape (n, d): the first half of
        :meth:`cond_devs_T`."""

    def conditional_mean_T(self, theta, designs, bits):
        """E[T_i | B_i=b_i], shape (n, d)."""
        return self.mean_T(theta, designs) + self.cond_mean_dev_T(theta, designs, bits)

    def conditional_cov_T(self, theta, designs, bits):
        """Cov(T_i | B_i=b_i), shape (n, d, d)."""
        return self.cov_T(theta, designs) + self.cond_devs_T(theta, designs, bits)[1]

    # -- moment conditions -------------------------------------------------------
    @abc.abstractmethod
    def third_abs_moment_T(self, theta, designs):
        """E[||T_i||^3] per observation, shape (n,)."""

    # -- simulation --------------------------------------------------------------
    @abc.abstractmethod
    def sample(self, theta, designs, rng):
        """Draw one X_i per observation, shape (n,)."""

    # -- construction from configs and data ---------------------------------------
    @classmethod
    def from_params(cls, values, params):
        """(family, theta0) from the per-observation constants ``values``
        and a dict of the reporting parameters ``param_keys``.  Defaults to
        ``cls(values)`` at the coordinates ``moment_labels`` names."""
        family = cls(values)
        return family, family.from_moment([params[key] for key in family.moment_labels()])

    @classmethod
    def from_data(cls, V, taus, section):
        """(family, designs) for data rows (V, taus); ``section`` maps the
        ``fit_keys`` to their values.  Defaults to a family whose constant
        per observation is its design's first entry."""
        return cls(V[:, 0, 0]), DesignSet(V, taus)

    @abc.abstractmethod
    def uncensored_mle(self, designs, x):
        """Maximum-likelihood theta from the raw observations ``x``; raises
        NonIdentifiable where it has no finite value."""

    # -- fitting ----------------------------------------------------------------
    def initial_point(self, data):
        """Deterministic starting point of the MLE solver for ``data``.

        Defaults to ones; the concrete families derive theirs from the data.
        """
        return np.ones(self.k)

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
        """(theta, designs) checked against the family's shapes; ``theta``
        is None for a method that takes no parameter."""
        if theta is not None:
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            if theta.shape != (self.k,):
                raise DomainError(
                    f"{self.name} expects {self.k} parameters, got shape {theta.shape}"
                )
        if not isinstance(designs, DesignSet):
            raise TypeError(f"designs must be a DesignSet, got {type(designs).__name__}")
        if (designs.d, designs.k) != (self.d, self.k):
            raise DomainError(
                f"{self.name} expects designs of shape ({self.d}, {self.k}), "
                f"got ({designs.d}, {designs.k})"
            )
        return theta, designs
