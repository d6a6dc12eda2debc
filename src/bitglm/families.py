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
  route that returns both, and ``cond_mean_dev_T`` is its first half.
  The score and the Hessian consume only the deviations, never the plain
  conditional moments, which is what lets independent computation routes
  agree to ~1e-10 instead of ~1e-6.
* A bit takes two values, so Cov(E[T|B]) is rank one, w u u^T, and
  ``bit_information_T`` gives its factors (u, w), cancellation-free, from
  one evaluation of each tail and of the density.  Each concrete family
  defines ``cond_mean_dev_T`` itself, as the first half of its
  ``cond_devs_T``: the benchmark tracer spans it in the class, and the
  tests check the factors against the two-bit mixture of the deviations.
* P(B_i = +1) is a log-concave cdf of a linear index offset_i + X_i beta
  (``index_regressors``; beta is alpha, 1/sigma, (1/sigma, alpha/sigma)
  or theta), and ``index_link`` gives log P(B_i = b_i) and its first two
  derivatives in the index: the one log-space likelihood route, concave in
  beta.  theta is beta or beta^T C_m beta / 2 per coordinate m, for the
  constant second derivatives C = ``index_curvature``.
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

    #: the coordinate of the index parameter beta kept positive (1/sigma), or None
    index_positive = None
    #: d^2 theta_m / d beta_j d beta_l, constant, shape (k, k, k); None where theta = beta
    index_curvature = None

    @abc.abstractmethod
    def index_regressors(self, designs):
        """(X, offset), X of shape (n, k): P(B_i = +1) increases in the linear
        index offset_i + X_i beta, for a reparameterisation beta of theta."""

    @abc.abstractmethod
    def index_link(self, z, designs, bits):
        """(log P(B_i = b_i), its first and second derivatives in z_i) at the
        linear index z, each shape (n,); log P is -inf where P is 0."""

    def theta_from_index(self, beta):
        """theta at the index parameter beta."""
        C = self.index_curvature
        return beta if C is None else 0.5 * (C @ beta) @ beta

    def index_from_theta(self, theta):
        """Inverse of :meth:`theta_from_index`, with beta_p > 0."""
        return theta

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
    @abc.abstractmethod
    def initial_point(self, data):
        """Deterministic starting point of the MLE solver for ``data``."""

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
