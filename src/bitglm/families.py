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
* P(B_i = +1) = F(z_i), a log-concave cdf of a linear index z_i =
  offset_i + X_i beta (``index_regressors``; beta is alpha, 1/sigma,
  (1/sigma, alpha/sigma) or theta).  theta is beta or beta^T C_m beta / 2
  per coordinate m, for the constant second derivatives C =
  ``index_curvature``.  The two primitives are functions of z:
  ``index_link`` gives log P(B_i = b_i) and its first two derivatives in
  z, the one log-space likelihood route, concave in beta; ``index_weight``
  gives F'(z)^2 / (F (1 - F)), the information a bit carries about z.  The
  likelihood module takes both to theta by the chain rule.  The solver
  iterates in beta and starts there: ``initial_point`` returns a beta.
* Each family fixes the design entries its closed forms assume, and only
  ``check_designs`` reads them.  It rejects any other value there, a
  case-2 design set without its known means and a negative Poisson
  threshold.  It runs in ``index_regressors``, where every fit and
  censored information starts, and in each method that reads the means or
  a Poisson threshold at theta, or whose closed form assumes the fixed
  entries (the uncensored information).
* ``uncensored_information`` is the family's closed form of sum_i V_i^T
  Cov(T_i) V_i (Lehmann & Casella, 1998, 1.5): a dot product or two over
  the rows.  The per-row Cov(T_i) is a test oracle, ``_oracles.cov_statistic``.
* The contract is the index route: the abstract methods are the ones the
  library calls.  The paper's conditional *deviations* E[T|B=b] - E[T]
  and Cov(T|B=b) - Cov(T) (``cond_devs_T``, ``cond_mean_dev_T``) and
  ``prob_leq`` are per-class methods outside it: the tests check the index
  route against them, and the benchmark tracer spans them in each
  concrete class.
* ``domain`` is a class attribute, unbounded unless a family overrides it,
  and ``check_theta`` is the one theta check: every method that takes
  theta runs it.  theta is a plain (k,) array, and so is an estimate
  (``FitResult.theta_hat``, read-only, checked before it is returned).
* A family also owns what the CLI and the Monte Carlo harness need to
  build it: the config keys it reads (``per_obs_key``, ``param_keys``,
  ``fit_keys``), ``from_params``, ``from_data`` and ``uncensored_mle``.
"""

import abc

import numpy as np

from .exceptions import DomainError
from .types import DesignSet


class ModelFamily(abc.ABC):
    """Abstract base for concrete model families.

    Subclasses set ``name``, ``d`` and ``k`` and implement the abstract
    methods.  ``theta`` arguments are (k,) arrays, checked by
    :meth:`check_theta`.
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
    #: per-coordinate constraints, each "unbounded" or "positive"
    domain = ("unbounded",)

    def check_theta(self, theta):
        """theta as a (k,) float array; DomainError unless it has k
        coordinates, all finite and inside ``domain``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.k,):
            raise DomainError(f"{self.name} expects {self.k} parameters, got shape {theta.shape}")
        if not np.isfinite(theta).all():
            raise DomainError("parameter coordinates must be finite")
        for j, (v, kind) in enumerate(zip(theta, self.domain)):
            if kind == "positive" and not v > 0.0:
                raise DomainError(f"coordinate {j} must be strictly positive, got {v!r}")
        return theta

    # -- designs -----------------------------------------------------------
    def check_designs(self, designs):
        """Validate thresholds interior to the support, aux data and the
        design entries the family fixes.

        Does nothing by default, which is all a family whose support is
        the whole real line and whose designs are free needs.
        """

    def _check_fixed(self, V, bad, form):
        """DomainError at the first design where ``bad`` holds: the family
        fixes its design entries to ``form``."""
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainError(f"{self.name} fixes V = {form}, got {V[i].tolist()}", index=i)

    # -- censoring ----------------------------------------------------------
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

    @abc.abstractmethod
    def index_weight(self, z, designs):
        """F'(z_i)^2 / (F(z_i) (1 - F(z_i))) for F(z) = P(B_i = +1) at the
        linear index z, shape (n,); not finite where a bit has probability 0."""

    def theta_from_index(self, beta):
        """theta at the index parameter beta."""
        C = self.index_curvature
        return beta if C is None else 0.5 * (C @ beta) @ beta

    def index_from_theta(self, theta):
        """Inverse of :meth:`theta_from_index`, with beta_p > 0."""
        return theta

    # -- sufficient-statistic moments ----------------------------------------
    @abc.abstractmethod
    def uncensored_information(self, theta, designs):
        """sum_i V_i^T Cov(T_i) V_i, shape (k, k): the information of the raw
        observations, in the family's closed form."""

    # -- moment conditions -------------------------------------------------------
    @abc.abstractmethod
    def max_third_abs_moment_T(self, theta, designs):
        """max_i sum_j E|T_ij|^3, a float: E|T_i|^3 where d = 1."""

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
    def initial_point(self, data, index, tally):
        """The solver's start in beta (finite, beta_p > 0) for the grouped
        ``data``, its ``index_regressors`` ``index`` and the design ``tally``."""

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
        """Names of the reporting coordinates, for tables and CLI output: the
        ``param_keys`` that a fit does not take as known (``fit_keys``)."""
        return tuple(key for key in self.param_keys if key not in self.fit_keys)

    # -- helpers -----------------------------------------------------------------------
    def _coerce(self, theta, designs):
        """(theta, designs) checked against the family's shapes; ``theta``
        is None for a method that takes no parameter."""
        if theta is not None:
            theta = self.check_theta(theta)
        if not isinstance(designs, DesignSet):
            raise TypeError(f"designs must be a DesignSet, got {type(designs).__name__}")
        if (designs.d, designs.k) != (self.d, self.k):
            raise DomainError(
                f"{self.name} expects designs of shape ({self.d}, {self.k}), "
                f"got ({designs.d}, {designs.k})"
            )
        return theta, designs
