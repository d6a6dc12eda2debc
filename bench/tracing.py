"""Spans around calls into bitglm's layers, recorded from outside.

``Tracer.install`` rebinds module and class attributes so that every call
through them opens a span (name, start, end, parent); ``Tracer.remove``
puts the originals back.  Spans stay in memory until ``write``.  The
program itself is not modified.
"""

import json
import math
import time
from array import array
from collections import Counter

from bitglm import _gauss, _poisson, estimator, fisher, likelihood, models, montecarlo
from bitglm.exceptions import NonIdentifiable

FAMILY_CLASSES = (models.GaussianCase1, models.GaussianCase2, models.GaussianCase3, models.PoissonModel)
FAMILY_METHODS = ("prob_leq", "cond_devs_T", "cond_mean_dev_T", "sample")

#: (span name, owner, attribute) for every rebound call site.  Metric names
#: may not start with "_", so the private kernel modules _gauss and _poisson
#: report as gauss and poisson.  The op-level functions (run_trial,
#: dpi_check) are traced too, so each op is the root of its spans.
SITES = (
    ("montecarlo.run_trial", montecarlo, "run_trial"),
    ("montecarlo.family_and_theta", montecarlo, "family_and_theta"),
    ("estimator.fit", montecarlo, "fit"),
    ("estimator.newton", estimator, "_newton"),
    ("estimator.ascent_direction", estimator, "_ascent_direction"),
    ("estimator.safe_ll", estimator, "_safe_ll"),
    ("likelihood.evaluate", likelihood, "evaluate"),
    ("likelihood.log_likelihood", likelihood, "log_likelihood"),
    ("likelihood.fsum", None, "fsum"),
    *((f"models.{m}", cls, m) for m in FAMILY_METHODS for cls in FAMILY_CLASSES),
    ("gauss.signed_hazard", _gauss, "signed_hazard"),
    ("gauss.norm_cdf", _gauss, "norm_cdf"),
    ("poisson.cdf", _poisson, "poisson_cdf"),
    ("poisson.sf", _poisson, "poisson_sf"),
    ("poisson.pmf", _poisson, "poisson_pmf"),
    ("fisher.dpi_check", fisher, "dpi_check"),
    ("fisher.fim_censored", fisher, "fim_censored"),
    ("fisher.fim_uncensored", fisher, "fim_uncensored"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SITES))

STATUSES = ("converged", "max-iterations", "boundary-divergence", "non-identifiable", "degenerate")


class _MathProxy:
    """Stands in for ``likelihood.math`` so that ``math.fsum`` opens a span."""

    def __init__(self, fsum):
        self.fsum = fsum

    def __getattr__(self, name):
        return getattr(math, name)


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self.rows = 0
        self.status = Counter()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, on_call=None, on_return=None):
        """``fn`` wrapped so that each call records one span under ``name``."""
        nid = self._ids[name]
        clock = time.perf_counter
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self._stack,
        )

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                ends[i] = clock()
                stack.pop()
                if on_return is not None:
                    on_return(None, err)
                raise
            ends[i] = clock()
            stack.pop()
            if on_return is not None:
                on_return(result, None)
            return result

        return traced

    def _count_rows(self, args):
        self.rows += args[2].n

    def _count_status(self, result, err):
        if err is None:
            self.status[result.status] += 1
        elif isinstance(err, NonIdentifiable):
            self.status["non-identifiable"] += 1
        else:
            self.status["degenerate"] += 1

    # -- installing --------------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, owner, attr in SITES:
            if owner is None:  # math.fsum, reached through likelihood.math
                proxy = _MathProxy(self.span(name, math.fsum))
                self._rebind(likelihood, "math", proxy)
                continue
            fn = owner.__dict__[attr]
            if name == "estimator.fit":
                wrapped = self.span(name, fn, on_return=self._count_status)
            elif name in ("likelihood.evaluate", "likelihood.log_likelihood"):
                wrapped = self.span(name, fn, on_call=self._count_rows)
            else:
                wrapped = self.span(name, fn)
            self._rebind(owner, attr, wrapped)

    def remove(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reducing ----------------------------------------------------------

    def layer_metrics(self):
        """calls, busy_s and self_s per span name, plus the solver counts."""
        k = len(self.names)
        calls = [0] * k
        busy = [0.0] * k
        child = [0.0] * k
        newton = self._ids["estimator.newton"]
        evaluate = self._ids["likelihood.evaluate"]
        safe_ll = self._ids["estimator.safe_ll"]
        linesearch_evals = 0
        evals_in_newton = Counter()
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        for i in range(len(names)):
            nid = names[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            busy[nid] += dur
            p = parents[i]
            if p < 0:
                continue
            child[names[p]] += dur
            if names[p] == newton:
                if nid == safe_ll:
                    linesearch_evals += 1
                elif nid == evaluate:
                    evals_in_newton[p] += 1
        # every Newton run evaluates once at its start, then once per
        # accepted line-search step
        accepted = sum(max(c - 1, 0) for c in evals_in_newton.values())
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.busy_s"] = busy[nid]
            out[f"{name}.self_s"] = busy[nid] - child[nid]
        out["likelihood.rows"] = self.rows
        out["estimator.newton_iters"] = calls[self._ids["estimator.ascent_direction"]]
        out["estimator.linesearch_evals"] = linesearch_evals
        out["estimator.linesearch_accept_ratio"] = (
            accepted / linesearch_evals if linesearch_evals else 0.0
        )
        for status in STATUSES:
            out[f"estimator.status.{status}"] = self.status[status]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": [list(self.span_name), list(self.span_start),
                              list(self.span_end), list(self.span_parent)],
                },
                fh,
            )
