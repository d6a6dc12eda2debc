"""The benchmark tracer's contract with the package.

``bench/tracing.py`` spans calls by rebinding attributes that it looks up
in each owner's own ``__dict__`` (a module, or a concrete family class).
Moving a traced function or method elsewhere, e.g. from a family class up
into ``ModelFamily``, must fail here instead of in a traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
from bitglm import likelihood  # noqa: E402


def _sites():
    """(owner, attribute) per rebound site; math.fsum is reached through
    ``likelihood.math``."""
    return [
        (likelihood, "math") if owner is None else (owner, attr)
        for _, owner, attr in tracing.SITES
    ]


def test_every_traced_site_is_an_own_attribute():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in _sites()
        if attr not in vars(owner)
    ]
    assert not missing, f"the tracer cannot rebind {missing}"


def test_install_then_remove_restores_every_attribute():
    sites = _sites()
    originals = [vars(owner)[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebound = [vars(owner)[attr] for owner, attr in sites]
    finally:
        tracer.remove()
    assert all(new is not old for new, old in zip(rebound, originals))
    for (owner, attr), old in zip(sites, originals):
        assert vars(owner)[attr] is old, f"{owner}.{attr} was not restored"
