"""The ``scipy.special`` functions crmfinite calls, imported on first use.

``import scipy.special`` costs more than the rest of ``import crmfinite``
together (most of it is scipy's array-API layer), and commands such as
``make-data`` and ``bounds-table`` call none of these functions.  Modules
write ``from . import _special as special`` and call ``special.gammaln``
as before.  The first lookup of a name imports ``scipy.special`` and stores
the function in this module's globals (PEP 562), so later lookups are plain
module-attribute lookups that return the very same scipy object.
"""

_NAMES = frozenset({"betainc", "betaincinv", "betaln", "digamma", "gammaln",
                    "kolmogorov", "logsumexp", "poch"})


def __getattr__(name):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special

    value = globals()[name] = getattr(special, name)
    return value
