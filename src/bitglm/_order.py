"""Per-row special functions evaluated in the order of a small integer key.

scipy's special functions branch per row on their arguments: erfcx (S. G.
Johnson's Faddeeva package) over about 100 Chebyshev pieces, log_ndtr over
its series, and the incomplete gamma over series, continued fractions and
asymptotic expansions whose lengths follow the arguments.  On rows in
random order nearly every call mispredicts a branch.  ``in_key_order``
evaluates a call's rows sorted by a key that names each row's branch and
places the values back in row order.  Each value depends on its own row's
arguments alone, so every byte stays the same.  The kernels that use it
(``_gauss``, ``_poisson``) give its measured cost per row.
"""

import numpy as np

#: Rows below which a call evaluates in row order.  On a 2-vCPU Xeon the key,
#: its sort and the gathers cost about what they save near 2,000 rows: in
#: key order pdtrc took 1.09x its row-order time on 1,152 info-sweep rows
#: and 0.99x on 1,819, erfcx 1.29x at 1,000 and 0.90x at 2,000.  Fits on a
#: few grouped rows never pay them.
ORDERED_ROWS = 2048
#: Rows per ordered block, which keeps each argsort in cache: over 10^5
#: one-byte keys, blocks of 16,384 took 635 us to sort and one argsort of
#: all of them 1,298 us.
ORDER_BLOCK = 16384


def in_key_order(function, key, *args):
    """``function(*args)``, an array or a tuple of arrays with one value per row
    that depends on that row's arguments alone, returned in row order: bit
    for bit the plain call.  From ORDERED_ROWS rows of 1-d ``args`` on, the
    rows are evaluated in blocks of ORDER_BLOCK, each sorted by ``key(*args)``,
    an 8- or 16-bit integer per row, which numpy's stable argsort sorts by
    radix."""
    n = args[0].size
    if args[0].ndim != 1 or n < ORDERED_ROWS:
        return function(*args)
    keys = key(*args)
    order = np.empty(n, dtype=np.intp)
    for start in range(0, n, ORDER_BLOCK):
        block = slice(start, start + ORDER_BLOCK)
        order[block] = np.argsort(keys[block], kind="stable")
        order[block] += start
    values = function(*(a[order] for a in args))

    def placed(v):
        out = np.empty_like(v)
        out[order] = v
        return out

    return tuple(map(placed, values)) if isinstance(values, tuple) else placed(values)
