"""What numpy's float64 exp and log run on this host, for failure messages of
tests whose bytes depend on it."""

import numpy as np


def numpy_kernels() -> str:
    """numpy's version and the SIMD target of its float64 exp and log kernels,
    for a frozen-digest failure: the digests depend on both."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0

        info = opt_func_info(func_name="^(exp|log)$", signature="float64")
        targets = [info[f]["dd"]["current"] for f in ("exp", "log")]
    except (ImportError, KeyError):
        targets = ["unknown", "unknown"]
    return "numpy {}, float64 exp on {}, log on {}".format(np.__version__, *targets)
