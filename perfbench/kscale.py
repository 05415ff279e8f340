"""Scaling in the number of factors k, timed without tracing.

Each value is the median wall time of a few repetitions of one library
call: building the multiview ``Multidegree`` (which runs the support round
trip), enumerating its hypersurface betas, and computing the multifocal
tensor of a seeded camera configuration (inclusive of the genericity check).
"""

import statistics
import time

import exact
from multichow import multidegree as mdg
from multichow import multiview as mv
from multichow import polymatroid as pm

MULTIDEGREE_REPS = {4: 5, 6: 5, 8: 3, 10: 1}
TENSOR_PROFILES = {2: (2, 2), 3: (2, 1, 1), 4: (1, 1, 1, 1)}


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def measure(cameras):
    """``cameras`` maps k (as a string, from JSON) to a camera list."""
    out = {}
    for k, reps in MULTIDEGREE_REPS.items():
        sig = pm.SpaceSignature((2,) * k, 3)
        coeffs = exact.multiview_coeffs(k)
        delta = pm.RankFunction(k, tuple(exact.multiview_delta(k)))
        out[f"multidegree.construct_ms.k{k}"] = _median_ms(
            lambda: mdg.Multidegree(sig, coeffs), reps
        )
        out[f"polymatroid.enumerate_beta_ms.k{k}"] = _median_ms(
            lambda: pm.enumerate_beta(sig, delta, "hypersurface"), reps
        )
    for k, beta in TENSOR_PROFILES.items():
        config = mv.CameraConfiguration(cameras[str(k)])
        out[f"multiview.tensor_ms.k{k}"] = _median_ms(
            lambda: mv.multifocal_tensor(config, beta), 5
        )
    return out
