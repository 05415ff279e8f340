"""Check the multiview multidegree at k = 4 against a Groebner basis.

Usage (from the repository root, with sympy and pytest installed)::

    python3 tools/groebner_k4.py

``tests/test_multiview_groebner.py`` reads the multidegree of the multiview
variety off the initial ideal of a sympy Groebner basis for k = 2 and 3.
This script runs the same function, ``multidegree_from_the_initial_ideal``,
on ``random_cameras(4, 0)``, which takes tens of seconds and so stays out of
the tier-1 suite.  It exits 0 when the result equals the coefficients of
``multiview_multidegree(4)`` and 1 otherwise, printing both.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from multichow.multiview import multiview_multidegree, random_cameras  # noqa: E402
from test_multiview_groebner import multidegree_from_the_initial_ideal  # noqa: E402


def main() -> int:
    found = multidegree_from_the_initial_ideal(random_cameras(4, 0))
    expected = dict(multiview_multidegree(4).coeffs)
    if found != expected:
        print(f"initial ideal gives {sorted(found.items())}", file=sys.stderr)
        print(f"multiview_multidegree(4) is {sorted(expected.items())}", file=sys.stderr)
        return 1
    print(f"k = 4: {len(found)} exponents, every coefficient agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
