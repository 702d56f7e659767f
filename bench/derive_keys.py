"""Print the bound_search key list: every (q, n, d, k) with q in
{2,3,4,5,7,8,9}, 8 <= n <= 19, d in {4,6,8} and d/2 < k <= n/2 for which
the shipped registry admits at least one bound family.

Run from the repository root:  python3 bench/derive_keys.py > bench/data/keys.txt
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from cdckit.bounds import FAMILY_EVALUATORS, optimize_parameters  # noqa: E402
from cdckit.errors import EmptyGrid  # noqa: E402
from cdckit.registry import shipped_registry  # noqa: E402


def admitted(q, n, d, k):
    for family in FAMILY_EVALUATORS:
        try:
            optimize_parameters(q, n, d, k, family, shipped_registry())
            return True
        except EmptyGrid:
            pass
    return False


if __name__ == "__main__":
    print("# q n d k: keys the shipped registry admits (see bench/derive_keys.py)")
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(8, 20):
            for d in (4, 6, 8):
                for k in range(d // 2 + 1, n // 2 + 1):
                    if admitted(q, n, d, k):
                        print(q, n, d, k)
