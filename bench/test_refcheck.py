"""The reference checker must flag a wrong witness, a missed defect and a
non-RREF word.  Run with `python3 -m pytest bench/test_refcheck.py` or
`python3 bench/test_refcheck.py`.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refcheck  # noqa: E402


def lifted_gf2():
    """(4, 4, 4, 2)_2: rows of (I_2 | A), A in a rank-distance-2 code."""
    mats = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))]
    words = sorted(((1, 0) + a[0], (0, 1) + a[1]) for a in mats)
    return refcheck.RefCode(2, 4, 2, 4, words)


def lifted_gf3():
    """(4, 9, 4, 2)_3: multiplication matrices of GF(9) = GF(3)[i]/(i^2 + 1)."""
    words = sorted(((1, 0, a, -b % 3), (0, 1, b, a)) for a in range(3) for b in range(3))
    return refcheck.RefCode(3, 4, 2, 4, words)


def report(code, i, j, min_found, pairs=None):
    n = len(code.words)
    return {"mode": "exhaustive", "claimed_d": code.d, "min_found": min_found,
            "ok": min_found >= code.d,
            "pairs_checked": n * (n - 1) // 2 if pairs is None else pairs,
            "witness": {"indices": [i, j], "rows_i": [list(r) for r in code.words[i]],
                        "rows_j": [list(r) for r in code.words[j]]}}


class RefCheckTest(unittest.TestCase):
    def test_distances_match_brute_force(self):
        for code in (lifted_gf2(), lifted_gf3()):
            n = len(code.words)
            self.assertEqual({code.distance(i, j) for i in range(n) for j in range(i + 1, n)}, {4})
        self.assertEqual(refcheck.rank([(1, 2, 0), (2, 1, 0)], 3), 1)
        self.assertEqual(refcheck.rank([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 2), 2)

    def test_correct_report_passes(self):
        for code in (lifted_gf2(), lifted_gf3()):
            self.assertEqual(refcheck.check_words(code), [])
            self.assertEqual(refcheck.check_report(code, report(code, 0, 1, 4), 50, 1), [])

    def test_flags_wrong_witness(self):
        code = lifted_gf2()
        # (0, 1) is also at distance 4 and precedes (0, 2) in i-major order
        self.assertTrue(any("precedes" in p for p in
                            refcheck.check_report(code, report(code, 0, 2, 4), 50, 1)))
        # the named pair is not at the reported distance
        self.assertTrue(any("witness" in p for p in
                            refcheck.check_report(code, report(code, 0, 1, 2), 50, 1)))
        self.assertTrue(any("pairs_checked" in p for p in
                            refcheck.check_report(code, report(code, 0, 1, 4, pairs=5), 50, 1)))

    def test_flags_missed_defect(self):
        for code in (lifted_gf2(), lifted_gf3()):
            planted, expect_min, witness = refcheck.plant_defect(code, seed=3)
            self.assertEqual(expect_min, 2)
            self.assertEqual(len(planted.words), len(code.words) + 1)
            self.assertEqual(refcheck.check_words(planted), [])
            good = report(planted, *witness, expect_min)
            self.assertEqual(refcheck.check_planted(planted, 2, witness, good, 50, 1), [])
            # a verifier that misses the planted word reports the clean minimum
            first = next((i, j) for i in range(len(planted.words))
                         for j in range(i + 1, len(planted.words))
                         if planted.distance(i, j) == 4)
            missed = report(planted, *first, 4)
            self.assertTrue(refcheck.check_planted(planted, 2, witness, missed, 50, 1))

    def test_flags_non_rref_word(self):
        code = lifted_gf2()
        swapped = (code.words[1][1], code.words[1][0])  # pivots out of order
        bad = refcheck.RefCode(2, 4, 2, 4, [code.words[0], swapped] + code.words[2:])
        self.assertTrue(any("RREF" in p for p in refcheck.check_words(bad)))
        dup = refcheck.RefCode(2, 4, 2, 4, [code.words[0]] + code.words)
        self.assertTrue(any("duplicate" in p for p in refcheck.check_words(dup)))
        uncleared = ((1, 1, 0, 0), (0, 1, 0, 1))  # pivot column 1 not cleared in row 0
        self.assertIsNone(refcheck.pivots_of(uncleared))

    def test_parse_round_trip(self):
        code = lifted_gf3()
        text = refcheck.cdc_text(code.q, code.n, code.k, code.d, code.words)
        self.assertEqual(refcheck.parse_cdc(text).words, code.words)
        with self.assertRaises(ValueError):
            refcheck.parse_cdc(text.replace("CDC 3 4 2 4 9", "CDC 3 4 2 4 10"))


if __name__ == "__main__":
    unittest.main()
