"""Golden outputs: every plan family at q = 2, linkage at q = 3, 4, 5, 7, 8
and 9, and multilevel_II at q = 3.

For each desk-size plan the test pins the SHA-256 of the file
`build --out` writes and the stdout of exhaustive and sampled `verify`,
`bound --plan` and `build --count-only`.  The expected values live in `golden.json`;
`PYTHONPATH=src python tests/test_golden.py` rewrites it from the current
code, for a change meant to alter these outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from cdckit.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

PLANS = {
    "linkage_q2": "family = linkage\nq = 2\nn = 6\nd = 4\nk = 3\nn1 = 3\n",
    "blocks_q2": "family = blocks\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\na1 = 2\nb1 = 2\nb2 = 2\n",
    "multiblocks_q2": "family = multiblocks\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\na1 = 2\n"
                      "b1 = 1\nb2 = 1\nt1 = 2\nt2 = 2\n",
    "parallel_blocks_q2": "family = parallel_blocks\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\n"
                          "a1 = 2\nb1 = 1\nb2 = 1\nt1 = 2\nt2 = 2\nc1 = 1\nc2 = 1\n",
    # both vectors leave a left block as wide as d/2: coset unions
    "multilevel_I_q2": "family = multilevel_I\nq = 2\nn = 6\nd = 2\nk = 3\nn1 = 3\nu1 = 2\n"
                       "c1 = 1\nc2 = 1\n",
    # the second vector leaves no left block
    "multilevel_II_q2": "family = multilevel_II\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\nu1 = 2\n"
                        "b1 = 1\nb2 = 1\n",
    # the second vector leaves a left block narrower than d/2
    "multilevel_II_n9_q2": "family = multilevel_II\nq = 2\nn = 9\nd = 4\nk = 4\nn1 = 5\n"
                           "u1 = 2\nb1 = 1\nb2 = 1\n",
    "linkage_q3": "family = linkage\nq = 3\nn = 6\nd = 4\nk = 3\nn1 = 3\n",
    "linkage_q4": "family = linkage\nq = 4\nn = 5\nd = 4\nk = 2\nn1 = 2\n",
    "linkage_q5": "family = linkage\nq = 5\nn = 5\nd = 4\nk = 2\nn1 = 2\n",
    "linkage_q7": "family = linkage\nq = 7\nn = 5\nd = 4\nk = 2\nn1 = 2\n",
    "linkage_q8": "family = linkage\nq = 8\nn = 5\nd = 4\nk = 2\nn1 = 2\n",
    "linkage_q9": "family = linkage\nq = 9\nn = 5\nd = 4\nk = 2\nn1 = 2\n",
    # the first vector's FDRM words run through coset pairs, the second's
    # leave M1 zero
    "multilevel_II_q3": "family = multilevel_II\nq = 3\nn = 4\nd = 2\nk = 2\nn1 = 2\nu1 = 1\n"
                        "b1 = 1\nb2 = 1\n",
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, out.getvalue()]


def outputs(workdir: str) -> dict:
    found = {}
    for name, text in PLANS.items():
        plan, cdc = os.path.join(workdir, name + ".plan"), os.path.join(workdir, name + ".cdc")
        with open(plan, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert _run(["build", "--plan", plan, "--out", cdc])[0] == 0, name
        with open(cdc, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        found[name] = {
            "sha256": sha,
            "verify": _run(["verify", "--in", cdc]),
            "verify_sample": _run(["verify", "--in", cdc, "--mode", "sample:500:7"]),
            "bound": _run(["bound", "--plan", plan]),
            "count_only": _run(["build", "--plan", plan, "--count-only"]),
        }
    return found


def test_outputs_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    found = outputs(str(tmp_path))
    assert sorted(found) == sorted(golden)
    for name in golden:
        assert found[name] == golden[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = outputs(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
