"""Golden CSVs: short runs whose records keep their bits.

Each run writes its records with ``write_records`` and must match, byte for
byte, a committed copy whose SHA-1 the test pins as well.  Only runs shown to
write the same CSV under the OpenBLAS kernels SkylakeX, Haswell and Prescott
are here: P1 with n = 1 forms its dot products on vectors of one entry, and
the zeroth-order P2 solve's round keeps its bits on each of them.  The
first-order P2 and P3 runs, and P1 with n = 10, round their short-vector dots
differently per kernel, so they wait until those dots leave BLAS.
"""

import hashlib
import itertools
import pathlib

import pytest

from spen import PenaltyConfig, RandomStream, TestProblemSpec, build_problem, run_penalty
from spen.harness import run_study, write_records

GOLDEN = pathlib.Path(__file__).parent / "golden"

# run name: (committed CSV, its SHA-1, problem, oracle mode, replications or None
# for one solve)
RUNS = {
    "P1 n=1 SFO study": ("p1_sfo_study.csv", "23cbc3add12a410701888bea4bd4c443141b869f",
                         TestProblemSpec("P1", n=1, sigma=0.1), "sfo", 30),
    "P1 n=1 SZO solve": ("p1_szo_solve.csv", "d0c01a1fbba369c0d5427ff02776be20d1283c75",
                         TestProblemSpec("P1", n=1, sigma=0.1), "szo", None),
    "P2 SZO solve": ("p2_szo_solve.csv", "6a0a998d4b9285b1f172b5fc0c25af877f375a75",
                     TestProblemSpec("P2", sigma=0.1), "szo", None),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden_run_writes_its_committed_csv(run, tmp_path):
    # sigma 0.1, epsilon 0.9, max_outer 2 and seed 7; the study runs in lockstep
    name, sha1, spec, mode, reps = RUNS[run]
    want = (GOLDEN / name).read_bytes()
    assert hashlib.sha1(want).hexdigest() == sha1, f"{name} is not the committed golden CSV"
    problem = build_problem(spec)
    config = PenaltyConfig(epsilon=0.9, max_outer=2, oracle_mode=mode)
    if reps is None:
        records = run_penalty(problem, config, RandomStream(7)).records
    else:
        records = run_study(problem, config, reps, RandomStream(7)).records
    write_records(records, str(tmp_path / name))
    got = (tmp_path / name).read_bytes()
    if got != want:
        rows = itertools.zip_longest(got.splitlines(), want.splitlines())
        row, (got_row, want_row) = next((i, pair) for i, pair in enumerate(rows)
                                        if pair[0] != pair[1])
        pytest.fail(f"{run}: CSV row {row} (0 is the header) differs: "
                    f"got {got_row!r}, want {want_row!r}")
