"""Golden CSVs: short runs whose records keep their bits.

Each run writes its records with ``write_records`` and must match, byte for
byte, a committed copy whose SHA-1 the test pins as well.  Each run here was
shown to write the same CSV under the OpenBLAS kernels SkylakeX, Haswell and
Prescott.  A first-order run on a problem with one constraint row forms every
short-vector product in one fixed order (``subsolvers._dot``) and takes the
singular basis of its Jacobian row in closed form, so no BLAS or LAPACK call
rounds its bits; the zeroth-order runs here keep theirs as well.  Runs with
two or more constraint rows go through LAPACK's ``eigh`` and ``svd``, whose
rounding depends on the kernel, and are not here.
"""

import hashlib
import itertools
import pathlib

import pytest

from spen import PenaltyConfig, RandomStream, TestProblemSpec, build_problem, run_penalty
from spen.harness import run_study, write_records

GOLDEN = pathlib.Path(__file__).parent / "golden"

# run name: (committed CSV, its SHA-1, problem, penalty settings, seed,
# replications or None for one solve); sigma is 0.1 throughout
RUNS = {
    "P1 n=1 SFO study": ("p1_sfo_study.csv", "23cbc3add12a410701888bea4bd4c443141b869f",
                         TestProblemSpec("P1", n=1, sigma=0.1), PenaltyConfig(0.9, max_outer=2),
                         7, 30),
    "P1 n=1 SZO solve": ("p1_szo_solve.csv", "d0c01a1fbba369c0d5427ff02776be20d1283c75",
                         TestProblemSpec("P1", n=1, sigma=0.1),
                         PenaltyConfig(0.9, max_outer=2, oracle_mode="szo"), 7, None),
    "P2 SZO solve": ("p2_szo_solve.csv", "6a0a998d4b9285b1f172b5fc0c25af877f375a75",
                     TestProblemSpec("P2", sigma=0.1),
                     PenaltyConfig(0.9, max_outer=2, oracle_mode="szo"), 7, None),
    "P2 SFO solve": ("p2_sfo_solve.csv", "80ee445a1821898755f642f5bf2b2c4e96b476ef",
                     TestProblemSpec("P2", sigma=0.1), PenaltyConfig(0.4, max_outer=3), 7, None),
    "P2 SFO study": ("p2_sfo_study.csv", "5392be15e0e0dbd738ff81a3a6cb772f48491149",
                     TestProblemSpec("P2", sigma=0.1), PenaltyConfig(0.9, max_outer=2), 0, 30),
    "P3 SFO solve": ("p3_sfo_solve.csv", "a37665f9253267394fc1cc305d5aab3290ee3082",
                     TestProblemSpec("P3", sigma=0.1), PenaltyConfig(0.9, max_outer=2), 7, None),
    "P1 n=10 SFO solve": ("p1_n10_sfo_solve.csv", "20109ef6e7926e93e62aa2ec28c707c5b461be6a",
                          TestProblemSpec("P1", sigma=0.1), PenaltyConfig(0.9, max_outer=2),
                          7, None),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden_run_writes_its_committed_csv(run, tmp_path):
    # the first-order studies run in lockstep
    name, sha1, spec, config, seed, reps = RUNS[run]
    want = (GOLDEN / name).read_bytes()
    assert hashlib.sha1(want).hexdigest() == sha1, f"{name} is not the committed golden CSV"
    problem = build_problem(spec)
    if reps is None:
        records = run_penalty(problem, config, RandomStream(seed)).records
    else:
        records = run_study(problem, config, reps, RandomStream(seed)).records
    write_records(records, str(tmp_path / name))
    got = (tmp_path / name).read_bytes()
    if got != want:
        rows = itertools.zip_longest(got.splitlines(), want.splitlines())
        row, (got_row, want_row) = next((i, pair) for i, pair in enumerate(rows)
                                        if pair[0] != pair[1])
        pytest.fail(f"{run}: CSV row {row} (0 is the header) differs: "
                    f"got {got_row!r}, want {want_row!r}")
