"""T1 — the Section 3.1 table: optimal query coefficients per K.

Regenerates both columns ("Upper bound" by optimising eps, "Lower bound"
from Theorem 2) plus, beyond the paper, the exact *finite-N* coefficient the
integer schedule achieves at N = 2**20 — showing the asymptotic optimum is
approached from above as N grows.
"""

import math

from repro.core.optimizer import TABLE_K_VALUES, coefficient_table
from repro.core.parameters import plan_schedule
from repro.util.tables import format_table

PAPER_UPPER = {2: 0.555, 3: 0.592, 4: 0.615, 5: 0.633, 8: 0.664, 32: 0.725}
PAPER_LOWER = {2: 0.230, 3: 0.332, 4: 0.393, 5: 0.434, 8: 0.508, 32: 0.647}

N_FINITE = 2**20


def _build_rows():
    rows = coefficient_table()
    finite = {}
    for k in TABLE_K_VALUES:
        if N_FINITE % k == 0:
            sched = plan_schedule(N_FINITE, k)
            finite[k] = sched.query_coefficient
        else:  # K = 5 does not divide 2**20; use the nearest multiple of 5
            n = (N_FINITE // k) * k
            finite[k] = plan_schedule(n, k).queries / math.sqrt(n)
    return rows, finite


def test_table1_coefficients(benchmark, report):
    rows, finite = benchmark(_build_rows)

    display = []
    for row in rows:
        k = row["n_blocks"]
        display.append(
            [
                row["label"],
                row["upper"],
                PAPER_UPPER.get(k, math.pi / 4) if k or row["label"].startswith("Data") else "",
                row["lower"],
                PAPER_LOWER.get(k, math.pi / 4) if k else 0.785,
                finite.get(k, "") if k else "",
                row["epsilon"],
            ]
        )
    report(
        "table1_coefficients",
        format_table(
            ["", "upper (ours)", "upper (paper)", "lower (ours)", "lower (paper)",
             f"exact N=2^20", "eps*"],
            display,
            title="Section 3.1 table: queries / sqrt(N) for partial search",
        ),
    )

    # Shape assertions: match the paper to its printed precision (K=3's
    # optimum is 0.5908 vs the printed 0.592 — see CHANGES.md and
    # tests/test_paper_values.py::TestSection31Table).
    by_k = {r["n_blocks"]: r for r in rows if r["n_blocks"]}
    for k in TABLE_K_VALUES:
        tol = 0.0016 if k == 3 else 0.0006
        assert abs(by_k[k]["upper"] - PAPER_UPPER[k]) < tol
        assert abs(by_k[k]["lower"] - PAPER_LOWER[k]) < 5e-4
        # finite-N integer schedules approach the optimum from above
        assert finite[k] >= by_k[k]["upper"] - 1e-6
        assert finite[k] - by_k[k]["upper"] < 0.02
