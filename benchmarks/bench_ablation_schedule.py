"""Ablations of the GRK schedule's design choices.

Three knobs, each isolated:

1. **eps sensitivity** — the query coefficient `q(eps, K)` around the
   optimum: how much does a sloppy eps cost?  (The curve is flat near eps*,
   so ~±0.05 in eps costs < 1% in queries — the algorithm is robust.)
2. **l2 refinement** — exact-zeroing integer refinement vs the paper-literal
   rounded `l2`: same query count, up to ~an order of magnitude less failure.
3. **sure-success tail** — what the certainty modification costs (queries)
   and buys (failure), vs the plain schedule.

Uses the batched runner to measure worst-case-over-all-targets failure on
the full simulator (one vectorised sweep per schedule).
"""

import numpy as np

from repro.core.optimizer import optimal_epsilon
from repro.core.parameters import GRKParameters, max_feasible_epsilon, plan_schedule
from repro.core.subspace import SubspaceGRK
from repro.core.sure_success import plan_sure_success
from repro.engine import SearchEngine, SearchRequest
from repro.util.tables import format_table

N, K = 4096, 4


def _ablate():
    opt = optimal_epsilon(K)
    hi = max_feasible_epsilon(K)

    eps_rows = []
    for d in (-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2):
        eps = min(max(opt.epsilon + d, 0.0), hi)
        q = GRKParameters(K, eps).query_coefficient
        eps_rows.append((eps, q, q / opt.coefficient - 1.0))

    refine_rows = []
    for n in (2**10, 2**12, 2**16):
        refined = plan_schedule(n, K, refine_l2=True)
        raw = plan_schedule(n, K, refine_l2=False)
        model = SubspaceGRK(refined.spec)
        refine_rows.append(
            (
                n,
                raw.l2,
                refined.l2,
                model.failure_probability(raw.l1, raw.l2),
                model.failure_probability(refined.l1, refined.l2),
            )
        )

    plain = plan_schedule(N, K)
    sure = plan_sure_success(N, K)
    batch = SearchEngine().search_batch(
        SearchRequest(n_items=N, n_blocks=K, options={"schedule": plain}),
        targets=range(0, N, 61),
    )
    sure_rows = [
        ("plain", plain.queries, 1 - batch.worst_success),
        ("sure-success", sure.queries, sure.predicted_failure),
    ]
    return eps_rows, refine_rows, sure_rows


def test_ablation_schedule(benchmark, report):
    eps_rows, refine_rows, sure_rows = benchmark(_ablate)

    parts = [
        format_table(
            ["eps", "q(eps,K)", "overhead vs opt"],
            [[e, q, f"{o:+.2%}"] for e, q, o in eps_rows],
            float_fmt=".4f",
            title=f"ablation 1: eps sensitivity (K={K})",
        ),
        "",
        format_table(
            ["N", "l2 (paper rounding)", "l2 (refined)", "failure (raw)",
             "failure (refined)"],
            [[n, raw, ref, f"{fr:.2e}", f"{ff:.2e}"]
             for n, raw, ref, fr, ff in refine_rows],
            title="ablation 2: l2 integer refinement",
        ),
        "",
        format_table(
            ["variant", "queries", "worst-case failure"],
            [[name, q, f"{f:.2e}"] for name, q, f in sure_rows],
            title=f"ablation 3: sure-success tail (N={N}, K={K})",
        ),
    ]
    report("ablation_schedule", "\n".join(parts))

    # 1: the optimum is flat — ±0.05 in eps costs under 1%.
    for eps, _q, overhead in eps_rows:
        assert overhead >= -1e-9
        if abs(eps - optimal_epsilon(K).epsilon) <= 0.05:
            assert overhead < 0.01
    # 2: refinement never hurts and never changes the query count by > 1.
    for _n, raw_l2, ref_l2, raw_f, ref_f in refine_rows:
        assert abs(raw_l2 - ref_l2) <= 1
        assert ref_f <= raw_f + 1e-15
    # 3: certainty costs O(1) queries and wins many orders of magnitude.
    (_, plain_q, plain_f), (_, sure_q, sure_f) = sure_rows
    assert sure_q <= plain_q + 2
    assert sure_f < 1e-12 < plain_f
