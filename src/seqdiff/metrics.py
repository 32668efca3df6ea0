"""Top-K ranking metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_KS = (5, 10, 20)


def metric_single(rank: int, k: int) -> tuple[float, float]:
    """(hit, ndcg) for one ranked target: 1 and 1/log2(rank+1) inside the
    cutoff, both zero beyond it."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > k:
        return 0.0, 0.0
    return 1.0, 1.0 / math.log2(rank + 1)


@dataclass
class EvalReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    n_evaluated: int
    label: str = "all"

    @property
    def empty(self) -> bool:
        return self.n_evaluated == 0


def report_from_ranks(ranks, ks=DEFAULT_KS, label: str = "all") -> EvalReport:
    """Aggregate per-target ranks into mean HR@K / NDCG@K."""
    ks = tuple(ks)
    hr = {k: 0.0 for k in ks}
    ndcg = {k: 0.0 for k in ks}
    n = 0
    for rank in ranks:
        n += 1
        for k in ks:
            h, g = metric_single(rank, k)
            hr[k] += h
            ndcg[k] += g
    if n:
        for k in ks:
            hr[k] /= n
            ndcg[k] /= n
    return EvalReport(hr=hr, ndcg=ndcg, n_evaluated=n, label=label)


def report_csv_rows(reports: list[EvalReport]) -> list[str]:
    """`metric,K,value,bucket` rows for one or more (possibly bucketed) reports."""
    rows = ["metric,K,value,bucket"]
    for rep in reports:
        for k in sorted(rep.hr):
            rows.append(f"hr,{k},{rep.hr[k]:.6f},{rep.label}")
        for k in sorted(rep.ndcg):
            rows.append(f"ndcg,{k},{rep.ndcg[k]:.6f},{rep.label}")
        rows.append(f"n,0,{rep.n_evaluated},{rep.label}")
    return rows


def report_table(reports: list[EvalReport]) -> str:
    """Human-readable aligned table over all buckets."""
    ks = sorted({k for rep in reports for k in rep.hr})
    header = ["bucket", "n"] + [f"HR@{k}" for k in ks] + [f"NDCG@{k}" for k in ks]
    lines = [header]
    for rep in reports:
        if rep.empty:
            row = [rep.label, "0"] + ["-"] * (2 * len(ks))
        else:
            row = ([rep.label, str(rep.n_evaluated)]
                   + [f"{rep.hr[k]:.4f}" for k in ks]
                   + [f"{rep.ndcg[k]:.4f}" for k in ks])
        lines.append(row)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     for line in lines)
