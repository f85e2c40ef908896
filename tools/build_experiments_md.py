#!/usr/bin/env python3
"""Assembles EXPERIMENTS.md from bench_output.txt plus hand-written commentary.

Run after `cargo bench --workspace 2>&1 | tee bench_output.txt`:

    python3 tools/build_experiments_md.py
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = (ROOT / "bench_output.txt").read_text()


def section(banner_substr: str) -> str:
    """Extracts one harness's stdout block by its banner line (last match
    wins, so appended re-runs supersede earlier output)."""
    lines = RAW.splitlines()
    for i, line in reversed(list(enumerate(lines))):
        if banner_substr in line and "====" not in line:
            # Walk back to the banner top, forward to the [wrote ...] line.
            start = i - 1 if i > 0 and set(lines[i - 1]) <= {"="} else i
            out = []
            for l in lines[start:]:
                out.append(l)
                if l.startswith("[wrote"):
                    break
            return "\n".join(out).strip()
    return f"(section '{banner_substr}' not found — rerun cargo bench)"


HEADER = """# EXPERIMENTS — paper vs. measured

This file records, for every table and figure in the paper's evaluation,
what the paper reports and what this reproduction measures. The measured
blocks below are the verbatim output of the bench harnesses at the **quick**
scale (shortened traces, coarser cycles — see DESIGN.md), captured by

```sh
cargo bench --workspace 2>&1 | tee bench_output.txt
```

`THREESIGMA_BENCH_SCALE=paper` reruns everything at the paper's trace
lengths for tighter statistics; `cargo run -p threesigma-bench --bin report`
regenerates a machine-readable digest from `bench_results/*.json`.

**How to read the comparison.** Our substrate is a deterministic simulator
driven by synthetic traces regenerated from the paper's published summary
statistics — not the authors' physical cluster and proprietary traces — so
absolute numbers are not expected to match. What must (and does) match is
the *shape* of each result: which system wins, by roughly what factor, and
where crossovers fall. Quick-scale traces carry ~100 SLO jobs, so one job
≈ 1 percentage point of SLO miss; differences under ~3 points are noise at
this scale. Harness outputs also include a `waste(M-h)` column (machine
time destroyed by preemption) that the paper reports only qualitatively.

A structural note on the quick scale: the measurement window is cut off
30 min after the last arrival, so long jobs arriving near the end of a
2-hour trace are structurally unable to finish for *every* scheduler. This
adds a common SLO-miss floor (~10–20 % depending on workload) on top of
which the schedulers differentiate; at paper scale the floor shrinks with
the end-effect fraction.
"""

SECTIONS = [
    (
        "Fig. 2 — workload analyses",
        "Fig. 2",
        """**Paper.** Job runtimes are heavy-tailed in all three environments;
per-user and per-resources CoV distributions have large high-variability
(CoV > 1) fractions, more in HedgeFund and Mustang than Google; JVuPredict
estimates are mostly good but 8 % (Google) to ≥23 % (Mustang) are off by 2×
or more, Mustang pairing a large ±5 % spike with a fat positive tail, and
HedgeFund having the fewest accurate estimates.

**Measured.** Matches on every axis: off-by-≥2× is ≈8.6 % (Google),
≈27.6 % (HedgeFund, the worst), ≈22.7 % (Mustang); Mustang shows the
largest within-±5 % spike (≈42 % of jobs); runtime p99/p50 ratios exceed
an order of magnitude everywhere; high-CoV fractions are larger for
HedgeFund/Mustang than Google.""",
    ),
    (
        "Fig. 1 / Fig. 7 — headline comparison across workloads",
        "Fig. 7",
        """**Paper.** (Fig. 1 is the Google column.) 3Sigma outperforms
PointRealEst (18 % SLO miss, 4.0× worse than 3Sigma's ≈4.5 %) and Prio
(12 %, 2.3×) while approaching PointPerfEst; on HedgeFund and Mustang
3Sigma can slightly *beat* PointPerfEst, which knows each runtime but not
future arrivals. PointRealEst's misses stay high across workloads even when
most estimates are accurate (Mustang), because the mis-estimated tail
poisons its decisions.

**Measured.** Same ordering in every environment: PointRealEst misses
2–3× more SLO deadlines than 3Sigma; Prio lands between; 3Sigma tracks
PointPerfEst within noise in all three environments (quick-scale traces
are too small to resolve the paper's ≈1-point HedgeFund/Mustang
inversion). Prio pays in BE goodput/latency and wastes the most preempted
machine-time on Google/HedgeFund, matching §6.1's explanation. Mustang's
quick trace holds only ~13 SLO jobs (huge gangs), so its miss column moves
in ~8-point quanta and shares a sizeable end-of-window floor.""",
    ),
    (
        "Fig. 6 + Table 2 — real-fidelity cluster (RC256) vs simulation",
        "Fig. 6",
        """**Paper.** The same experiment on the physical 256-node cluster and
in simulation produces the same ordering with small absolute deltas
(Table 2: ≤2 % miss, ≈20–27 M-h goodput, ≈2–12 s BE latency).

**Measured.** Our RC-fidelity mode (runtime jitter + placement latency)
reproduces the agreement: identical system ordering on both "clusters",
SLO-miss deltas ≤2 points. Goodput and BE-latency deltas are larger in
relative terms than the paper's (tens of M-h / up to a few hundred seconds)
because a 2-hour quick-scale trace amplifies per-job noise; the orderings
are unaffected.""",
    ),
    (
        "Fig. 8 — attribution of benefit (ablations vs deadline slack)",
        "Fig. 8",
        """**Paper.** Every technique is needed: 3SigmaNoDist (point estimates,
OE handling kept) beats PointRealEst; 3SigmaNoOE (distributions only)
recovers most of the gap to PointPerfEst; 3SigmaNoAdapt over-tries
hopeless jobs and pays in BE goodput; miss rates fall as slack grows for
all systems.

**Measured.** Reproduced: every ablation lands between PointRealEst and
full 3Sigma, miss rates fall with slack for all systems, and
3SigmaNoAdapt shows the depressed BE goodput the paper attributes to
over-optimism. One shape difference: in our traces over-estimates (bimodal
sweep classes) dominate the error tail, so OE handling (NoDist vs
PointRealEst) contributes relatively more, and NoOE relatively less, than
in the paper's Fig. 8 — the *set* of needed techniques is the same, their
relative sizes shift with the error-profile mix.""",
    ),
    (
        "Fig. 9 — robustness to distribution perturbation",
        "Fig. 9",
        """**Paper.** With synthetic `N(runtime·(1+shift), runtime·CoV)`
distributions: using any distribution beats the point estimate (2× fewer
misses even at shift 0); narrower distributions win when the shift is
small; wider distributions hedge better when the centre is badly shifted.

**Measured.** The dominant effects reproduce sharply: at shift −50 % the
point estimate misses ≈48 % vs ≈7 % for CoV = 50 % (wide distributions
hedge), and distributions beat the point at almost every sweep point. The
paper's second-order effect — *narrow* beating *wide* inside ±20 % shift —
is within noise at quick scale (≈1–2 jobs); the first-order "wider wins as
|shift| grows" gradient is clearly visible along every row.""",
    ),
    (
        "Fig. 10 — sensitivity to load",
        "Fig. 10",
        """**Paper.** SLO miss rates grow with load for every system with the
relative ordering preserved; all systems increasingly sacrifice BE work;
the PointPerfEst–3Sigma BE-goodput gap widens with load as 3Sigma leaves
more headroom for uncertain runtimes.

**Measured.** Same shape: misses grow monotonically-ish with load for all
systems, PointRealEst stays worst by a wide margin, 3Sigma tracks
PointPerfEst, and Prio's BE goodput collapses as load grows (it preempts
BE work for SLO jobs regardless of slack — also visible in its waste
column).""",
    ),
    (
        "Fig. 11 — sensitivity to history sample count",
        "Fig. 11",
        """**Paper.** Capping the per-feature history at n samples: both
history-driven systems improve sharply from 5 to 25 samples; by 25 samples
3Sigma converges to PointPerfEst; 3Sigma beats PointRealEst at every n
and benefits more from added samples (it uses the whole distribution).

**Measured.** 3Sigma beats PointRealEst at every n and sits at
PointPerfEst's level. Deviation: our 3Sigma is already near-converged at
n = 5 — the synthetic (class, user) subgroups are cleaner than real trace
features, so a 5-sample histogram is already informative; PointRealEst
shows the paper's improve-with-n trend more visibly.""",
    ),
    (
        "Fig. 12 — scalability at 12,584 nodes",
        "Fig. 12",
        """**Paper.** At Google scale (12,583 nodes, 2000–4000 jobs/hour, load
0.95): 3σPredict lookups are negligible (≤14 ms); scheduling-cycle and
solver runtimes stay within the cycle budget; distribution-based
scheduling adds a moderate constant factor over point-based (more
constraint terms, same number of decision variables).

**Measured.** Predictor lookups are microseconds (mean ≈6 µs, max ≈4 ms —
well under the paper's 14 ms bound). Cycle and solver times remain
milliseconds even at 4000 jobs/hour, with Dist a small constant factor
above Point. Our absolute times are far below the paper's because the
equivalence-set MILP formulation is an order of magnitude smaller than
their per-node-partition encoding (see DESIGN.md) and the simulator has no
RPC overheads.""",
    ),
    (
        "Extension — design-knob ablations and the σ-padding heuristic",
        "Knob ablations",
        """**Not in the paper** (the paper states the knobs exist; DESIGN.md
commits us to quantifying them). Findings: *preemption* is the single most
important mechanism (disabling it roughly doubles the miss rate while
zeroing waste); very short plan-ahead windows trade BE goodput for SLO
haste; very long windows and wide slots slow the solver without improving
misses; the MILP solver budget matters little beyond a few ms at this
scale (warm start + rounding find good incumbents early). The §2.2
"stochastic scheduler" heuristic (point + 1σ) is *worse* than the raw
point estimate under deadline-driven utility: padding exaggerates
over-estimation, so more jobs look hopeless and are abandoned — consistent
with the paper's remark that such heuristics "help, but do not eliminate
the problem" only in the under-estimate direction.""",
    ),
]

FOOTER = """
## Table 1 — systems compared

Implemented exactly as the paper's Table 1 via `SchedulerKind`:
`ThreeSigma` (real distributions + adaptive OE), `PointPerfEst` (perfect
points, no OE), `PointRealEst` (3σPredict points, no OE), `Prio`
(runtime-unaware priority), plus the §6.2 ablations (`ThreeSigmaNoDist`,
`ThreeSigmaNoOE`, `ThreeSigmaNoAdapt`) and the extension baseline
`PointPaddedEst`.

## Figs. 3 & 5 — worked example

Reproduced exactly (not statistically) by `crates/core/examples/worked_example.rs` and
unit tests (`utility::tests::expected_utility_matches_fig5_*`,
`sched::threesigma::tests::worked_example_*`): with U(0,10) runtimes the
scheduler runs the SLO job first; with U(2.5,7.5) it safely lets the BE
job go first and both finish within the 15-minute deadline — the
distribution, not the (identical) mean, determines the order.

## Reproduction verdict

Every table and figure of the evaluation is regenerated by a dedicated
harness. All first-order claims reproduce: distribution-based scheduling
closes most of the gap between a state-of-the-art point-estimate scheduler
and a perfect-knowledge oracle, simultaneously improving SLO attainment
and goodput, with every mitigation technique contributing and overheads
that scale to >12k nodes. Second-order deviations (relative ablation
sizes, the narrow-vs-wide crossover inside ±20 % shift, sample-count
convergence speed) trace to the synthetic error-profile mix and
quick-scale statistics, and are noted in the sections above.
"""


def main() -> None:
    parts = [HEADER]
    for title, banner, commentary in SECTIONS:
        parts.append(f"\n---\n\n## {title}\n\n{commentary}\n")
        parts.append("```text\n" + section(banner) + "\n```\n")
    parts.append(FOOTER)
    (ROOT / "EXPERIMENTS.md").write_text("".join(parts))
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
