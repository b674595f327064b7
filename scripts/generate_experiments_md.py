#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every experiment at full scale.

Usage::

    python scripts/generate_experiments_md.py [--profile quick] [--jobs N] \
        [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import io

from repro.experiments import available_experiments
from repro.runner import run_experiments
from repro.scenario.library import available_library_specs

#: Paper-vs-measured commentary per experiment, maintained alongside the
#: experiment code.  The measured tables below each entry are regenerated
#: by this script; the commentary states what the paper reported and
#: whether the reproduction preserves the shape.
PAPER_CONTEXT = {
    "table2": (
        "Paper: LRU 100/100/100, Tree-PLRU 94.3/100/100, E5-2650 "
        "68.8/81.7/100 (percent, N=8/9/10). Reproduced: LRU exact; "
        "Tree-PLRU certain from N=9 as in the paper but already certain at "
        "N=8 here (our miss-victim walk provably covers all ways; gem5's "
        "implementation evidently differs in a tail case); the E5-2650 "
        "column is matched by the calibrated DirtyProtectingLRU surrogate "
        "(bounded dirty-victim protection, see DESIGN.md)."
    ),
    "table4": (
        "Paper: L1 hit 4-5, L2-hit+clean-replace 10-12, L2-hit+dirty-"
        "replace 22-23 cycles. These are the model's calibration anchors; "
        "the experiment confirms the assembled hierarchy reproduces them "
        "end to end, including the ~2x dirty-vs-clean gap that is the "
        "channel's signal."
    ),
    "table5": (
        "Paper (gem5 pseudo-random): d=2 row 63.6-95.0%, d=3 row "
        "89.5-99.5% across L=8..13, plus the analytic bound "
        "p=1-((W-d)/W)^L (99.1% at d=3,L=10). Reproduced: the uniform "
        "policy tracks the analytic bound; the LFSR pseudo-random variant "
        "sits below it at small L exactly as gem5's generator does "
        "(without matching gem5's PRNG point-for-point); monotone in d "
        "and L throughout."
    ),
    "table6": (
        "Paper: sender L1D miss 0.04%(WB) vs 0.16%(g++) vs 0.003%(alone); "
        "L2 miss 3.59 vs 26.84 vs 35.16; LLC 34.38 vs 2.23 vs 34.42 "
        "(binary; multi-bit analogous). Absolute rates depend on the "
        "process's non-channel traffic, which we model explicitly; the "
        "reproduced content is the ordering pattern: attack L1-miss "
        "profile indistinguishable from benign co-running, WB run has the "
        "lowest L2 miss rate, LLC miss rate collapses only in the g++ "
        "scenario, and multi-bit > binary on L1 misses. One deviation: "
        "our compiler model pressures the shared L2 harder than the "
        "paper's g++, so its L2 column lands above sender-only."
    ),
    "table7": (
        "Paper: WB sender generates 59.8% of the LRU sender's cache loads "
        "at Ts=11000 (3.15e8 vs 5.27e8 total). Reproduced ratio is within "
        "a few points of the paper's (see wb_to_lru_ratio in the params); "
        "the structural cause is identical - one posted store per bit vs "
        "continuous LRU-state refreshing."
    ),
    "fig4": (
        "Paper: nine narrow latency bands, ~10 cycles apart, for d=0..8 "
        "with a 10-line replacement set (1000 measurements each). "
        "Reproduced: median step ~11 cycles per dirty line (the L1 "
        "write-back penalty), bands a few cycles wide, all nine states "
        "distinguishable."
    ),
    "fig5": (
        "Paper: received traces at 400 Kbps for d=1/4/8 with the 16-bit "
        "alignment preamble; higher d widens the gap between the 0- and "
        "1-bands. Reproduced: separation grows ~11 cycles per extra dirty "
        "line and the preamble decodes cleanly at this rate for all three "
        "encodings."
    ),
    "fig6": (
        "Paper: BER grows with rate; all d below 5% at 1375 Kbps; d=1 the "
        "worst curve; d=8 usable at 2700 Kbps (4.5%). Reproduced: same "
        "orderings and crossovers; our absolute BER at the highest rates "
        "is milder than the paper's because the simulated ambient noise "
        "is cleaner than a live Xeon's."
    ),
    "fig7": (
        "Paper: four latency bands for d=0/3/5/8 carrying two bits per "
        "symbol at 1100 Kbps. Reproduced: the four bands sit at the "
        "calibrated medians with >=2 write-back penalties between "
        "adjacent levels, and the trace decodes with low error."
    ),
    "fig8": (
        "Paper: two-bit symbols reach 4400 Kbps at 3.5% BER. Reproduced: "
        "the 4400 Kbps point lands in single-digit BER and the curve "
        "rises with rate, doubling binary throughput at every period."
    ),
    "random_policy": (
        "Paper (Section 6.1): random replacement does not defeat the "
        "channel; the analytic eviction probability is 99.1% at d=3,L=10 "
        "and a stable channel needs d,L around (3,12). Reproduced: BER "
        "falls monotonically in d and L; d=8,L=12 is solid. Residual "
        "errors come from dirty lines that survive one traversal and "
        "leak into the next symbol."
    ),
    "stability": (
        "Paper (Section 6 / Figure 9): noise lines loaded by third "
        "processes break LRU and Prime+Probe (false evictions) but not "
        "the WB channel; only noise *stores* reach it. Reproduced "
        "exactly: WB BER stays near zero under load noise that pushes "
        "the baselines to ~20%."
    ),
    "defenses": (
        "Paper (Section 8): PLcache and DAWG/Nomo partitioning mitigate; "
        "random fill does NOT (store-hits still set the dirty bit); "
        "write-through removes the signal; fixed-key randomized mapping "
        "blocks stride-built sets but remains profileable. All five "
        "verdicts reproduced; overhead is a benign-workload elapsed-cycle "
        "ratio (the sub-1.0 ratios for random-fill/randomized mapping "
        "are an artifact of the synthetic workload's reuse pattern)."
    ),
    "extension_3bit": (
        "Extension beyond the paper: the theoretical 3-bit-per-symbol "
        "encoding (all eight dirty-line counts) vs the paper's 2-bit "
        "non-adjacent scheme. Measured: adjacent levels roughly double "
        "the BER at every rate, quantifying the paper's design choice; "
        "in this simulator's clean noise regime the raw-rate advantage "
        "still nets out positive, which would not survive real ambient "
        "noise comparable to the 11-cycle level spacing."
    ),
    "extension_l2": (
        "Extension beyond the paper: the WB channel deployed on the L2 "
        "cache, which Section 3 predicts is possible 'but requires more "
        "operations from the sender'. Built and measured: the channel "
        "works with the sender paying a 10-load L1 sweep per symbol to "
        "push dirty lines to L2, at roughly a quarter of the L1 "
        "deployment's rate (LLC-bound measurements, longer periods)."
    ),
    "cross_core_wb": (
        "Coherence extension beyond the paper: the WB channel without "
        "the shared-SMT-core requirement. On the multi-core MESI model "
        "(repro.coherence) the sender's stores leave lines Modified in "
        "its private L1D; the receiver's timed loads on another core "
        "force M-to-S downgrade write-backs whose drain latency "
        "(l2_hit + writeback penalty, ~22 cycles/line vs ~4 clean) "
        "carries the bit. The Section 7 stealth question is re-asked "
        "with detectors on every core: the coherence write-back train "
        "is periodic and burst-detectable on the sender core, so the "
        "cross-core deployment buys reach, not stealth."
    ),
    "closed_loop_defense": (
        "Operational extension beyond the paper: Section 7's stealth "
        "asymmetry closed into a live detect→fuse→respond loop. Each "
        "suspect co-runs with a decoding receiver while three "
        "benign-calibrated detectors stream z-scores into a 2-of-3 "
        "fleet aggregator; the fused alarm flips the running hierarchy "
        "to write-through at a pinned stream-event boundary. Measured: "
        "the continuously-modulating (LRU-style) sender scores "
        "hundreds of sigma above baseline, trips the fused alarm "
        "within its first symbols, and loses the channel — post-flip "
        "capacity collapses by far more than the 10x acceptance bar — "
        "while the WB sender's one-store-per-bit pattern completes its "
        "whole payload without the alarm ever firing. The alarm clock, "
        "flip event id and pre/post capacities are bit-deterministic "
        "against the test oracle and across stream clients dropping "
        "and resuming mid-run (tests/test_closed_loop.py)."
    ),
    "fault_tolerance": (
        "Robustness extension beyond the paper: the same faulted channel "
        "(descheduling slips, co-runner bursts, threshold drift, dropped "
        "and duplicated probe windows) run raw vs through the "
        "self-healing stack (sync-framed payload, per-frame CRC over "
        "FEC, resynchronising scanner, EWMA threshold recalibration, "
        "ACK/retransmission). At intensity 1.0 the raw protocol's BER "
        "exceeds 20% while the hardened stack still delivers the payload "
        "bit-exact, trading rate for integrity (goodput column)."
    ),
    "ablation_errors": (
        "Ablation of the simulator's error model at 1375 Kbps, d=1: "
        "turning off OS preemptions, TSC read jitter and phase "
        "uncertainty one at a time attributes the error budget to each "
        "source; with all three removed the channel is exactly "
        "error-free, i.e. the simulator has no hidden error source."
    ),
    "ablation_replacement_set": (
        "Ablation of the Section 4.1 design rule: the channel's BER vs "
        "replacement-set size L on Tree-PLRU and the E5-2650 surrogate. "
        "L below the guaranteed-eviction threshold leaves dirty residue "
        "that corrupts later symbols; L=10 (the paper's choice) is the "
        "smallest clean setting on both policies."
    ),
    "sidechannel": (
        "Paper (Section 9): three attack scenarios on the Listing 2 "
        "gadgets, including the same-set case Prime+Probe cannot decode. "
        "Reproduced: all scenarios recover the secret; scenario 3 "
        "(victim-call timing) succeeds more cleanly here than on real "
        "hardware, where the paper needed two serial loads per branch."
    ),
    "online_detection": (
        "Extension of the paper's Section 7 stealth argument from "
        "end-of-run counter totals (Table 7) to *online* monitors: a "
        "CloudRadar-style windowed counter monitor and a CC-Hunter-style "
        "conflict-train autocorrelation detector, both calibrated on a "
        "benign co-runner carrying the identical whole-process activity "
        "and applied at matched bit period (Ts=11000). Measured: the LRU "
        "sender's continuous modulation is flagged at a far higher rate "
        "than the WB sender on both views, while the WB sender's flag "
        "rate equals the benign false-positive rate — the stealth claim "
        "in its strongest online form. Built on the repro.telemetry "
        "event bus; see DESIGN.md for the detector design."
    ),
}

HEADER = """# EXPERIMENTS — paper vs measured

Regenerated by ``python scripts/generate_experiments_md.py``{mode}.

Every table and figure of the paper's evaluation is reproduced by a
module in ``repro.experiments`` (see DESIGN.md for the per-experiment
index).  For each, this file records what the paper reported, what this
reproduction measures, and whether the *shape* — orderings, crossovers,
rough factors — holds.  Absolute cycle counts and Kbps match only at the
calibration anchors (Table 4), by construction.

Reproduce any entry interactively::

    wb-experiments <experiment-id>                  # full scale
    wb-experiments <experiment-id> --profile quick  # CI scale

or run everything in parallel, persisting a manifest::

    wb-experiments --all --jobs 4 --out results/

Re-runs are memoisable: ``python -m repro.service`` serves every entry
over HTTP from a content-addressed result store, so resubmitting an
``(experiment, profile, seed)`` already computed returns the stored
bytes (bit-identical to a direct run) without recomputation, and N
identical concurrent submissions coalesce into one computation — see
the README's "Serving experiments" section.

The WB-channel family — ``fig6``, ``fig7``, ``fig8``, ``extension_l2``,
``cross_core_wb``, ``closed_loop_defense``, ``fault_tolerance``,
``online_detection``, ``defenses`` — is
**spec-backed**: each experiment's full configuration lives in a
declarative ``ScenarioSpec`` (``repro.scenario.library``, committed as
JSON in ``scenarios/``), the module body only shapes results from the
spec-compiled measurement, and ``tests/test_scenario_golden.py`` pins
the rebase bit-identical to the pre-spec output.  The same specs (and
arbitrary variants) run unregistered via ``repro.scenario.run_scenario``
or an inline ``{{"scenario": ...}}`` job submission — see the README's
"Declarative scenarios" section.

"""

#: Line appended under the paper-reference of spec-backed experiments.
SPEC_BACKED_NOTE = (
    "*Spec-backed: compiled from `scenarios/{experiment_id}.json` "
    "(`repro.scenario.library.{experiment_id}_spec`).*\n\n"
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=["full", "quick"], default="full")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()
    profile = args.profile

    manifest = run_experiments(
        available_experiments(), profile=profile, jobs=args.jobs
    )
    spec_backed = set(available_library_specs())
    out = io.StringIO()
    mode = " (quick mode)" if profile == "quick" else ""
    out.write(HEADER.format(mode=mode))
    for entry in manifest.entries:
        if not entry.ok:
            raise SystemExit(
                f"experiment {entry.task_id} failed:\n{entry.error}"
            )
        result = entry.result
        out.write(f"\n## {entry.experiment_id} — {result.title}\n\n")
        out.write(f"*Reproduces {result.paper_reference}.*\n\n")
        if entry.experiment_id in spec_backed:
            out.write(
                SPEC_BACKED_NOTE.format(experiment_id=entry.experiment_id)
            )
        context = PAPER_CONTEXT.get(entry.experiment_id)
        if context:
            out.write(context + "\n\n")
        out.write("```\n")
        out.write(result.render())
        out.write("\n```\n\n")
        out.write(
            f"Parameters: `{result.params}`; runtime {entry.wall_seconds:.1f}s.\n"
        )
        print(
            f"[{entry.experiment_id}] done in {entry.wall_seconds:.1f}s",
            flush=True,
        )
    with open(args.out, "w") as handle:
        handle.write(out.getvalue())
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
