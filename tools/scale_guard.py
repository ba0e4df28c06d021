#!/usr/bin/env python3
"""Throughput regression guard for the committed scale baseline.

Usage: scale_guard.py COMMITTED.json REGENERATED.json

Compares the regenerated `scale --json` artifact against the committed
BENCH_scale.json and exits non-zero when:

  * a (family, size) workload present in the committed baseline is
    missing from the regenerated run (coverage lost) — only for sizes
    the regenerated run actually attempted, so CI can measure a reduced
    size set without tripping the guard;
  * the QoR anchors drift: `ands`, `synth_ands`, or `gates` differ at
    all (the engine is deterministic, so any drift is a real change);
  * serial throughput collapses: regenerated serial nodes/sec falls
    below NOISE_FLOOR x the committed serial number for the same
    (family, size, phase). The floor is deliberately loose (3x) because
    CI runners are noisy and share cores; the guard catches order-of-
    magnitude regressions (an accidentally quadratic loop, a lost
    cache), not few-percent jitter;
  * a regenerated row lacks its `profile` object or any of the eight
    engine counters in it (profile emission is part of the artifact
    contract);
  * an engine counter differs from the committed row's: the engine is
    serial and seeded, so each row's counters repeat exactly, and a
    changed count is changed work (a sweep that refutes, refines or
    simulates differently), even where the QoR anchors hold.

Rows may carry fields this guard does not know about (`spans_top`, the
per-row top-self-time span attribution, is informational); only the
fields named above are compared, so new row fields never trip the
guard.
"""

import json
import sys

NOISE_FLOOR = 3.0
PHASES = ("synth", "dch", "map")
ENGINE_COUNTERS = (
    "cuts_reused",
    "cuts_computed",
    "sat_merge_calls",
    "sat_merge_proven",
    "sat_merge_refuted",
    "sat_merge_budget_out",
    "sim_words",
    "refine_rounds",
)


def key(result):
    return (result["family"], result["target"])


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        committed = json.load(f)
    with open(sys.argv[2]) as f:
        regenerated = json.load(f)

    base = {key(r): r for r in committed["results"]}
    regen = {key(r): r for r in regenerated["results"]}
    attempted_sizes = set(regenerated["sizes"])
    failures = []

    for (family, size), ref in sorted(base.items()):
        if size not in attempted_sizes:
            continue
        if (family, size) not in regen:
            failures.append(f"{family}/{size}: missing from the regenerated artifact")

    print(f"{'workload':<14} {'phase':<6} {'baseline n/s':>14} {'current n/s':>14} {'ratio':>7}")
    for (family, size), cur in sorted(regen.items()):
        ref = base.get((family, size))
        if ref is None:
            failures.append(f"{family}/{size}: not in the committed baseline")
            continue
        for anchor in ("ands", "synth_ands", "gates"):
            if cur[anchor] != ref[anchor]:
                failures.append(
                    f"{family}/{size}: {anchor} drifted {ref[anchor]} -> {cur[anchor]} "
                    "(the engine is deterministic; this is a functional change)"
                )
        ref_profile, cur_profile = ref.get("profile", {}), cur.get("profile", {})
        for name in ENGINE_COUNTERS:
            if name in cur_profile and cur_profile[name] != ref_profile.get(name):
                failures.append(
                    f"{family}/{size}: profile counter {name} drifted "
                    f"{ref_profile.get(name)} -> {cur_profile[name]} "
                    "(the engine is serial and seeded; this is changed work)"
                )
        for phase in PHASES:
            ref_nps = ref[phase]["serial_nodes_per_sec"]
            cur_nps = cur[phase]["serial_nodes_per_sec"]
            ratio = cur_nps / ref_nps if ref_nps > 0 else float("inf")
            print(f"{family}/{size:<8} {phase:<6} {ref_nps:>14.0f} {cur_nps:>14.0f} {ratio:>6.2f}x")
            if cur_nps * NOISE_FLOOR < ref_nps:
                failures.append(
                    f"{family}/{size} {phase}: serial throughput collapsed "
                    f"{ref_nps:.0f} -> {cur_nps:.0f} nodes/sec (> {NOISE_FLOOR}x slower)"
                )

    for (family, size), cur in sorted(regen.items()):
        profile = cur.get("profile", {})
        missing = [name for name in ENGINE_COUNTERS if name not in profile]
        if missing:
            failures.append(
                f"{family}/{size}: regenerated row's profile lacks {', '.join(missing)} "
                "(profile emission is part of the artifact contract)"
            )

    if failures:
        print("\nTHROUGHPUT GUARD FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nscale guard: {len(regen)} workloads within noise of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
