#!/usr/bin/env python3
"""Alternating A/B pairs of the end-to-end benchmark between two trees.

Usage:

    python3 tools/ab_pairs.py --parent DIR --change DIR [--pairs 10]
        [--workloads a,b] [--out TABLE.md]
    python3 tools/ab_pairs.py --self-test

DIR is the root of a source tree (a `git archive` of one commit, say). For
pair i = 1..pairs and every workload, the tool runs each tree's
`bench/e2e/run.py --workload W --seed i --seconds S` once, with S the
parent's BENCHMARK.json `run_seconds`, the parent first on odd pairs and the
change first on even ones, and reads the JSON result line plus the run
sidecar's `rel_l2` row.

Per workload × metric it prints the median [q1, q3] of each side, the ratio
of the medians, the pairs the change won and the parent's spread (quartile
distance over median). Bounds and directions come from the parent's
BENCHMARK.json, which is only read. A metric is *unresolved* when either
side's spread exceeds its bound, *worse* when the change's median is worse
than the parent's by more than the bound, and it meets the *claim* rule when
the change wins at least 9 of 10 pairs, the median gap exceeds the parent's
quartile distance and no larger share of the change's ops failed. Failed
ops are summed per side; a larger failed share on the change marks the
failed-ops row *worse*. The table goes to stdout, and as markdown to --out
for EXPERIMENTS.md.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

# Sidecar rows compared alongside the end-to-end metrics (lower is better,
# no bound).
EXTRA = ["rel_l2"]


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def spread(values):
    """Quartile distance over the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def compare(parent, change, better, bound):
    """Verdict of one metric over paired runs (parent[i] pairs change[i])."""
    assert len(parent) == len(change) and parent
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    lower = better == "lower"
    wins = sum(1 for a, b in zip(parent, change) if (b < a if lower else b > a))
    ratio = cm / pm if pm else float("nan")
    gap = (pm - cm) if lower else (cm - pm)
    worse = (ratio > 1.0 + bound) if lower else (ratio < 1.0 - bound)
    unresolved = max(spread(parent), spread(change)) > bound
    claim = wins >= 0.9 * len(parent) and gap > (p3 - p1)
    return {
        "parent": (pm, p1, p3), "change": (cm, c1, c3), "ratio": ratio,
        "wins": wins, "pairs": len(parent), "parent_spread": spread(parent),
        "change_spread": spread(change), "worse": worse,
        "unresolved": unresolved, "claim": claim,
    }


def run_side(root, workload, seed, seconds):
    """One run.py run of `root`; returns (metrics, attempted, failed)."""
    cmd = [sys.executable, str(root / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} printed no "
                           f"result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    sidecar = root / ".bench_build" / "e2e" / f"BENCH_e2e_{workload}.json"
    if sidecar.exists():
        for row in json.loads(sidecar.read_text())["rows"]:
            if row["metric"] in EXTRA:
                metrics[row["metric"]] = row["value"]
    return metrics, result["attempted"], result["failed"]


def fmt(x):
    return f"{x:.4g}"


def failed_share(counts):
    """Failed over attempted ops (0 when nothing was attempted)."""
    attempted, failed = counts
    return failed / attempted if attempted else 0.0


def workload_verdicts(metrics, runs, counts):
    """Verdicts of every metric run on both sides, pairs in run order.

    `metrics` maps name -> (better, bound or None), `runs` side -> list of
    per-pair metric dicts, `counts` side -> [attempted, failed]. A metric
    without a bound is compared but never worse or unresolved. No metric
    meets the claim rule when a larger share of the change's ops failed.
    """
    fails_more = failed_share(counts["change"]) > failed_share(counts["parent"])
    pairs = len(runs["parent"])
    verdicts = {}
    for name, (better, bound) in metrics.items():
        p = [r[name] for r in runs["parent"] if name in r]
        c = [r[name] for r in runs["change"] if name in r]
        if not pairs or len(p) != pairs or len(c) != pairs:
            continue
        v = compare(p, c, better, bound if bound is not None else 0.0)
        if bound is None:
            v["worse"] = False
            v["unresolved"] = False
        v["claim"] = v["claim"] and not fails_more
        verdicts[name] = v
    return verdicts


def table(workload, verdicts, counts):
    """Markdown rows of one workload."""
    rows = []
    for metric, v in verdicts.items():
        pm, p1, p3 = v["parent"]
        cm, c1, c3 = v["change"]
        flags = [f for f in ("worse", "unresolved", "claim") if v[f]]
        rows.append(
            f"| `{workload}` | `{metric}` | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
            f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {v['ratio']:.3f} "
            f"| {v['wins']}/{v['pairs']} | {100 * v['parent_spread']:.1f}% "
            f"| {', '.join(flags) or '-'} |")
    parent, change = counts["parent"], counts["change"]
    worse = failed_share(change) > failed_share(parent)
    rows.append(f"| `{workload}` | failed ops | {parent[1]}/{parent[0]} "
                f"| {change[1]}/{change[0]} | | | | "
                f"{'worse' if worse else '-'} |")
    return rows


HEADER = ("| workload | metric | parent median [q1, q3] | change median "
          "[q1, q3] | ratio | change wins | parent spread | verdict |\n"
          "|---|---|---|---|---|---|---|---|")


def self_test():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.20, 0.21, 0.19, 0.22, 0.20, 0.21, 0.20, 0.19, 0.20, 1.50]
    q1, med, q3 = quartiles([1, 2, 3, 4, 5])
    assert (q1, med, q3) == (2, 3, 4), (q1, med, q3)
    assert quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    v = compare(parent, change, "lower", 0.25)
    assert v["wins"] == 9 and v["claim"] and not v["worse"], v
    assert abs(v["ratio"] - 0.2 / 1.0) < 1e-12, v
    assert not v["unresolved"], v
    # 8 of 10 wins is not a claim, whatever the gap.
    v = compare(parent, change[:8] + [1.5, 1.5], "lower", 0.25)
    assert v["wins"] == 8 and not v["claim"], v
    # A gap inside the parent's quartile distance is not a claim.
    v = compare(parent, [p - 0.005 for p in parent], "lower", 0.25)
    assert v["wins"] == 10 and not v["claim"], v
    # Higher-is-better metrics, and the regression bound.
    v = compare([10.0] * 10, [7.0] * 10, "higher", 0.25)
    assert v["worse"] and v["wins"] == 0, v
    v = compare([10.0] * 10, [8.0] * 10, "higher", 0.25)
    assert not v["worse"], v
    # Spread past the bound leaves the metric unresolved.
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    v = compare(wide, [1.0] * 10, "lower", 0.25)
    assert v["unresolved"], v
    # A workload's verdicts: unbounded extras are never worse, and a larger
    # failed share on the change voids every claim.
    metrics = {"latency_s_p50": ("lower", 0.25), "rel_l2": ("lower", None)}
    runs = {"parent": [{"latency_s_p50": p, "rel_l2": 1.0} for p in parent],
            "change": [{"latency_s_p50": c, "rel_l2": 2.0} for c in change]}
    clean = {"parent": [100, 1], "change": [100, 1]}
    v = workload_verdicts(metrics, runs, clean)
    assert v["latency_s_p50"]["claim"] and not v["rel_l2"]["worse"], v
    failing = {"parent": [100, 1], "change": [100, 2]}
    v = workload_verdicts(metrics, runs, failing)
    assert not v["latency_s_p50"]["claim"], v
    rows = table("w", v, failing)
    assert "1/100" in rows[-1] and "2/100" in rows[-1], rows
    assert rows[-1].endswith("worse |"), rows
    rows = table("w", workload_verdicts(metrics, runs, clean), clean)
    assert "claim" in rows[0] and rows[-1].endswith("- |"), rows
    print("ab_pairs self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in EXTRA:
        metrics.setdefault(m, ("lower", None))

    out_rows = [HEADER]
    for workload in workloads:
        runs = {"parent": [], "change": []}
        counts = {"parent": [0, 0], "change": [0, 0]}
        for i in range(args.pairs):
            seed = i + 1
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                got, attempted, failed = run_side(root, workload, seed,
                                                  seconds)
                runs[side].append(got)
                counts[side][0] += attempted
                counts[side][1] += failed
                print(f"{workload} pair {i + 1} seed {seed} {side}: "
                      + " ".join(f"{k}={fmt(v)}" for k, v in got.items()),
                      flush=True)
        rows = table(workload, workload_verdicts(metrics, runs, counts),
                     counts)
        print("\n".join([HEADER] + rows), flush=True)
        out_rows += rows
    if args.out:
        args.out.write_text("\n".join(out_rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
