#!/usr/bin/env python3
"""Compare hzccl-e2e result files.

  compare.py PARENT/ CHANGE/
      The pair rule.  Run i of PARENT pairs with run i of CHANGE (per
      workload, in result-file order); at least 10 pairs are needed, taken
      alternately parent-first and change-first.  A metric gains when the
      change wins at least 9 of 10 pairs and the medians differ by more than
      the parent's quartile spread.  Otherwise it must be no worse than its
      BENCHMARK.json bound; where either side's spread exceeds the bound it
      is "unresolved" unless every change run beats every parent run.
      failed ops must not rise.  Exit 1 on any regression.
  compare.py --repeat A/ B/ [--write FILE]
      Two sets of runs of one commit: every end-to-end median agrees within
      its bound.  Each set's spread (interquartile range over median) is
      reported; in sets of at least 10 runs every end-to-end metric but
      setup_s must spread no wider than its bound.  Where all runs share
      one seed, every exact count must also be identical.  Given two series
      of 10 runs over different seeds, this is the check that the benchmark
      is steady enough for its bounds.
      --write stores both sets: every run's end-to-end values with their
      medians, quartiles and spread, and the per-layer medians and quartiles.
  compare.py --smoke DIR
      Runs written by `run.sh --smoke`: every output correct, every
      end-to-end value of the timed run present, the traced rebuild
      identical, exact counts repeat across the traced runs, and modeled_ms
      and err_ratio.max agree across all runs.

Result files are what `run.sh --out DIR` writes: DIR/<workload>.t<trace>.<n>.json.
Files whose environment stamps differ in anything but the revision are never
compared.  Bound verdicts on a workload BENCHMARK.json does not name are
printed but leave the exit code alone; failed ops and exact counts count on
every workload.
"""
import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# Per-layer metrics that are counts or virtual times: they must repeat
# bit for bit across runs of one commit and seed.
EXACT = [
    "simmpi.frames_per_op", "simmpi.wire_mb_per_op", "compressor.ratio",
    "homomorphic.p4_share", "integrity.digests_per_op", "sched.engine_jobs",
    "sched.fused_frac", "sched.grant_wait_ms", "vclock.mpi_ms", "vclock.cpr_ms",
    "vclock.dpr_ms", "vclock.cpt_ms", "vclock.hpr_ms", "vclock.other_ms",
    "cluster.model_ms", "cluster.drift_pct",
]
PAIRS_NEEDED = 10
WIN_SHARE = 0.9


def load(directory):
    """{(workload, trace): [result, ...]} in run order."""
    runs = {}
    pattern = re.compile(r"^(?P<w>.+)\.t(?P<t>[01])\.(?P<n>\d+)\.json$")
    for path in glob.glob(os.path.join(directory, "*.json")):
        m = pattern.match(os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            result = json.load(f)
        runs.setdefault((m["w"], int(m["t"])), []).append((int(m["n"]), result))
    return {k: [r for _, r in sorted(v, key=lambda x: x[0])] for k, v in runs.items()}


def check_stamps(*sets):
    """Exits with status 2 unless every stamp matches the first in all but the revision."""
    first = None
    for runs in sets:
        for results in runs.values():
            for r in results:
                stamp = {k: v for k, v in r["stamp"].items() if k != "revision"}
                if first is None:
                    first = stamp
                elif stamp != first:
                    diff = sorted(k for k in set(first) | set(stamp) if first.get(k) != stamp.get(k))
                    print(f"compare.py: environment stamps differ in {', '.join(diff)}; "
                          "results from different environments are not comparable",
                          file=sys.stderr)
                    sys.exit(2)


def benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def end_to_end_spec():
    return benchmark()["end_to_end"]


def gated_workloads():
    """Workloads BENCHMARK.json names; verdicts on any other are printed only."""
    return {w["name"] for w in benchmark()["workloads"]}


def values(results, name, key="metrics"):
    return [r[key][name]["value"] for r in results if r[key].get(name, {}).get("value") is not None]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def pair_rule(parent_dir, change_dir):
    parent, change = load(parent_dir), load(change_dir)
    check_stamps(parent, change)
    spec = end_to_end_spec()
    gated = gated_workloads()
    bad = False
    workloads = sorted(w for (w, t) in parent if t == 0 and (w, 0) in change)
    if not workloads:
        sys.exit("compare.py: no workload has untraced (t0) runs on both sides")
    for w in workloads:
        a_runs, b_runs = parent[(w, 0)], change[(w, 0)]
        pairs = min(len(a_runs), len(b_runs))
        if pairs < PAIRS_NEEDED:
            print(f"{w:<18} only {pairs} pairs; the pair rule needs {PAIRS_NEEDED}")
            bad |= w in gated
            continue
        a_runs, b_runs = a_runs[:pairs], b_runs[:pairs]
        cells = []
        for m in spec:
            name, lower = m["name"], m["better"] == "lower"
            a, b = values(a_runs, name), values(b_runs, name)
            sign = 1.0 if lower else -1.0  # positive = the change is worse
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
            q1a, med_a, q3a = quartiles(a)
            med_b = statistics.median(b)
            worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
            if wins >= WIN_SHARE * pairs and worse < 0 and abs(med_b - med_a) > q3a - q1a:
                verdict = f"GAIN {-100 * worse:.1f}% ({wins}/{pairs})"
            elif worse > m["bound"]:
                verdict = f"REGRESSED +{100 * worse:.1f}%"
                bad |= w in gated
            elif max(spread(a), spread(b)) > m["bound"]:
                all_better = max(sign * y for y in b) < min(sign * x for x in a)
                verdict = "better in every run" if all_better else "unresolved"
            else:
                verdict = f"ok {100 * worse:+.1f}%"
            cells.append(f"{name}: {verdict}")
        fa = sum(r["failed"] for r in a_runs)
        fb = sum(r["failed"] for r in b_runs)
        if fb > fa:
            bad = True
        cells.append(f"failed: {fa}->{fb}{' ROSE' if fb > fa else ''}")
        if w not in gated:
            cells.append("not gated")
        print(f"{w:<18} " + " | ".join(cells))
    return 1 if bad else 0


def summarize(results, names, with_values):
    out = {}
    for name in names:
        v = values(results, name)
        if v:
            q1, med, q3 = quartiles(v)
            out[name] = {"median": med, "q1": q1, "q3": q3}
            if with_values:
                out[name]["spread"] = spread(v)
                out[name]["values"] = v
    return out


def exact_mismatches(results, key="metrics"):
    """Exact metrics whose value is not the same in every run."""
    bad = []
    for name in EXACT:
        v = [r[key][name]["value"] for r in results if name in r[key]]
        if len(set(v)) > 1:
            bad.append(name)
    return bad


def repeat(dir_a, dir_b, write):
    sets = [load(dir_a), load(dir_b)]
    check_stamps(*sets)
    spec = end_to_end_spec()
    gated = gated_workloads()
    names = [m["name"] for m in spec]
    seeds = sorted({r["seed"] for runs in sets for results in runs.values() for r in results})
    bad = False
    baseline = {"schema": "hzccl-e2e-baseline-v2", "sets": [{}, {}]}
    workloads = sorted({w for runs in sets for (w, _) in runs})
    for w in workloads:
        cells = []
        untraced = [s.get((w, 0), []) for s in sets]
        traced = [s.get((w, 1), []) for s in sets]
        if not all(untraced):
            cells.append("missing untraced runs")
            bad = True
        else:
            for m in spec:
                v = [values(u, m["name"]) for u in untraced]
                meds = [statistics.median(x) for x in v]
                diff = abs(meds[1] - meds[0]) / abs(meds[0]) if meds[0] else 0.0
                spreads = [spread(x) for x in v]
                flags = " DISAGREE" if diff > m["bound"] else ""
                if (m["name"] != "setup_s" and min(map(len, v)) >= PAIRS_NEEDED
                        and max(spreads) > m["bound"]):
                    flags += " SPREAD"
                bad |= bool(flags) and w in gated
                cells.append(f"{m['name']} d{100 * diff:.1f}% "
                             f"s{100 * spreads[0]:.1f}/{100 * spreads[1]:.1f}%{flags}")
        if len(seeds) == 1:  # exact counts are fixed by the seed
            mismatched = exact_mismatches(traced[0] + traced[1])
            if not all(traced):
                cells.append("missing traced runs")
                bad = True
            elif mismatched:
                cells.append("exact counts differ: " + ", ".join(mismatched))
                bad = True
            else:
                cells.append("exact counts identical")
        failed = sum(r["failed"] for s in untraced + traced for r in s)
        bad |= failed > 0
        cells.append(f"failed {failed}")
        if w not in gated:
            cells.append("not gated")
        print(f"{w:<18} " + " | ".join(cells))
        for i in range(2):
            entry = {"end_to_end": summarize(untraced[i], names, True)}
            if traced[i]:
                entry["per_layer"] = summarize(traced[i], list(traced[i][0]["metrics"]), False)
            baseline["sets"][i][w] = entry
    if write:
        first = next(r for runs in sets for results in runs.values() for r in results)
        baseline["stamp"] = first["stamp"]
        baseline["seeds"] = seeds
        baseline["seconds"] = first["seconds"]
        baseline["runs_per_set"] = min(len(v) for s in sets for v in s.values())
        with open(write, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 1 if bad else 0


# End-to-end values fixed by the seed: the timed and traced passes must agree.
SEED_FIXED = ["modeled_ms", "err_ratio.max"]


def smoke(directory):
    runs = load(directory)
    check_stamps(runs)
    names = [m["name"] for m in end_to_end_spec()]
    bad = False
    for w in sorted({w for (w, _) in runs}):
        timed, traced = runs.get((w, 0), []), runs.get((w, 1), [])
        problems = []
        if not timed:
            problems.append("no timed (t0) run")
        if len(traced) < 2:
            problems.append("fewer than two traced (t1) runs")
        for r in timed + traced:
            if not r["correct"]:
                problems.append(f"output wrong: {r.get('error', '')}")
        for r in timed:
            missing = [n for n in names if r["metrics"].get(n, {}).get("value") is None]
            if missing:
                problems.append("end-to-end values missing or not finite: " + ", ".join(missing))
        for r in traced:
            if not r.get("identical", False):
                problems.append("traced rebuild not identical to run_collective")
        problems += [f"{n} differs between runs" for n in exact_mismatches(traced)]
        for n in SEED_FIXED:
            seen = {r["end_to_end"][n]["value"] for r in traced}
            seen |= {r["metrics"][n]["value"] for r in timed if n in r["metrics"]}
            if len(seen) > 1:
                problems.append(f"{n} differs between runs")
        bad |= bool(problems)
        print(f"{w:<18} {'ok' if not problems else '; '.join(sorted(set(problems)))}")
    if not runs:
        print("no result files")
        bad = True
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeat", action="store_true")
    p.add_argument("--write")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("dirs", nargs="+")
    a = p.parse_args()
    if a.smoke:
        if len(a.dirs) != 1:
            p.error("--smoke takes one directory")
        return smoke(a.dirs[0])
    if len(a.dirs) != 2:
        p.error("give two directories")
    if a.repeat:
        return repeat(a.dirs[0], a.dirs[1], a.write)
    return pair_rule(a.dirs[0], a.dirs[1])


if __name__ == "__main__":
    sys.exit(main())
