#!/usr/bin/env python3
"""Paired benchmark gate: this checkout against a base commit.

    python3 tools/perf_gate.py --base <git ref>

Exports <ref> into a temporary directory (`git archive`, so an interrupted
gate leaves nothing registered in the repository), then runs
`csbench/run.py` there and in this checkout: for each workload of
BENCHMARK.json, 5 pairs of `run_seconds`-long runs, pair i on seed i+1,
alternating which side goes first. Each side builds its own
`.bench_build/` on its first run.

It fails (exit 1) when
  * any run does not finish, reports `correct: false` or `failed > 0`, or
  * a head median of an end-to-end metric is worse than the base median
    by more than that metric's bound -- unless the base's own quartile
    distance (q3 - q1, relative to its median) exceeds the bound: such a
    metric is printed `unresolved` (or `ok` when every head run reads
    better than every base run) and does not fail.

Both sides' runs (machine stamp incl. `steal_frac`, verdict), medians and
quartiles, and the per-metric verdicts go to BENCH_perf_gate.json in this
checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
OUT = os.path.join(ROOT, "BENCH_perf_gate.json")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export(ref, dest):
    """Writes the tree of `ref` into `dest`."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("perf_gate: git archive %s failed" % ref)


def run(tree, workload, seed, seconds):
    """One csbench run in `tree`: {"stamp", "verdict"}, or {"error"}."""
    cmd = [sys.executable, os.path.join(tree, "csbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    stamps = [l[len("machine: "):] for l in lines
              if l.startswith("machine: ")]
    try:
        if p.returncode == 0 and stamps:
            return {"stamp": json.loads(stamps[-1]),
                    "verdict": json.loads(lines[-1])}
    except ValueError:
        pass
    return {"error": "exit %d: %s" % (p.returncode, p.stderr.strip()[-400:])}


def summary(runs, metric):
    values = [r["verdict"]["metrics"][metric]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def judge(base, head, spec):
    """Verdict of one end-to-end metric from both sides' summaries: a base
    spread wider than the bound cannot tell, unless every head run reads
    better than every base run."""
    mb, mh = base["median"], head["median"]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (mh - mb) / mb if mb else 0.0
    spread = (base["q3"] - base["q1"]) / mb if mb else 0.0
    if spread > spec["bound"]:
        all_better = (max(sign * v for v in head["values"]) <
                      min(sign * v for v in base["values"]))
        status = "ok" if all_better else "unresolved"
    else:
        status = "regressed" if worse > spec["bound"] else "ok"
    return {"worse_frac": worse, "base_spread_frac": spread,
            "bound": spec["bound"], "status": status}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git ref to compare against")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    doc = {"schema": "csdac-perf-gate/1",
           "base": {"ref": args.base, "sha": git("rev-parse", args.base)},
           "head": {"sha": git("rev-parse", "HEAD"),
                    "dirty": bool(git("status", "--porcelain",
                                      "--untracked-files=no"))},
           "pairs": PAIRS, "run_seconds": seconds, "workloads": {}}
    ok = True
    base_tree = tempfile.mkdtemp(prefix="perf-gate-base-")
    try:
        export(args.base, base_tree)
        trees = {"base": base_tree, "head": ROOT}
        for w in bench["workloads"]:
            name = w["name"]
            runs = {"base": [], "head": []}
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    r = run(trees[side], name, i + 1, seconds)
                    r["seed"] = i + 1
                    runs[side].append(r)
                    v = r.get("verdict", {})
                    print("%-12s pair %d %-4s %s" % (
                        name, i + 1, side,
                        r.get("error") or "correct=%s failed=%s steal=%.3f"
                        % (v.get("correct"), v.get("failed"),
                           r["stamp"]["steal_frac"])), flush=True)
            entry = {side: {"runs": rs} for side, rs in runs.items()}
            doc["workloads"][name] = entry
            bad = [(side, r["seed"]) for side, rs in runs.items() for r in rs
                   if "error" in r or r["verdict"]["correct"] is not True
                   or r["verdict"]["failed"] > 0]
            entry["failed_runs"] = bad
            if bad:
                ok = False
                print("%s: FAILED runs (side, seed): %s" % (name, bad))
                continue
            entry["metrics"] = {}
            for spec in bench["end_to_end"]:
                m = spec["name"]
                sb = summary(runs["base"], m)
                sh = summary(runs["head"], m)
                entry["base"].setdefault("metrics", {})[m] = sb
                entry["head"].setdefault("metrics", {})[m] = sh
                v = judge(sb, sh, spec)
                entry["metrics"][m] = v
                ok = ok and v["status"] != "regressed"
                print("%-12s %-12s base %10.4g [%.4g, %.4g]  head %10.4g  "
                      "worse %+6.1f%% (bound %.0f%%, base spread %.1f%%)  %s"
                      % (name, m, sb["median"], sb["q1"], sb["q3"],
                         sh["median"], 100 * v["worse_frac"],
                         100 * spec["bound"], 100 * v["base_spread_frac"],
                         v["status"]))
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    doc["pass"] = ok
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("perf_gate: %s, wrote %s" % ("PASS" if ok else "FAIL", OUT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
