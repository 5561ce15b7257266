#!/usr/bin/env python3
"""Batch-mode smoke test of csdac_serve (registered with ctest as
serve_batch_smoke).

Answers tools/sample_request.json three times against a fresh cache —
cold, warm, and with --no-cache — and asserts:
  * the "-dup" entry is folded: 8 requested, 7 unique jobs, and the
    duplicate shares its twin's key and result;
  * the warm run is served entirely from the store: every job reports
    cache "hit", the summary shows 0 chip evaluations and 0 cache misses;
  * cold, warm and --no-cache results are identical, and --no-cache still
    runs each unique job once (same chip count as the cold run);
  * the --chrome-trace exports pass tools/check_trace_dump.py with
    serve.batch, sched.job and exec.job spans, each sched.job parented
    under serve.batch and each exec.job under a sched.job.

Usage: batch_smoke.py CSDAC_SERVE REQUEST.json CHECK_TRACE_DUMP.py
"""
import json
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"batch_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def serve(binary, request, out, *extra):
    cmd = [binary, request, "--out", out, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def results(doc):
    return {j["id"]: j["result"] for j in doc["jobs"]}


def check_nesting(path):
    with open(path, encoding="utf-8") as f:
        spans = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    names = {e["args"]["span"]: e["name"] for e in spans}
    for e in spans:
        parent = names.get(e["args"]["parent"])
        if e["name"] == "sched.job" and parent != "serve.batch":
            fail(f"{path}: sched.job parented under {parent!r}")
        if e["name"] == "exec.job" and parent != "sched.job":
            fail(f"{path}: exec.job parented under {parent!r}")


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    binary, request, check_trace_dump = argv[1:]
    with tempfile.TemporaryDirectory(prefix="csdac-batch-") as tmp:
        cache = os.path.join(tmp, "cache")
        runs = {}
        for name in ("cold", "warm"):
            chrome = os.path.join(tmp, f"chrome_{name}.json")
            runs[name] = serve(binary, request,
                               os.path.join(tmp, f"{name}.json"),
                               "--cache", cache, "--chrome-trace", chrome)
            dump = subprocess.run(
                [sys.executable, check_trace_dump, chrome,
                 "--expect-name", "serve.batch", "--expect-name", "sched.job",
                 "--expect-name", "exec.job"],
                capture_output=True, text=True)
            if dump.returncode != 0:
                fail(f"check_trace_dump on {name} run:\n{dump.stderr}")
            check_nesting(chrome)
        runs["nocache"] = serve(binary, request,
                                os.path.join(tmp, "nocache.json"),
                                "--no-cache")

    cold, warm, nocache = runs["cold"], runs["warm"], runs["nocache"]
    for name, doc in runs.items():
        if doc["schema"] != "csdac-serve/2":
            fail(f"{name}: schema {doc['schema']!r}")
        s = doc["summary"]
        if s["requested"] != 8 or s["unique_jobs"] != 7:
            fail(f"{name}: requested {s['requested']}, unique_jobs "
                 f"{s['unique_jobs']} (want 8 and 7: the -dup entry folds)")
    by_id = {j["id"]: j for j in cold["jobs"]}
    twin, dup = by_id["inl-yield-1.0sigma"], by_id["inl-yield-1.0sigma-dup"]
    if twin["key"] != dup["key"] or twin["result"] != dup["result"]:
        fail("the -dup entry does not share its twin's key and result")

    if any(j["cache"] != "miss" for j in cold["jobs"]):
        fail("cold run reported a cache hit on a fresh cache")
    if any(j["cache"] != "hit" for j in warm["jobs"]):
        fail("warm run recomputed: " + ", ".join(
            j["id"] for j in warm["jobs"] if j["cache"] != "hit"))
    if warm["summary"]["chip_evals"] != 0:
        fail(f"warm run evaluated {warm['summary']['chip_evals']} chips")
    if warm["summary"]["cache_misses"] != 0:
        fail(f"warm run had {warm['summary']['cache_misses']} cache misses")
    if any(j["cache"] != "off" for j in nocache["jobs"]):
        fail("--no-cache run reported a cache state other than off")
    if cold["summary"]["chip_evals"] <= 0:
        fail("cold run evaluated no chips")
    if nocache["summary"]["chip_evals"] != cold["summary"]["chip_evals"]:
        fail(f"--no-cache evaluated {nocache['summary']['chip_evals']} chips, "
             f"cold {cold['summary']['chip_evals']}: a job ran twice")

    if results(warm) != results(cold):
        fail("warm results differ from cold results")
    if results(nocache) != results(cold):
        fail("--no-cache results differ from cold results")
    print(f"batch_smoke: OK — {len(cold['jobs'])} requests, 7 unique jobs, "
          "warm run all hits with 0 chip evals, results identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
