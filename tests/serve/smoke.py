#!/usr/bin/env python3
"""End-to-end smoke cases of the design service, one ctest each
(`smoke.<case>`, labels unit;smoke).

A batch case answers one tools/*_request.json cold and warm on one cache,
with --no-cache, and under CSDAC_SIMD=scalar on a fresh cache. It asserts
identical results, cache misses cold, hits with zero chip evaluations
warm (response, embedded metrics block and check_metrics.py with the
family of each of the request's kinds, FAMILY), "off" with the cold chip
count uncached, scalar-only dispatch, a Chrome trace nesting
serve.batch > sched.job > exec.job, and the case's own result checks.

The serve case runs csdac_serve --listen cold (csdac_loadgen, then
csdac_ctl ping, dump and shutdown) and warm on the same cache
(csdac_loadgen --shutdown), then checks the metrics dumps
(--expect-serve --expect-stages), the flight and ctl dumps (`lg-` trace
ids) and every slow-log record (per-job stages sum to total_us, which
stays within the request's wall_us).

Every child gets the time left of one case budget; a server is killed
and reaped on every exit path.

Usage: smoke.py CASE WORKDIR TOOLS_BIN_DIR
WORKDIR is emptied first and keeps every artifact of the run.
"""
import json
import os
import shutil
import subprocess
import sys
import time

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "tools")
BUDGET_S = 240  # below the ctest TIMEOUT, so the cleanup always runs
DEADLINE = time.monotonic() + BUDGET_S

# Job kind -> the check_metrics.py family that checks its instruments.
FAMILY = {
    "inl_yield_is": "--expect-rare",
    "dyn_spectrum": "--expect-arch",
    "spice_mc": "--expect-spice",
}
BATCH_SPANS = ("serve.batch", "sched.job", "exec.job")


def expect(cond, msg):
    if not cond:
        print(f"smoke: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def remaining():
    left = DEADLINE - time.monotonic()
    expect(left > 0, f"case exceeded its {BUDGET_S} s budget")
    return left


def run(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=remaining())
    expect(proc.returncode == 0, f"{' '.join(cmd)} exited "
           f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")


def check_tool(script, *args):
    run([sys.executable, os.path.join(TOOLS, script), *args])


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def results(doc):
    return {j["id"]: j["result"] for j in doc["jobs"]}


def check_nesting(path):
    spans = [e for e in load(path)["traceEvents"] if e.get("ph") == "X"]
    names = {e["args"]["span"]: e["name"] for e in spans}
    for e in spans:
        parent = names.get(e["args"]["parent"])
        want = {"sched.job": "serve.batch", "exec.job": "sched.job"}.get(
            e["name"], parent)
        expect(parent == want, f"{path}: {e['name']} parented under "
               f"{parent!r}")


# --- per-case result checks (on the cold response) ---------------------

def check_sample(doc):
    s = doc["summary"]
    expect(s["requested"] == 8 and s["unique_jobs"] == 7,
           f"requested {s['requested']}, unique_jobs {s['unique_jobs']} "
           f"(want 8 and 7: the -dup entry folds)")
    by_id = {j["id"]: j for j in doc["jobs"]}
    twin, dup = by_id["inl-yield-1.0sigma"], by_id["inl-yield-1.0sigma-dup"]
    expect(twin["key"] == dup["key"] and twin["result"] == dup["result"],
           "the -dup entry does not share its twin's key and result")


def check_rare(doc):
    r = results(doc)["rare-is-8bit"]
    expect(r["ess"] > 0 and r["low_ess"] is False, f"rare-is-8bit: {r}")


def check_arch(doc):
    r = results(doc)
    dyn = r["dyn-segmented-10bit"]
    expect(dyn["cells"] > 0, f"dyn-segmented-10bit: {dyn}")
    expect(abs(dyn["ete_sfdr_mean_db"] - dyn["sfdr_mean_db"]) < 10,
           f"ETE and waveform-MC SFDR differ by 10 dB or more: {dyn}")
    schemes = [p["scheme"] for p in r["arch-compare-10bit"]["architectures"]]
    expect("binary" in schemes and "optimized" in schemes,
           f"arch-compare-10bit schemes: {schemes}")


def check_spice(doc):
    mc = results(doc)["spice-mc-8bit"]
    expect(mc["chips"] == 6 and 0.0 <= mc["yield"] <= 1.0,
           f"spice-mc-8bit: {mc}")
    s = mc["solver"]
    expect(s["factorizations"] >= 1, f"no symbolic factorization: {s}")
    expect(s["refactorizations"] > s["factorizations"],
           f"factorizations not replayed as refactorizations: {s}")
    expect(s["warm_start_hits"] > 0, f"no warm-start hits: {s}")


# --- batch cases -------------------------------------------------------

def batch_case(request_file, check):
    request = os.path.join(TOOLS, request_file)

    def case(work, bindir):
        jobs = load(request)["jobs"]
        kinds = {j["kind"] for j in jobs}
        family = sorted({FAMILY[k] for k in kinds if k in FAMILY})
        serve = os.path.join(bindir, "csdac_serve")
        cache = os.path.join(work, "cache")

        def answer(name, *extra, env=None):
            out = os.path.join(work, f"{name}.json")
            run([serve, request, "--out", out, *extra], env=env)
            return load(out)

        runs = {}
        for name in ("cold", "warm"):
            chrome = os.path.join(work, f"chrome_{name}.json")
            runs[name] = answer(
                name, "--cache", cache, "--chrome-trace", chrome,
                "--metrics-out", os.path.join(work, f"metrics_{name}.prom"))
            check_tool("check_trace_dump.py", chrome,
                       *(a for n in BATCH_SPANS for a in ("--expect-name", n)))
            check_nesting(chrome)
        runs["nocache"] = answer("nocache", "--no-cache")
        scalar_prom = os.path.join(work, "metrics_scalar.prom")
        runs["scalar"] = answer(
            "scalar", "--cache", os.path.join(work, "cache_scalar"),
            "--metrics-out", scalar_prom,
            env={**os.environ, "CSDAC_SIMD": "scalar"})

        cold, warm, nocache = runs["cold"], runs["warm"], runs["nocache"]
        for name, doc in runs.items():
            expect(doc["schema"] == "csdac-serve/2",
                   f"{name}: schema {doc['schema']!r}")
            s = doc["summary"]
            keys = {j["key"] for j in doc["jobs"]}
            expect(s["requested"] == len(jobs),
                   f"{name}: requested {s['requested']}")
            expect(s["unique_jobs"] == len(keys),
                   f"{name}: unique_jobs {s['unique_jobs']}, "
                   f"{len(keys)} distinct keys")
            expect(results(doc) == results(cold),
                   f"{name} results differ from cold results")

        expect(all(j["cache"] == "miss" for j in cold["jobs"]),
               "cold run reported a cache hit on a fresh cache")
        expect(cold["summary"]["chip_evals"] > 0, "cold run evaluated no chips")
        expect(all(j["cache"] == "hit" for j in warm["jobs"]),
               "warm run recomputed: " + ", ".join(
                   j["id"] for j in warm["jobs"] if j["cache"] != "hit"))
        expect(warm["summary"]["chip_evals"] == 0,
               f"warm run evaluated {warm['summary']['chip_evals']} chips")
        expect(warm["summary"]["cache_misses"] == 0,
               f"warm run had {warm['summary']['cache_misses']} cache misses")
        counters = warm["metrics"]["counters"]
        expect(counters["cache.misses"] == 0
               and counters["mc.chips_evaluated"] == 0
               and counters["cache.hits"] >= 1,
               f"warm metrics block is not a pure cache-hit run: {counters}")
        expect(all(j["cache"] == "off" for j in nocache["jobs"]),
               "--no-cache run reported a cache state other than off")
        expect(nocache["summary"]["chip_evals"] == cold["summary"]["chip_evals"],
               f"--no-cache evaluated {nocache['summary']['chip_evals']} "
               f"chips, cold {cold['summary']['chip_evals']}: a job ran twice")

        check_tool("check_metrics.py",
                   "--cold", os.path.join(work, "metrics_cold.prom"),
                   "--warm", os.path.join(work, "metrics_warm.prom"), *family)
        check_tool("check_metrics.py", scalar_prom, "--expect-simd", "scalar",
                   *family)
        check(cold)
        return (f"{len(cold['jobs'])} jobs, {cold['summary']['unique_jobs']} "
                f"unique, {' '.join(family) or 'no family'}: warm all hits, "
                f"--no-cache and scalar identical")
    return case


# --- listen case -------------------------------------------------------

def check_slow_log(path):
    with open(path, encoding="utf-8") as f:
        lines = [l for l in f if l.strip()]
    expect(lines, f"{path}: --slow-us 0 sampled nothing")
    for line in lines:
        rec = json.loads(line)
        expect(rec["ev"] == "slow_request", f"{path}: {rec}")
        expect(rec["trace_id"].startswith("lg-"), f"{path}: {rec}")
        expect(rec["job_stages"], f"{path}: no job stages in {rec}")
        for js in rec["job_stages"]:
            total = sum(v for k, v in js.items()
                        if k.endswith("_us") and k != "total_us")
            expect(js["total_us"] == total,
                   f"{path}: total_us is not the sum of the stages: {js}")
            expect(js["total_us"] <= rec["wall_us"],
                   f"{path}: job stages exceed the request's wall_us "
                   f"{rec['wall_us']}: {js}")
    return len(lines)


def listen_case(work, bindir):
    serve, loadgen, ctl = (os.path.join(bindir, t) for t in
                           ("csdac_serve", "csdac_loadgen", "csdac_ctl"))
    cache = os.path.join(work, "cache")
    flight_names = [a for n in BATCH_SPANS[1:] for a in ("--expect-name", n)]
    slow = 0
    for phase in ("cold", "warm"):
        def p(name):
            return os.path.join(work, name.format(phase))
        port, log = p("port_{}.txt"), p("server_{}.log")
        with open(log, "w", encoding="utf-8") as out:
            server = subprocess.Popen(
                [serve, "--listen", "--port", "0", "--port-file", port,
                 "--cache", cache, "--flight-out", p("flight_{}.json"),
                 "--metrics-out", p("metrics_{}.prom"),
                 "--slow-us", "0", "--slow-log", p("slow_{}.jsonl")],
                stdout=out, stderr=subprocess.STDOUT)
        try:
            # csdac_loadgen waits for the server to write the port file.
            if phase == "cold":
                run([loadgen, "--port-file", port, "--out", p("bench_{}.json")])
                run([ctl, "--port-file", port, "ping"])
                run([ctl, "--port-file", port, "dump", "--out",
                     p("ctl_dump.json")])
                run([ctl, "--port-file", port, "shutdown"])
            else:
                run([loadgen, "--port-file", port, "--shutdown",
                     "--out", p("bench_{}.json")])
            code = server.wait(timeout=remaining())
            with open(log, encoding="utf-8") as f:
                expect(code == 0, f"{phase} server exited {code}:\n{f.read()}")
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()
        check_tool("check_trace_dump.py", p("flight_{}.json"),
                   "--expect-trace", "lg-", "--expect-name", "serve.request",
                   *flight_names)
        slow += check_slow_log(p("slow_{}.jsonl"))
    check_tool("check_trace_dump.py", os.path.join(work, "ctl_dump.json"),
               "--expect-trace", "lg-", "--expect-name", "serve.request")
    check_tool("check_metrics.py",
               "--cold", os.path.join(work, "metrics_cold.prom"),
               "--warm", os.path.join(work, "metrics_warm.prom"),
               "--expect-serve", "--expect-stages")
    return f"cold and warm servers clean, {slow} slow-log records in bounds"


# A new request file under tools/ gets a row here and its name in the
# smoke case list of tests/CMakeLists.txt.
CASES = {
    "sample": batch_case("sample_request.json", check_sample),
    "rare": batch_case("rare_request.json", check_rare),
    "arch": batch_case("arch_request.json", check_arch),
    "spice": batch_case("spice_request.json", check_spice),
    "serve": listen_case,
}


def main(argv):
    if len(argv) != 4 or argv[1] not in CASES:
        print(__doc__, file=sys.stderr)
        return 2
    name, work, bindir = argv[1:]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print(f"smoke.{name}: OK — {CASES[name](work, bindir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
