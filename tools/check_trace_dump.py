#!/usr/bin/env python3
"""Validate a flight-recorder dump (Chrome trace JSON) from the design
server (`csdac_serve --flight-out`, `csdac-ctl dump`, or the fatal-error
handler).

The dump must be the Chrome trace object form: a JSON object whose
`traceEvents` array holds metadata events (ph "M": process_name /
thread_name) and complete events (ph "X") with name, numeric ts/dur and
pid/tid. Loadable as-is in chrome://tracing or Perfetto.

Checks, in order:
  * the file parses as JSON and has the object-with-traceEvents shape;
  * every event carries a valid ph; every "X" event has a non-empty name
    and finite, non-negative ts and dur;
  * at least one complete event was captured (an empty flight ring
    usually means the span sink was never installed);
  * with --expect-trace PREFIX: at least one complete event carries
    args.trace_id starting with PREFIX — proves request-scoped trace ids
    made it through the server into the flight ring (loadgen mints
    `lg-<client>-<n>`, the server mints `sv-<conn>-<n>`);
  * with --expect-name NAME (repeatable): a complete event with that
    exact span name exists — used to assert the request landed in every
    layer (serve.request / sched.job / exec.job).

Exits nonzero with a message on the first violation.
"""
import json
import math
import sys

MIN_EVENTS = 1


def fail(msg):
    print(f"check_trace_dump: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def main(argv):
    path = None
    expect_trace = None
    expect_names = []
    i = 1
    while i < len(argv):
        a = argv[i]
        if a == "--expect-trace":
            i += 1
            expect_trace = argv[i]
        elif a == "--expect-name":
            i += 1
            expect_names.append(argv[i])
        elif a.startswith("-"):
            print(f"check_trace_dump: unknown option {a!r}",
                  file=sys.stderr)
            return 2
        elif path is None:
            path = a
        else:
            print("check_trace_dump: more than one TRACE.json",
                  file=sys.stderr)
            return 2
        i += 1
    if path is None:
        print("usage: check_trace_dump.py TRACE.json "
              "[--expect-trace PREFIX] [--expect-name NAME]...",
              file=sys.stderr)
        return 2

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: expected an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not an array")

    complete = []
    for n, ev in enumerate(events):
        where = f"{path}: traceEvents[{n}]"
        if not isinstance(ev, dict):
            fail(f"{where}: event is not an object")
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                fail(f"{where}: unknown metadata event {ev.get('name')!r}")
            continue
        if ph != "X":
            fail(f"{where}: unexpected event phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(f"{where}: complete event lacks a name")
        for field in ("ts", "dur"):
            if not finite_number(ev.get(field)) or ev[field] < 0:
                fail(f"{where}: bad {field} {ev.get(field)!r}")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                fail(f"{where}: bad {field} {ev.get(field)!r}")
        complete.append(ev)

    if len(complete) < MIN_EVENTS:
        fail(f"{path}: {len(complete)} complete events, expected at "
             f"least {MIN_EVENTS}")

    if expect_trace is not None:
        traced = [
            ev for ev in complete
            if isinstance(ev.get("args"), dict)
            and str(ev["args"].get("trace_id", "")).startswith(
                expect_trace)
        ]
        if not traced:
            fail(f"{path}: no event carries a trace_id starting with "
                 f"{expect_trace!r}")

    names = {ev["name"] for ev in complete}
    for want in expect_names:
        if want not in names:
            fail(f"{path}: no complete event named {want!r} "
                 f"(saw {sorted(names)})")

    traced_total = sum(
        1 for ev in complete
        if isinstance(ev.get("args"), dict) and ev["args"].get("trace_id"))
    print(f"check_trace_dump: OK — {path}: {len(complete)} events "
          f"({traced_total} with trace ids), {len(names)} span names")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
