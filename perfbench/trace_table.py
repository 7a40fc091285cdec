"""Per-layer breakdown of a traced benchmark run.

The traced run records a span around every call the benchmark makes into a
layer (category "bench.<layer>", name "<layer>.<op>"), inside one root span
whose name ends in ".pass". This module turns the Chrome trace into:

* per-layer sums and call counts (netlist.parse_ms, sta.calls, ...);
* per-layer self time, two ways:
  - wall share: every instant of the root span goes to the innermost active
    span of each thread, split evenly between threads working at once (the
    root's own thread counts only while no other thread is inside a span).
    These add up to the root span's duration, i.e. the traced wall time.
  - busy: a span's duration minus the part its same-thread children cover,
    summed over threads (work done, regardless of overlap).
* the program's own spans (flow stages, fault-sim batches, ATPG phases,
  serve requests, verify checks), with busy time per layer, for the work the
  benchmark cannot wrap from outside, such as the server's side of a request.
"""

import json
import os

# Program span categories -> layer (spans the program already records). The
# scheduler's per-worker lifetime spans ("flow.sched") are waiting, not work.
PROGRAM_LAYERS = [
    ("flow.sched", None),
    ("flow.", "flow"),
    ("fault_sim", "fault"),
    ("atpg", "atpg"),
    ("verify.", "verify"),
    ("serve.", "serve"),
]
SELF_LAYERS = ["bench", "flow", "netlist", "dft", "sta", "power", "fault", "atpg", "serve"]


def _program_layer(cat):
    for prefix, layer in PROGRAM_LAYERS:
        if cat.startswith(prefix):
            return layer
    return None


def _sweep(spans, main_tid, split):
    """Attribute time to the innermost span of each thread.

    spans: list of (start, end, tid, layer). Returns {layer: microseconds}.
    The main thread (waiting on the others) is skipped while another thread
    is inside a span; with split=True an instant is divided evenly between
    the threads active in it.
    """
    events = []
    for i, (s, e, _, _) in enumerate(spans):
        if e > s:
            events.append((s, 1, -(e - s), i))
            events.append((e, 0, e - s, i))
    events.sort()
    stacks = {}
    out = {}
    prev = None
    for t, kind, _, i in events:
        if prev is not None and t > prev:
            leaves = [st[-1] for st in stacks.values() if st]
            if len(leaves) > 1:
                leaves = [j for j in leaves if spans[j][2] != main_tid]
            if leaves:
                dt = (t - prev) / len(leaves) if split else (t - prev)
                for j in leaves:
                    out[spans[j][3]] = out.get(spans[j][3], 0.0) + dt
        prev = t
        stack = stacks.setdefault(spans[i][2], [])
        if kind == 1:
            stack.append(i)
        elif i in stack:
            stack.remove(i)
    return out


def analyse(trace_path, raw, out_dir):
    """Return (metrics, checks): per-layer metrics derived from the trace,
    and (ok, why) correctness checks. Writes layers.md / layers.json."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]

    def window(suffix):
        roots = [e for e in events
                 if e["cat"].startswith("bench.") and e["name"].endswith(suffix)]
        if not roots:
            return None
        r = max(roots, key=lambda e: e["dur"])
        return r, r["ts"], r["ts"] + r["dur"]

    def inside(e, w):
        return w is not None and e["ts"] >= w[1] - 1 and e["ts"] + e["dur"] <= w[2] + 1

    passw = window(".pass")
    if passw is None:
        raise RuntimeError("trace has no .pass span")
    root, t0, t1 = passw
    setup = window(".setup")

    sums, counts = {}, {}
    for e in events:
        w_ok = inside(e, setup) if e["name"] == "iscas.generate" else inside(e, passw)
        if not w_ok:
            continue
        sums[e["name"]] = sums.get(e["name"], 0.0) + e["dur"] / 1000.0
        counts[e["name"]] = counts.get(e["name"], 0) + 1

    def ms(name):
        return sums.get(name, 0.0)

    m = {}

    def put(name, value, u):
        m[name] = {"value": value, "unit": u}

    put("iscas.generate_ms", ms("iscas.generate"), "ms")
    put("netlist.parse_ms", ms("netlist.parse"), "ms")
    put("netlist.parse_calls", counts.get("netlist.parse", 0), "count")
    for op in ("scan", "plan", "evaluate", "fanout_opt"):
        put("dft.%s_ms" % op, ms("dft." + op), "ms")
    put("sta.run_ms", ms("sta.run"), "ms")
    put("sta.calls", counts.get("sta.run", 0), "count")
    put("power.measure_ms", ms("power.measure"), "ms")
    put("power.calls", counts.get("power.measure", 0), "count")
    put("atpg.wall_ms", ms("atpg.generate"), "ms")
    put("atpg.random_ms", ms("atpg:transition:random"), "ms")
    put("atpg.topoff_ms", ms("atpg:transition:topoff"), "ms")
    grade = ms("fault.grade")
    put("fault.grade_ms", grade, "ms")
    if "fault.graded" in raw:
        put("fault.faults_per_s", raw["fault.graded"]["value"] / (grade / 1000.0) if grade else 0.0,
            "1/s")

    bench = [(e["ts"], e["ts"] + e["dur"], e["tid"], e["cat"][len("bench."):])
             for e in events if e["cat"].startswith("bench.") and inside(e, passw)]
    share = _sweep(bench, root["tid"], split=True)
    busy = _sweep(bench, root["tid"], split=False)
    prog = [(e["ts"], e["ts"] + e["dur"], e["tid"], _program_layer(e["cat"]))
            for e in events if not e["cat"].startswith("bench.") and inside(e, passw)]
    prog_busy = _sweep([p for p in prog if p[3]], None, split=False)

    wall_ms = (t1 - t0) / 1000.0
    self_sum = sum(share.values()) / 1000.0
    for layer in SELF_LAYERS:
        put(layer + ".self_ms", share.get(layer, 0.0) / 1000.0, "ms")
    put("atpg.share_pct", 100.0 * share.get("atpg", 0.0) / 1000.0 / wall_ms if wall_ms else 0.0,
        "%")
    traced = raw["trace.traced_wall_ms"]["value"]
    untraced = raw["trace.untraced_wall_ms"]["value"]
    put("trace.self_sum_ms", self_sum, "ms")
    put("trace.overhead_pct", 100.0 * (traced - untraced) / untraced if untraced else 0.0, "%")

    tolerance = max(abs(traced - untraced), 0.01 * traced)
    checks = [(abs(self_sum - traced) <= tolerance,
               "layer self times sum to %.3f ms, traced wall %.3f ms, overhead %.3f ms"
               % (self_sum, traced, traced - untraced))]

    rows = []
    for layer in sorted(set(share) | set(busy) | set(prog_busy),
                        key=lambda l: -share.get(l, 0.0)):
        rows.append({
            "layer": layer,
            "self_ms": share.get(layer, 0.0) / 1000.0,
            "share_pct": 100.0 * share.get(layer, 0.0) / 1000.0 / wall_ms if wall_ms else 0.0,
            "busy_ms": busy.get(layer, 0.0) / 1000.0,
            "program_busy_ms": prog_busy.get(layer, 0.0) / 1000.0,
        })
    table = {"traced_wall_ms": traced, "untraced_wall_ms": untraced, "root_span_ms": wall_ms,
             "self_sum_ms": self_sum, "layers": rows, "metrics": m}
    with open(os.path.join(out_dir, "layers.json"), "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "layers.md"), "w") as f:
        f.write(render(table))
    return m, checks


def render(table):
    lines = [
        "| layer | self ms (wall share) | % of traced wall | busy ms (thread sum) "
        "| program-span busy ms |",
        "|---|---:|---:|---:|---:|",
    ]
    for r in table["layers"]:
        lines.append("| %s | %.1f | %.2f | %.1f | %.1f |" % (
            r["layer"], r["self_ms"], r["share_pct"], r["busy_ms"], r["program_busy_ms"]))
    lines.append("")
    lines.append("traced wall %.1f ms, untraced %.1f ms (overhead %+.2f%%); "
                 "self times sum to %.1f ms" % (
                     table["traced_wall_ms"], table["untraced_wall_ms"],
                     100.0 * (table["traced_wall_ms"] - table["untraced_wall_ms"])
                     / table["untraced_wall_ms"] if table["untraced_wall_ms"] else 0.0,
                     table["self_sum_ms"]))
    return "\n".join(lines) + "\n"
