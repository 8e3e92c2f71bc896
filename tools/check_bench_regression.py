#!/usr/bin/env python3
"""Compare fresh bench output against the committed baselines.

Reads the two bench JSON documents the CI bench job produces:

  BENCH_service_scalability.json  service_scalability --quick --json
  BENCH_micro_structures.json     micro_structures --benchmark_out=...
  BENCH_trace_stream.json         trace_stream --quick --json

and compares them against the copies committed under bench/baselines/.
Two very different tolerance regimes apply:

  * Simulated metrics (cycles, commits/kcycle, throughput gain) are
    produced by a deterministic simulator: identical code must produce
    identical numbers on any host. A small band (--sim-tolerance,
    default 2%) only absorbs legitimate rounding in derived ratios; a
    real change beyond it — in EITHER direction — means the PR changed
    simulated behaviour and must either fix the regression or
    consciously update the baseline (docs/repro-guide.md describes
    how). Unacknowledged improvements fail too: a stale baseline
    would let a later regression back down to it pass unnoticed.

  * Host-time metrics (micro_structures items_per_second, and the
    service bench's per-point host_wall_ms) vary with the runner, so
    only large regressions fail (--host-tolerance, default 60% slower
    — the linear scans this guards against regress lookups by 10-50x,
    not 10%). Improvements never fail.

Exit status: 0 when everything is within tolerance, 1 on any
regression or missing/malformed file. --report writes the comparison
table to a file (the nightly uploads it as an artifact).
"""

import argparse
import json
import sys
from pathlib import Path

SERVICE = "BENCH_service_scalability.json"
MICRO = "BENCH_micro_structures.json"
TRACE = "BENCH_trace_stream.json"


class Reporter:
    def __init__(self, path):
        self.lines = []
        self.path = path
        self.failures = 0

    def line(self, text=""):
        print(text)
        self.lines.append(text)

    def fail(self, text):
        self.failures += 1
        self.line(f"FAIL: {text}")

    def close(self):
        if self.path:
            Path(self.path).write_text("\n".join(self.lines) + "\n")


def load(path, rep):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        rep.fail(f"missing {path}")
    except json.JSONDecodeError as e:
        rep.fail(f"malformed {path}: {e}")
    return None


def check_host_ms(label, bp, fp, tol, rep):
    """Gate one host_wall_ms pair: one-sided, lower is better."""
    b, f = bp.get("host_wall_ms"), fp.get("host_wall_ms")
    if not b or f is None:
        return
    delta = (f - b) / b
    verdict = "ok" if f <= b * (1 + tol) else "REGRESSED"
    rep.line(f"  {label}: {b:.1f} -> {f:.1f} ms host wall "
             f"({delta:+.1%}) {verdict}")
    if verdict != "ok":
        rep.fail(f"host wall time at {label} regressed {delta:+.1%} "
                 f"(tolerance +{tol:.0%})")


def check_service(base, fresh, tol, host_tol, rep):
    rep.line(f"== service_scalability (simulated, tolerance {tol:.0%})")
    if base.get("scale") != fresh.get("scale") or \
            base.get("nthreads") != fresh.get("nthreads"):
        rep.line(
            f"  note: sizing changed "
            f"(baseline scale={base.get('scale')} nthreads="
            f"{base.get('nthreads')}, fresh scale={fresh.get('scale')} "
            f"nthreads={fresh.get('nthreads')}); update the baseline")
    base_pts = {(p.get("shards"), p.get("banks", 1)): p
                for p in base.get("points", [])}
    fresh_pts = {(p.get("shards"), p.get("banks", 1)): p
                 for p in fresh.get("points", [])}
    for key, bp in sorted(base_pts.items()):
        fp = fresh_pts.get(key)
        label = f"{key[0]} shards x {key[1]} banks"
        if fp is None:
            rep.fail(f"service point {label} missing from fresh run")
            continue
        b, f = bp["commits_per_kcycle"], fp["commits_per_kcycle"]
        delta = (f - b) / b if b else 0.0
        # Two-sided: the simulator is deterministic, so a change in
        # EITHER direction means simulated behaviour changed and the
        # baseline must be consciously regenerated (an unacknowledged
        # improvement would let a later regression back to the stale
        # baseline pass unnoticed).
        verdict = "ok" if abs(delta) <= tol else (
            "REGRESSED" if delta < 0 else "CHANGED (update baseline)")
        rep.line(f"  {label}: {b:.4f} -> {f:.4f} commits/kcycle "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"service throughput at {label} changed "
                     f"{delta:+.1%} (tolerance +/-{tol:.0%})")
    for key in sorted(set(fresh_pts) - set(base_pts)):
        rep.line(f"  note: new point {key[0]}x{key[1]} has no baseline")
    # The fleet axis (2-cluster scale-out, docs/fleet.md) is keyed by
    # cross-cluster fraction; the same deterministic two-sided band
    # applies.
    base_fleet = {p.get("xc_fraction"): p
                  for p in base.get("fleet_points", [])}
    fresh_fleet = {p.get("xc_fraction"): p
                   for p in fresh.get("fleet_points", [])}
    for xc, bp in sorted(base_fleet.items()):
        fp = fresh_fleet.get(xc)
        label = f"fleet xc={xc:.2f}"
        if fp is None:
            rep.fail(f"service point {label} missing from fresh run")
            continue
        b, f = bp["commits_per_kcycle"], fp["commits_per_kcycle"]
        delta = (f - b) / b if b else 0.0
        verdict = "ok" if abs(delta) <= tol else (
            "REGRESSED" if delta < 0 else "CHANGED (update baseline)")
        rep.line(f"  {label}: {b:.4f} -> {f:.4f} commits/kcycle "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"service throughput at {label} changed "
                     f"{delta:+.1%} (tolerance +/-{tol:.0%})")
    for xc in sorted(set(fresh_fleet) - set(base_fleet)):
        rep.line(f"  note: new fleet point xc={xc:.2f} has no baseline")
    # Scenario axis (docs/scenarios.md): one point per registered
    # scenario at the top scale-up config. Throughput sits in the
    # deterministic two-sided band; the arrival ledger fields are
    # exact simulated counters, so any drift at all means traffic-shape
    # behaviour changed and the baseline must be regenerated.
    base_scen = {p.get("scenario"): p
                 for p in base.get("scenario_points", [])}
    fresh_scen = {p.get("scenario"): p
                  for p in fresh.get("scenario_points", [])}
    for name, bp in sorted(base_scen.items()):
        fp = fresh_scen.get(name)
        label = f"scenario {name}"
        if fp is None:
            rep.fail(f"service point {label} missing from fresh run")
            continue
        b, f = bp["commits_per_kcycle"], fp["commits_per_kcycle"]
        delta = (f - b) / b if b else 0.0
        verdict = "ok" if abs(delta) <= tol else (
            "REGRESSED" if delta < 0 else "CHANGED (update baseline)")
        rep.line(f"  {label}: {b:.4f} -> {f:.4f} commits/kcycle "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"service throughput at {label} changed "
                     f"{delta:+.1%} (tolerance +/-{tol:.0%})")
        for field in ("injected", "completed", "dropped"):
            bv, fv = bp.get(field), fp.get(field)
            if bv is not None and fv is not None and bv != fv:
                rep.fail(f"{label} {field} changed {bv} -> {fv} "
                         f"(deterministic arrival ledger)")
    for name in sorted(set(fresh_scen) - set(base_scen)):
        rep.line(f"  note: new scenario point {name} has no baseline")
    bg, fg = base.get("throughput_gain"), fresh.get("throughput_gain")
    if bg is not None and fg is not None and bg > 0:
        delta = (fg - bg) / bg
        verdict = "ok" if abs(delta) <= tol else (
            "REGRESSED" if delta < 0 else "CHANGED (update baseline)")
        rep.line(f"  scale-out gain: {bg:.4f}x -> {fg:.4f}x "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"scale-out gain changed {delta:+.1%} "
                     f"(tolerance +/-{tol:.0%})")

    # Host wall time (one-sided, wide band), per scale-up point.
    rep.line(f"== service_scalability (host time, tolerance "
             f"{host_tol:.0%})")
    for key, bp in sorted(base_pts.items()):
        fp = fresh_pts.get(key)
        if fp is not None:
            check_host_ms(f"{key[0]} shards x {key[1]} banks", bp, fp,
                          host_tol, rep)


def check_micro(base, fresh, tol, rep):
    rep.line(f"== micro_structures (host time, tolerance {tol:.0%})")

    def rates(doc):
        out = {}
        for b in doc.get("benchmarks", []):
            rate = b.get("items_per_second")
            if rate:
                out[b["name"]] = rate
        return out

    base_rates, fresh_rates = rates(base), rates(fresh)
    if not base_rates:
        rep.fail("baseline micro_structures has no items_per_second")
        return
    for name, b in sorted(base_rates.items()):
        f = fresh_rates.get(name)
        if f is None:
            rep.fail(f"micro benchmark {name} missing from fresh run")
            continue
        delta = (f - b) / b
        verdict = "ok" if f >= b * (1 - tol) else "REGRESSED"
        rep.line(f"  {name}: {b / 1e6:.1f} -> {f / 1e6:.1f} Mitems/s "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"micro benchmark {name} regressed {delta:+.1%} "
                     f"(tolerance -{tol:.0%})")
    for name in sorted(set(fresh_rates) - set(base_rates)):
        rep.line(f"  note: new benchmark {name} has no baseline")


def check_trace(base, fresh, tol, host_tol, rep):
    """Gate the streaming trace format bench (docs/streaming.md).

    The format itself is deterministic — bytes_per_record and the
    service run's record count cannot move without a format or
    instrumentation change, so they sit in the two-sided simulated
    band. The codec rates are host time (wide one-sided band), and
    cycles_identical is an absolute invariant: a stream writer that
    perturbs the simulation is a correctness bug, not a slowdown.
    """
    rep.line(f"== trace_stream (simulated, tolerance {tol:.0%})")
    if fresh.get("cycles_identical") is not True:
        rep.fail("trace_stream: streaming perturbed simulated cycles")
    for label, getter in [
        ("bytes/record", lambda d: d.get("bytes_per_record")),
        ("service records",
         lambda d: (d.get("service") or {}).get("records")),
        ("service bytes",
         lambda d: (d.get("service") or {}).get("bytes_written")),
    ]:
        b, f = getter(base), getter(fresh)
        if not b or f is None:
            rep.line(f"  note: {label} missing from baseline or fresh")
            continue
        delta = (f - b) / b
        verdict = "ok" if abs(delta) <= tol else (
            "REGRESSED" if delta < 0 else "CHANGED (update baseline)")
        rep.line(f"  {label}: {b:.1f} -> {f:.1f} ({delta:+.1%}) "
                 f"{verdict}")
        if verdict != "ok":
            rep.fail(f"trace_stream {label} changed {delta:+.1%} "
                     f"(tolerance +/-{tol:.0%})")
    rep.line(f"== trace_stream (host time, tolerance {host_tol:.0%})")
    for label in ("write_recs_per_sec", "read_recs_per_sec"):
        b, f = base.get(label), fresh.get(label)
        if not b or f is None:
            rep.line(f"  note: {label} missing from baseline or fresh")
            continue
        delta = (f - b) / b
        verdict = "ok" if f >= b * (1 - host_tol) else "REGRESSED"
        rep.line(f"  {label}: {b / 1e6:.2f} -> {f / 1e6:.2f} Mrecs/s "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"trace_stream {label} regressed {delta:+.1%} "
                     f"(tolerance -{host_tol:.0%})")
    # Flush stalls are informational (host-side, sub-ms in CI sizing);
    # report the trend without gating it.
    bs = (base.get("service") or {}).get("flush_wall_ms")
    fs = (fresh.get("service") or {}).get("flush_wall_ms")
    if bs is not None and fs is not None:
        rep.line(f"  note: flush stalls {bs:.2f} -> {fs:.2f} ms "
                 f"(informational)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines",
                    help="directory with committed BENCH_*.json")
    ap.add_argument("--fresh-dir", default="build",
                    help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--sim-tolerance", type=float, default=0.02,
                    help="relative band for simulated metrics")
    ap.add_argument("--host-tolerance", type=float, default=0.60,
                    help="relative band for host-time metrics (wide: "
                         "CI runners differ; the scans this guards "
                         "against regress by 10x, not 10%%)")
    ap.add_argument("--skip-micro", action="store_true",
                    help="skip the host-time comparison (no benchmark "
                         "library on this host)")
    ap.add_argument("--report", default=None,
                    help="also write the comparison table to this file")
    args = ap.parse_args()

    rep = Reporter(args.report)
    base_dir, fresh_dir = Path(args.baseline_dir), Path(args.fresh_dir)

    svc_base = load(base_dir / SERVICE, rep)
    svc_fresh = load(fresh_dir / SERVICE, rep)
    if svc_base and svc_fresh:
        check_service(svc_base, svc_fresh, args.sim_tolerance,
                      args.host_tolerance, rep)

    trace_base = load(base_dir / TRACE, rep)
    trace_fresh = load(fresh_dir / TRACE, rep)
    if trace_base and trace_fresh:
        check_trace(trace_base, trace_fresh, args.sim_tolerance,
                    args.host_tolerance, rep)

    if args.skip_micro:
        rep.line("== micro_structures skipped (--skip-micro)")
    else:
        micro_base = load(base_dir / MICRO, rep)
        micro_fresh = load(fresh_dir / MICRO, rep)
        if micro_base and micro_fresh:
            check_micro(micro_base, micro_fresh, args.host_tolerance,
                        rep)

    if rep.failures:
        rep.line(f"\n{rep.failures} regression(s); to accept a "
                 "deliberate change, regenerate bench/baselines "
                 "(docs/repro-guide.md)")
    else:
        rep.line("\nall benches within tolerance")
    rep.close()
    return 1 if rep.failures else 0


if __name__ == "__main__":
    sys.exit(main())
