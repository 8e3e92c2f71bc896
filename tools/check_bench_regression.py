#!/usr/bin/env python3
"""Compare fresh bench output against the committed baselines.

Every bench/baselines/BENCH_*.json is compared with the file of the
same name in the fresh directory. A document is in the metrics schema
of src/api/metrics.hpp:

  {"bench": NAME, "config": {KEY: VALUE},
   "points": {LABEL: {"metrics": {NAME: {"value", "unit", "better",
                                          "gate"}}}}}

or is google-benchmark output, read as one point per benchmark with
its items_per_second as a host metric. Each baseline metric is gated
by its class:

  sim    simulated, deterministic: within 2% either way, so a zero
         must stay zero. An unacknowledged improvement fails too,
         since a stale baseline would let a later regression pass.
  exact  simulated ledger count: equal.
  host   host time, which varies with the runner: at most 1.6x worse
         than the baseline (by `better`); any gain passes.

Besides, a sizing (config) mismatch fails, a point or metric missing
from the fresh document fails, a point with zero htm.commits fails as
vacuous, and a metric that is zero at every point of both documents
is reported as gating nothing.

Exit status: 0 when everything passes, 1 otherwise. --report also
writes the comparison to a file (CI uploads it as an artifact).
"""

import argparse
import json
import sys
from pathlib import Path

SIM_BAND = 0.02
HOST_BAND = 1.6


class Reporter:
    def __init__(self):
        self.lines = []
        self.failures = 0

    def line(self, text):
        print(text)
        self.lines.append(text)

    def fail(self, text):
        self.failures += 1
        self.line(f"FAIL: {text}")


def normalize(doc):
    """The metrics-schema view of @p doc (google-benchmark adapted)."""
    if "benchmarks" not in doc:
        return doc
    points = {}
    for b in doc["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration" and \
                "items_per_second" in b:
            points[b["name"]] = {"metrics": {"items_per_second": {
                "value": b["items_per_second"], "unit": "1/s",
                "better": "higher", "gate": "host"}}}
    return {"config": {}, "points": points}


def within(m, fresh):
    """Whether @p fresh passes baseline metric @p m's gate."""
    b, gate = m["value"], m["gate"]
    if gate == "exact":
        return fresh == b
    if gate == "sim":
        return abs(fresh - b) <= SIM_BAND * abs(b)
    if gate == "host":
        if m["better"] == "lower":
            return fresh <= b * HOST_BAND
        return fresh * HOST_BAND >= b
    return False


def compare(name, base, fresh, rep):
    """Gate document @p fresh against baseline @p base."""
    base, fresh = normalize(base), normalize(fresh)
    rep.line(f"== {name}")
    if base.get("config") != fresh.get("config"):
        rep.fail(f"{name}: sizing changed, baseline config "
                 f"{base.get('config')} vs fresh {fresh.get('config')}")
    fresh_points = fresh.get("points", {})
    nonzero = set()
    for doc in (base, fresh):
        for point in doc.get("points", {}).values():
            nonzero.update(k for k, m in point["metrics"].items()
                           if m["value"] != 0)
    for label, point in base.get("points", {}).items():
        if label not in fresh_points:
            rep.fail(f"{name}: point '{label}' missing from fresh run")
            continue
        got = fresh_points[label]["metrics"]
        commits = got.get("htm.commits")
        if commits is not None and commits["value"] == 0:
            rep.fail(f"{name}: point '{label}' is vacuous (0 commits)")
        for metric, m in point["metrics"].items():
            if metric not in got:
                rep.fail(f"{name} {label}: {metric} missing from fresh "
                         "run")
                continue
            f = got[metric]["value"]
            ok = within(m, f) and got[metric].get("gate") == m["gate"]
            rep.line(f"  {label} {metric}: {m['value']:.6g} -> {f:.6g} "
                     f"{m['unit']} [{m['gate']}] "
                     f"{'ok' if ok else 'CHANGED'}")
            if not ok:
                rep.fail(f"{name} {label}: {metric} {m['value']:.6g} -> "
                         f"{f:.6g} outside its {m['gate']} gate")
        for metric in sorted(set(got) - set(point["metrics"])):
            rep.line(f"  note: {label} {metric} has no baseline")
    for label in sorted(set(fresh_points) - set(base.get("points", {}))):
        rep.line(f"  note: point '{label}' has no baseline")
    gated = {k for p in base.get("points", {}).values()
             for k in p["metrics"]}
    for metric in sorted(gated - nonzero):
        rep.line(f"  note: {metric} gates nothing (zero at every point "
                 "of both documents)")


def load(path, rep):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        rep.fail(f"missing {path}")
    except json.JSONDecodeError as e:
        rep.fail(f"malformed {path}: {e}")
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default="bench/baselines",
                    help="directory with committed BENCH_*.json")
    ap.add_argument("--fresh-dir", default="build",
                    help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--report", default=None,
                    help="also write the comparison to this file")
    args = ap.parse_args(argv)

    rep = Reporter()
    baselines = sorted(Path(args.baseline_dir).glob("BENCH_*.json"))
    if not baselines:
        rep.fail(f"no BENCH_*.json in {args.baseline_dir}")
    for path in baselines:
        base = load(path, rep)
        fresh = load(Path(args.fresh_dir) / path.name, rep)
        if base is not None and fresh is not None:
            compare(path.name, base, fresh, rep)

    if rep.failures:
        rep.line(f"\n{rep.failures} failure(s); to accept a deliberate "
                 "change, regenerate bench/baselines "
                 "(docs/repro-guide.md)")
    else:
        rep.line("\nall benches within their gates")
    if args.report:
        Path(args.report).write_text("\n".join(rep.lines) + "\n")
    return 1 if rep.failures else 0


if __name__ == "__main__":
    sys.exit(main())
