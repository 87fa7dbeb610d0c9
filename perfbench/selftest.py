#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A reduced-size pass over every workload in BENCHMARK.json, with
   --trace 0 and --trace 1: each run must exit 0 and print on its result
   line every end-to-end (resp. per-layer) metric by name with its unit
   and a number. A traced run's layer_detail line must give each of its
   metrics a number or null with the reason it is missing.
2. A corrupted reference hash must be counted as a failed op, on the
   workload checked against the sim engine (paper-resnet-rt) and on the
   one checked against its own repetition (fleet-1m).
Exits 0 when every assertion holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--reduced", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    proc.returncode,
                                                    proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    header = json.loads(lines[0])["header"]
    detail = None
    if len(lines) > 2 and "layer_detail" in lines[-2]:
        detail = json.loads(lines[-2])["layer_detail"]
    result = json.loads(lines[-1])
    return header, detail, result


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_result(result, defs, label):
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (label, sorted(result)))
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(d["name"] for d in defs):
        problems.append("%s: metrics %s" % (label, sorted(metrics)))
    for d in defs:
        m = metrics.get(d["name"])
        if m is None:
            problems.append("%s: %s not printed" % (label, d["name"]))
        elif m.get("unit") != d["unit"]:
            problems.append("%s: %s unit %r != %r" % (label, d["name"],
                                                      m.get("unit"), d["unit"]))
        elif not is_number(m.get("value")):
            problems.append("%s: %s value %r" % (label, d["name"],
                                                 m.get("value")))
    return problems


def check_detail(detail, label):
    if not detail:
        return ["%s: no layer_detail line" % label]
    problems = []
    for name, m in detail.items():
        if not m.get("unit"):
            problems.append("%s: detail %s has no unit" % (label, name))
        if m.get("value") is None and not m.get("missing"):
            problems.append("%s: detail %s null without a reason" % (label,
                                                                      name))
        elif m.get("value") is not None and not is_number(m["value"]):
            problems.append("%s: detail %s value %r" % (label, name,
                                                        m["value"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, defs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s trace %d" % (w["name"], trace)
            try:
                header, detail, result = run(w["name"], trace)
            except AssertionError as e:
                problems.append(str(e))
                continue
            for key in ("nproc", "cpu_model", "compiler", "build_type",
                        "git_sha", "compute_threads", "seed"):
                if key not in header:
                    problems.append("%s: header lacks %s" % (label, key))
            problems += check_result(result, defs, label)
            if trace:
                problems += check_detail(detail, label)
            if result.get("failed") != 0:
                problems.append("%s: %s failed ops" % (label,
                                                       result.get("failed")))
            print("ok" if not problems else "..", label, flush=True)
    for workload in ("paper-resnet-rt", "fleet-1m"):
        try:
            _, _, result = run(workload, 0, "--wrong-ref-hash")
        except AssertionError as e:
            problems.append(str(e))
            continue
        if result["failed"] < 1 or result["correct"]:
            problems.append("%s: wrong reference hash not counted as a failed "
                            "op (%s)" % (workload, result))
        else:
            print("ok", workload, "wrong reference hash ->", result["failed"],
                  "failed of", result["attempted"], flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
