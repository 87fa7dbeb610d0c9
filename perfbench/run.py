#!/usr/bin/env python3
"""Build and run the HADFL repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the library and the benchmark binary (Release) into the directory
named by CARGO_TARGET_DIR, default `.bench_build`; later calls only check
that the build is current. The binary's output is passed through: a JSON
header line first, a JSON result line last, and with --trace 1 a
`layer_detail` line just before the result. Each run's lines are also
stored under `.bench_results/`.

Extra flags for the self-test (selftest.py): --reduced runs small inputs,
--wrong-ref-hash corrupts the reference hashes the checks compare against.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no HADFL source tree here (missing %s)" % needed)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "hadfl_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd))
    return os.path.join(bdir, "bin", "hadfl_perfbench")


def git_sha():
    """HEAD's commit from .git, read directly; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library sources and the top-level build file, so a
    result can be tied to the code that produced it without git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files.extend(os.path.join(base, n) for n in sorted(names))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--wrong-ref-hash", action="store_true")
    args = p.parse_args()

    binary = build(build_dir())
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           "--scratch-dir", results]
    if args.reduced:
        cmd.append("--reduced")
    if args.wrong_ref_hash:
        cmd.append("--wrong-ref-hash")

    # Own process group, so a hung run takes its node processes with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark binary timed out after %d s" % BINARY_TIMEOUT_S)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark binary exited with status %d" % proc.returncode)
    header = json.loads(lines[0])["header"]
    record = {"header": header}
    if len(lines) > 2 and "layer_detail" in lines[-2]:
        record["layer_detail"] = json.loads(lines[-2])["layer_detail"]
    record["result"] = json.loads(lines[-1])
    sys.stdout.write(out)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                          "-reduced" if args.reduced else "")
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
