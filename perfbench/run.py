#!/usr/bin/env python3
"""Build and run ORCA's end-to-end profiling benchmark.

    python3 perfbench/run.py --workload npb_tool --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --selftest      # unit tests of the statistics code

Run from the root of a source checkout. The first call configures and builds
perfbench/ (and the ORCA libraries it compiles from src/) into
.bench_build/perfbench; later calls only rebuild what changed. The last line
of stdout is the result object; the exit code is 0 only when the build, the
run and every correctness check succeeded. See perfbench/README.md.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally. Build chatter goes to
    stderr so that stdout ends with the result line."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return out


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, [(m["name"], m["unit"]) for m in spec[key]]


def fixed_address_layout():
    """Run the benchmark without address-space randomization, so every run
    gets the same memory layout (and layout-driven cache and allocator
    effects stop varying between runs). Best effort: ignored where the
    personality call is not allowed."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def remove_segments(pid):
    """Unlink shm segments a killed run may have left (its prefix embeds
    the benchmark's pid)."""
    for path in glob.glob("/dev/shm/orcapb%ds*" % pid):
        try:
            os.unlink(path)
        except OSError:
            pass


def run_workload(binary, workload, seed, seconds, trace, src_id):
    out_dir = os.path.join(build_dir(), "..", "runs",
                           "%s-trace%d" % (workload, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [os.path.join(binary, "orca_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--out", os.path.normpath(out_dir), "--source-id",
           src_id]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=fixed_address_layout)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the monitor children too
        proc.communicate()
        remove_segments(proc.pid)
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return None, 1
    remove_segments(proc.pid)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return None, 1
    _, expected = declared_metrics(trace)
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: %s metrics do not match BENCHMARK.json: missing %s, "
              "extra %s" % (workload, sorted(set(expected) - set(got)),
                            sorted(set(got) - set(expected))),
              file=sys.stderr)
        return None, 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: run from a source checkout (no src/ next to "
              "perfbench/)", file=sys.stderr)
        return 1
    spec, _ = declared_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run(
            [os.path.join(binary, "perfbench_stats_test")]).returncode

    seconds = args.seconds if args.seconds else spec["run_seconds"]
    src_id = source_id()
    if args.workload is not None:
        result, code = run_workload(binary, args.workload, args.seed, seconds,
                                    args.trace, src_id)
        if result is None:
            return 1
        print(json.dumps(result))
        return code

    # Every workload in turn; the summary line prefixes metric names.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        start = time.time()
        result, code = run_workload(binary, name, args.seed, seconds,
                                    args.trace, src_id)
        if result is None:
            return 1
        print(json.dumps(result))
        print("# %s: %.0f s, exit %d" % (name, time.time() - start, code))
        worst = max(worst, code)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
