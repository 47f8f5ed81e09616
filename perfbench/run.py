#!/usr/bin/env python3
"""The portatune benchmark.

    python3 perfbench/run.py --workload <transfer|collect|service>
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the library, the real
daemon (portatune_cli) and the measuring program (perfbench_measure) from
source into $CARGO_TARGET_DIR (default .bench_build), generates the
workload's inputs from --seed, runs the measurement and prints a table of
every metric (value, unit, sample count), the host context, and as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
scaled to the reference host speed by the run's speed probe; with
--trace 1 the per-layer metrics, as measured. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(BENCH_DIR, "workloads.json")
MEASURE_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(root, build_dir):
    """Configure (once) and build the benchmark's targets; returns the
    build directory. Build output goes to a log file, not stdout."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench_build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(
                ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                # Configure again next time instead of building a
                # half-configured tree.
                os.remove(os.path.join(build_dir, "CMakeCache.txt"))
                fail("cmake configure failed; see " + log_path)
        rc = subprocess.call(
            ["cmake", "--build", build_dir, "-j", jobs, "--target",
             "perfbench_measure", "portatune_cli", "perfbench_nofsync"],
            stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        fail("build failed; see " + log_path)


def run_process_group(cmd):
    """Run `cmd` in a process group of its own (the measuring program and
    the daemon it spawns), its stdout sent to our stderr, with fsync()
    preloaded as a no-op (cpp/no_fsync.cpp). Returns the exit code, or None
    on timeout. Whatever the outcome, every process of the group is killed
    and gone before this returns."""
    env = dict(os.environ, LD_PRELOAD=os.path.join(
        os.path.dirname(cmd[0]), "libperfbench_nofsync.so"))
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True,
                            env=env)

    def interrupted(signum, frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        rc = proc.wait(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = None
    # Kill what is left of the group (the measuring program on timeout,
    # a daemon it left behind when it crashed) and wait until it is gone.
    for _ in range(500):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()  # reaps the measuring program once it has died
        time.sleep(0.01)
    proc.wait()
    return rc


# -- Input generation (the only place the seed is used) -------------------

def table4_cells(w):
    """The populated Table IV cells in the table's order: no diagonal, and
    no X-Gene target for the problems the paper did not measure there."""
    return [[p, s, t]
            for p in w["problems"] for t in w["targets"] for s in w["sources"]
            if s != t and not (t == "X-Gene" and p in w["no_xgene"])]


def transfer_input(cfg, rng, tiny):
    w = cfg["transfer"]
    cells = table4_cells(w)
    if rng is not None:
        rng.shuffle(cells)
    if tiny:
        cells = cells[:w["tiny_cells"]]
    return {
        "cells": cells,
        "nmax": w["nmax"], "pool_size": w["pool_size"],
        "delta_percent": w["delta_percent"], "crn_seed": w["crn_seed"],
        "setup_seconds": 0 if tiny else cfg["setup_seconds"],
        "expected": os.path.join(BENCH_DIR, w["expected"]),
        "tail_percentile": w["tail_percentile"],
    }


def collect_input(cfg, rng, tiny):
    w = cfg["collect"]
    scale = w["tiny_scale"] if tiny else 1
    return {
        "machine": w["machine"],
        "workers": min(w["max_workers"], os.cpu_count() or 1),
        "setup_seconds": 0 if tiny else cfg["setup_seconds"],
        "problems": [{"name": p, "nmax": max(1, w["nmax"][p] // scale),
                      "seeds": [rng.randrange(1, 2**31)
                                for _ in range(w["seed_sets"])]}
                     for p in w["problems"]],
        "tail_percentile": w["tail_percentile"],
    }


def service_input(cfg, rng, tiny):
    w = cfg["service"]
    clients = min(w["max_clients"], os.cpu_count() or 1)

    def spec(problem, machine, max_evals, steps):
        return {"problem": problem, "machine": machine,
                "max_evals": max_evals, "steps": steps,
                "step_n": w["step_n"], "suggest_every": w["suggest_every"],
                "seed": rng.randrange(1, 2**31)}

    seed_store = [spec(p, m, w["seed_evals"], w["seed_evals"])
                  for p in w["problems"] for m in w["seeded_machines"]]
    # Every client script holds the same balanced mix of (problem,
    # machine) sessions; the seed picks their order and search seeds.
    mix = [(p, m) for p in w["problems"]
           for m, n in w["session_mix"].items() for _ in range(n)]
    scripts = []
    for _ in range(clients):
        order = mix[:2] if tiny else rng.sample(mix, len(mix))
        scripts.append([spec(p, m, w["max_evals"], w["steps"])
                        for p, m in order])
    return {"clients": clients, "seed_store": seed_store,
            "scripts": scripts,
            "setup_seconds": 0 if tiny else cfg["setup_seconds"],
            "tail_percentile": w["tail_percentile"]}


GENERATORS = {"transfer": transfer_input, "collect": collect_input,
              "service": service_input}


# -- Host context ----------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fs_type(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def source_revision(root):
    """The git commit when the checkout is a repository, otherwise a
    digest of the library and daemon sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "examples"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


# -- Output ----------------------------------------------------------------

def fmt(v):
    return "%.6g" % v if isinstance(v, (int, float)) else str(v)


# Units that scale with the host's speed: times, and rates per second.
TIME_UNITS, RATE_UNITS = ("ms", "s"), ("1/s",)


def speed_scale(result, reference_ms):
    """The factor that brings the timed run's times to the speed of a host
    on which the speed probe takes `reference_ms`: the probe's reference
    time over its median time in this run (see README "Steadiness")."""
    return reference_ms / result["context"]["speed_probe_ms"]


def scaled(value, unit, scale):
    if unit in TIME_UNITS:
        return value * scale
    if unit in RATE_UNITS:
        return value / scale
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the inputs (smoke test)")
    ap.add_argument("--capture-expected", action="store_true",
                    help="rewrite the transfer workload's expected output "
                         "with the library's experiment engine")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("run from the root of a portatune checkout (src/ and "
             "BENCHMARK.json not found in %s)" % root)
    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    cfg = load_json(CONFIG)
    seed = cfg["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    loadavg = os.getloadavg()[0]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    build(root, build_dir)

    work = os.path.abspath(os.path.join(".bench_work", args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    measure = os.path.join(build_dir, "perfbench_measure")
    input_path = os.path.join(work, "input.json")
    if args.capture_expected:
        with open(input_path, "w") as f:
            json.dump(transfer_input(cfg, None, False), f)
        expected = os.path.join(BENCH_DIR, cfg["transfer"]["expected"])
        rc = subprocess.call([measure, "capture-transfer", "--input",
                              input_path, "--out", expected])
        shutil.rmtree(work, ignore_errors=True)
        print("wrote " + expected if rc == 0 else "capture failed")
        return rc
    inputs = GENERATORS[args.workload](cfg, random.Random(seed), args.tiny)
    with open(input_path, "w") as f:
        json.dump(inputs, f)
    out_path = os.path.join(work, "result.json")
    cmd = [measure, args.workload,
           "--input", input_path, "--out", out_path,
           "--seconds", repr(float(seconds)), "--trace", str(args.trace),
           "--work", work, "--cli", os.path.join(build_dir, "portatune_cli")]
    rc = run_process_group(cmd)
    if rc is None:
        fail("the measurement did not finish within %d s" % MEASURE_TIMEOUT_S)
    if rc != 0 or not os.path.exists(out_path):
        fail("perfbench_measure exited with code %d" % rc)
    result = load_json(out_path)
    shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    attempted, failed = int(result["attempted"]), int(result["failed"])
    context = {
        "workload": args.workload, "seed": seed, "seconds": seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "compiler": result["context"].get("compiler"),
        "build_type": result["context"].get("build_type"),
        "commit": source_revision(root), "loadavg_1m_at_start": loadavg,
        "data_dir_fs": fs_type(work),
        "data_dir_on_tmpfs": fs_type(work) == "tmpfs",
    }
    context.update({k: v for k, v in result["context"].items()
                    if k not in context})

    # The timed run's metrics are scaled to the reference host speed; the
    # traced run's per-layer metrics are printed as measured.
    scale = 1.0 if args.trace else speed_scale(
        result, cfg["speed_probe_reference_ms"])
    context["speed_scale"] = scale
    print("context: " + json.dumps(context, sort_keys=True))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    out_metrics = {}
    print("%-36s %14s %-6s %8s %14s  %s" % ("metric", "value", "unit",
                                             "samples", "as measured",
                                             "note"))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                fail("perfbench_measure did not report " + m["name"])
            # A layer that does no work in this workload reports zero.
            got = {"value": 0.0, "unit": m["unit"], "samples": 0,
                   "note": "layer idle in this workload"}
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        value = scaled(got["value"], m["unit"], scale)
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-36s %14s %-6s %8d %14s  %s" % (
            m["name"], fmt(value), m["unit"], got["samples"],
            fmt(got["value"]), got.get("note", "")))
    share = failed / attempted if attempted else 1.0
    print("%-36s %14s %-6s %8d %14s  %s" % (
        "failed_share", fmt(share), "ratio", attempted, fmt(share),
        "failed / attempted"))
    for line in result.get("failures", []):
        print("FAILED: " + line)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
