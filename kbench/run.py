#!/usr/bin/env python3
"""Run one workload of the Kaskade pipeline benchmark.

Usage, from the root of a checkout:

    python3 kbench/run.py --workload prov-views --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark from source with sbt (offline) on the
first call, then runs one JVM: one closed-loop client on a local Spark
master. Progress goes to stderr; the last line of stdout is the result JSON.
With ``--trace 1`` the spans are written to ``.kbench/spans-<workload>-<seed>.jsonl``.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".kbench")
CLASSPATH = os.path.join(WORK, "classpath.txt")
WORKLOADS = ("prov-views", "soc-views", "plan-mix")
# A run past this is killed: every run must end within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def sources_digest():
    """Hash of everything the build reads, so a changed tree rebuilds."""
    h = hashlib.sha256()
    inputs = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for d in ("project", "src/main", "jobs", "kbench/project", "kbench/src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            inputs += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in inputs:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    opts = ["-Dsbt.override.build.repos=true", "-Dsbt.offline=true", "-Xmx2g", "-Xss64m"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        opts.append(f"-Dsbt.repository.config={repos}")
    env["SBT_OPTS"] = " ".join(opts)
    env["COURSIER_MODE"] = "offline"
    return env


def build():
    """Compile the program and the benchmark; return the runtime classpath."""
    digest = sources_digest()
    if os.path.isfile(CLASSPATH):
        with open(CLASSPATH) as f:
            cached_digest, _, cp = f.read().partition("\n")
        if cached_digest == digest and cp.strip():
            return cp.strip()
    log("building with sbt (offline)")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export kbench/Runtime/fullClasspath"],
        cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE, stderr=sys.stderr,
        text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"sbt build failed with code {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit("sbt printed no classpath")
    cp = lines[-1].strip()
    os.makedirs(WORK, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(digest + "\n" + cp)
    return cp


def driver_heap():
    """A quarter of physical memory, between 1 and 4 GiB."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
        gib = kb / 1024 / 1024 / 4
    except (OSError, StopIteration, ValueError):
        gib = 2
    return f"{max(1, min(4, int(gib)))}g"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: smaller graphs and fewer repetitions, for the smoke test")
    args = p.parse_args()

    for needed in ("build.sbt", "src/main/scala/repro"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"no program to benchmark: {needed} is missing under {ROOT}")

    cp = build()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ)
    # The program's own session reads these; shuffle partitions stay at the
    # program's default so that a change to it shows.
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    env["SPARK_MASTER"] = f"local[{min(4, os.cpu_count() or 1)}]"
    env["SPARK_LOCAL_DIRS"] = run_dir
    heap = driver_heap()
    # Two GC workers, one concurrent marker and two JIT compilers, so that
    # the JVM's helper threads do not crowd Spark's task threads off the
    # cores.
    cmd = ["java", f"-Xms{heap}", f"-Xmx{heap}", "-Xss64m",
           "-XX:ParallelGCThreads=2", "-XX:ConcGCThreads=1", "-XX:CICompilerCount=2",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Djava.io.tmpdir={run_dir}", "-cp", cp, "kbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")]

    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        t1 = time.monotonic()
        shutil.rmtree(run_dir, ignore_errors=True)
    log(f"{args.workload} run took {t1 - t0:.1f} s, exit {proc.returncode}; "
        f"cleanup {time.monotonic() - t1:.1f} s")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited with code {proc.returncode}")

    lines = [l for l in out.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("benchmark printed no result line")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]) or not m.get("unit"):
            raise SystemExit(f"metric {name} has no finite value with a unit: {m}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
