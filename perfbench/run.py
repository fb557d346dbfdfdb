#!/usr/bin/env python3
"""SQuery-latency benchmark of the four GPNM methods (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --master 'local[4]' --shuffle-partitions 4 \
        --broadcast-threshold -1 --driver-memory 3g \
        --workload pattern-email --seed 1 --seconds 10 --trace 0

The first run builds the benchmark with sbt (perfbench/build.sbt compiles the
repository's main sources together with perfbench/src) and records a hash of
every source it compiled; later runs reuse the build while that hash holds.
The benchmark then runs in a fresh JVM. Its standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = [ROOT / "src" / "main" / "scala", HERE / "src", HERE / "build.sbt",
           HERE / "project" / "build.properties"]
TARGET = HERE / "target"
CLASSPATH = TARGET / "classpath.txt"
STAMP = TARGET / "perfbench.stamp"
SCRATCH = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    h = hashlib.sha256()
    for src in SOURCES:
        if not src.exists():
            fail(f"missing {src.relative_to(ROOT)}: run from a full checkout of the repository")
        files = sorted(p for p in src.rglob("*") if p.is_file()) if src.is_dir() else [src]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile with sbt unless the recorded hash matches the sources."""
    digest = source_hash()
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == digest:
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") +
                       " -Dsbt.offline=true -Dsbt.server.autostart=false").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    # sbt's log goes to stderr so standard output carries only the result.
    done = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0 or not CLASSPATH.exists():
        fail(f"build failed (sbt exit {done.returncode})")
    STAMP.write_text(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--master", required=True)
    ap.add_argument("--shuffle-partitions", type=int, required=True)
    ap.add_argument("--broadcast-threshold", type=int, required=True)
    ap.add_argument("--driver-memory", required=True)
    a = ap.parse_args()

    build()
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = ["java", f"-Xmx{a.driver_memory}", f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={tmp}", "-Dspark.driver.host=127.0.0.1",
            "-cp", CLASSPATH.read_text().strip(), "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--master", a.master,
            "--shuffle-partitions", str(a.shuffle_partitions),
            "--broadcast-threshold", str(a.broadcast_threshold)]
    proc = subprocess.Popen(java, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        code = proc.wait()
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail(f"benchmark printed no result (exit {code})")
    sys.exit(code)


if __name__ == "__main__":
    main()
