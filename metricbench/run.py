#!/usr/bin/env python3
"""Benchmark runner: builds the harness and the program from source, then runs
one workload in a fresh JVM.

    python3 metricbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The last line of standard output is the
JSON result; the full record and, for traced runs, the spans are written to
metricbench/out/. Build output stays in metricbench/target/.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("adhoc_week", "precompute_day", "ingest_day")
HEAP = "4g"


def fail(msg):
    print(f"metricbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME")
    return home


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group and kills the whole group if it
    outlives `timeout`, so nothing it started survives."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def build(home):
    """Compiles with sbt when the sources changed; returns the classpath."""
    digest = hashlib.sha256()
    for f in sources():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    stamp_file = os.path.join(TARGET, "build.stamp")
    cp_file = os.path.join(TARGET, "classpath.txt")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    env = dict(os.environ, SPARK_HOME=home, COURSIER_MODE=os.environ.get("COURSIER_MODE", "offline"))
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        timeout=850, cwd=BENCH, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    text = out.decode(errors="replace")
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(text)
        fail("build failed")
    os.makedirs(TARGET, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1].strip())
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return lines[-1].strip()


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"program sources not found under {ROOT}; run from the root of a checkout")
    home = spark_home()
    cp = build(home)

    scratch = os.path.join(TARGET, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    argfile = os.path.join(scratch, "java.args")
    with open(argfile, "w") as fh:
        fh.write("-cp\n" + cp + "\n")
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
           f"-Djava.io.tmpdir={scratch}", f"-Dmetricbench.gitSha={git_sha()}",
           "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
           "--add-opens=java.base/java.nio=ALL-UNNAMED",
           "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
           "--add-opens=java.base/java.util=ALL-UNNAMED",
           f"@{argfile}", "metricbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", OUT]
    start = time.monotonic()
    try:
        env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(scratch, "spark-local"))
        code, _ = run_group(cmd, timeout=175, cwd=scratch, env=env, stdin=subprocess.DEVNULL)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"metricbench: {a.workload} ran {time.monotonic() - start:.1f} s, exit {code}", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
