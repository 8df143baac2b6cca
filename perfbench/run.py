#!/usr/bin/env python3
"""Builds the xbench benchmark program from this checkout and runs it.

    python3 perfbench/run.py --workload sd-cold --seed 42 --seconds 10 --trace 0

xbench_perf (perfbench/xbench_perf.cc) is compiled together with the xbench
library from ../src into .bench_build/perfbench, in the repository's default
RelWithDebInfo build type. Every argument is passed through to it; its
last line of standard output is the JSON result. Reports and
the traced run's spans land in .bench_build/out. Build output goes to
standard error, so standard output carries only xbench_perf's lines.

Exits non-zero without printing a result when the build or the run fails,
including when the checkout holds no xbench sources.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
# Compiler temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
PROGRAM = os.path.join(BUILD_DIR, "xbench_perf")
# xbench_perf must finish well inside the 180 s a run is allowed; the first
# run in a checkout also builds, within 900 s.
RUN_TIMEOUT_S = 170
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bounded(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it. On timeout the
    whole group (make's compiler jobs too) is killed and reaped, and None is
    returned; otherwise the CompletedProcess."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"perfbench: {cmd[0]} exceeded {timeout} s",
                  file=sys.stderr)
            return None
        return subprocess.CompletedProcess(cmd, proc.returncode, stdout)


def run_step(cmd, timeout):
    """Runs one build step with its output on stderr; True on success."""
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    try:
        proc = run_bounded(cmd, timeout, stdout=sys.stderr, stderr=sys.stderr,
                           env=env)
    except OSError as err:
        print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return proc is not None and proc.returncode == 0


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        CONFIGURE_TIMEOUT_S):
            return False
    return run_step(["cmake", "--build", BUILD_DIR, "-j", jobs],
                    BUILD_TIMEOUT_S)


def is_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = run_bounded([PROGRAM, *argv, "--out-dir", OUT_DIR],
                           RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except OSError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if proc is None:
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not is_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: xbench_perf failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
