#!/usr/bin/env python3
"""Build and run the partial-compilation benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the first build compiles the whole
library), then runs it with a clean environment: PQC_* knobs are dropped so
no pulse cache, deadline, fault plan or trace sink leaks in.  The last line
of standard output is the JSON result.  See perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ("lib", "bin", "dune-project")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the compiler's sources: provenance outside a git clone."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(env):
    # The ceiling keeps git from adopting a repository above a plain checkout.
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    if not all(os.path.exists(os.path.join(ROOT, s)) for s in SOURCES):
        die(f"{ROOT} is not a partialqc source tree "
            f"(needs {', '.join(SOURCES)})")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PQC_")}
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        die("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, *sys.argv[1:],
           "--commit", git_commit(env),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
