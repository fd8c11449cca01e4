#!/usr/bin/env python3
"""Build the repository benchmark from this checkout and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. dune builds perfbench/main.exe from the
checkout's own sources into .bench_build (the first build takes a few
minutes), then the benchmark replaces this process. The last line of
standard output is the JSON result. When the checkout cannot be built,
the script exits non-zero without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a repository, otherwise a
    digest of the sources the benchmark is built from."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if f.endswith((".ml", ".mli", "dune", "dune-project")))
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    for needed in ("dune-project", "lib", "perfbench/dune", "perfbench/main.ml"):
        if not os.path.exists(needed):
            fail(needed + " not found: run from the root of a yewpar checkout")
    dune = shutil.which("dune")
    command = [dune] if dune else ["opam", "exec", "--", "dune"]
    try:
        done = subprocess.run(command + ["build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)
    return os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    exe = build()
    nproc = len(os.sched_getaffinity(0))
    argv = [exe] + sys.argv[1:] + ["--nproc", str(nproc), "--commit", source_id()]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, argv)


if __name__ == "__main__":
    main()
