#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/main.exe with dune from the sources in the current
directory (into ./_build, with the shared dune cache off so nothing is
written outside the tree), then runs it with the same arguments plus a
--commit identity: the git commit when the tree is a git checkout, else a
hash of the sources. The benchmark's last stdout line is its JSON result;
the exit status is the benchmark's, or non-zero when the build fails.

While the benchmark runs on a single thread, it is moved to the next
allowed CPU every ROTATE_S seconds. On a shared VM one virtual CPU is often
much slower than another for minutes at a time, and a single-domain program
stays on the CPU it started on, so without rotation a whole run reads fast
or slow by where it landed. With rotation, every unit of work is measured
on each CPU over the repetitions, and the benchmark keeps its fastest
reading. Once the benchmark has more threads (a domain pool), every thread
may use every allowed CPU again: threads inherit the pin of the thread that
created them, and a pinned domain of several stalls the others at each
stop-the-world collection.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
ROTATE_S = 0.2


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    opam_root = os.path.expanduser("~/.opam")
    if os.path.isdir(opam_root):
        for switch in sorted(os.listdir(opam_root)):
            candidates.append(os.path.join(opam_root, switch, "bin", "dune"))
    for path in candidates:
        if os.access(path, os.X_OK):
            return path
    return None


def source_identity():
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            if path.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run(cmd, timeout, rotate=False, **kw):
    cpus = sorted(os.sched_getaffinity(0)) if rotate else []
    deadline = time.monotonic() + timeout
    proc = subprocess.Popen(cmd, **kw)
    turn = 0
    while True:
        left = deadline - time.monotonic()
        try:
            return proc.wait(timeout=min(left, ROTATE_S) if len(cpus) > 1 else left)
        except subprocess.TimeoutExpired:
            pass
        if time.monotonic() >= deadline:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
            return 124
        turn += 1
        try:
            threads = [int(t) for t in os.listdir(f"/proc/{proc.pid}/task")]
            if len(threads) == 1:
                os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
            else:
                for tid in threads:
                    os.sched_setaffinity(tid, set(cpus))
                # later threads inherit the released mask; stop waking up,
                # so this process takes no CPU from the benchmark's domains
                cpus = []
        except OSError:
            pass  # the benchmark, or one of its threads, has just exited


def main():
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 3
    env = dict(os.environ, DUNE_CACHE="disabled")
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    status = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if status != 0 or not os.path.isfile(EXE):
        print("run.py: build failed", file=sys.stderr)
        return status or 3
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:] + ["--commit", source_identity()], RUN_TIMEOUT_S,
               rotate=True)


if __name__ == "__main__":
    sys.exit(main())
