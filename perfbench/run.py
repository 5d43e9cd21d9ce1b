#!/usr/bin/env python3
"""Build and run vignat's benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the benchmark and the vignat daemon from source into
.bench_build/ (or $CARGO_TARGET_DIR, taken relative to the root), keeps
the Go build cache and config there too, and runs the benchmark. The
benchmark's last line of standard output is the result; a failed build
or run exits non-zero without one.
"""
import os
import signal
import subprocess
import sys

RUN_TIMEOUT = 170  # seconds a run may take once built


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(out, "bin")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    bench = os.path.join(bindir, "perfbench")
    vignat = os.path.join(bindir, "vignat")
    for target, pkg in ((bench, "."), (vignat, "vignat/cmd/vignat")):
        build = subprocess.run(["go", "build", "-o", target, pkg], cwd=here, env=env,
                               stdout=sys.stderr)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    sys.stdout.flush()
    proc = subprocess.Popen([bench, *sys.argv[1:], "--vignat", vignat], cwd=root, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # The benchmark stops what it starts; this only cleans up after
        # a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
