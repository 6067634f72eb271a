#!/usr/bin/env python3
"""Build and run the padfa benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload compile|execute|serve \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the padfa library from
src/ plus the perfbench program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is perfbench's JSON result. Other flags (--forge, --work-dir)
are passed through to perfbench.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: no padfa sources next to perfbench/ "
                 "(run from a repository checkout)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    # Relative, so the daemon's socket path stays short.
    work_dir = os.path.relpath(os.path.join(root, "perfbench-work"))
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", work_dir]
    sys.stdout.flush()
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
