#!/usr/bin/env python3
"""Build and run the ZoFS end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload data-rw --seed 1 --seconds 10 --trace 0

The Go module in this directory is built from source into the build
directory (CARGO_TARGET_DIR if set, else .bench_build), with every Go cache
and temporary directory kept inside it, and then run with the arguments
given. The exit code is the benchmark's; a failed build exits with 1 and
prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
