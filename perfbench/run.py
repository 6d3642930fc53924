#!/usr/bin/env python3
"""Build the latr benchmark program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Every argument is passed to the program (see perfbench/main.go). The Go
build cache, temporary files and the program binary live under the build
directory inside the checkout: $CARGO_TARGET_DIR when set, otherwise
.bench_build. The build never reaches the network (GOPROXY=off,
GOTOOLCHAIN=local). A failed build exits non-zero without printing a
result line.
"""

import hashlib
import os
import subprocess
import sys


def source_stamp(root):
    """Names the measured source: the git commit when the checkout is a
    repository, otherwise a digest of every Go source and module file."""
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(build, "latr-perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "--root", root, "--build-dir", build,
            "--commit", source_stamp(root)] + sys.argv[1:]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
