#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload device-quiet --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 10 --trace 0

With --workload all it runs every workload of BENCHMARK.json in turn and
prints each one's end-to-end figures by name with their units.

The Go build cache, the binary, span dumps and scratch files all live in
.bench_build/ under the checkout. The binary is rebuilt whenever the digest
of the sources changes. Every argument is passed on to the benchmark; its
last line of standard output is the JSON result.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STAMP = BINARY + ".digest"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over every Go source and module file of the checkout."""
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(digest):
    if os.path.exists(BINARY) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly -buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    })
    try:
        res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if res.returncode != 0:
        fail("build failed")
    with open(STAMP, "w") as f:
        f.write(digest + "\n")


def run_all(base, rest):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    rc = 0
    for name in names:
        res = subprocess.run(base + ["--workload", name] + rest, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            print("%s: failed (exit %d)" % (name, res.returncode))
            rc = 1
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        print("%s: %d ops, %d failed, seed %s, %s" % (name, result["attempted"], result["failed"], info["seed"], info["cpu"]))
        for metric, m in sorted(info["figures"].items()):
            print("  %-24s %12.6g %s" % (metric, m["value"], m["unit"]))
        if "run_p90_ms" in info:
            print("  %-24s %s" % ("run_p90_ms", info["run_p90_ms"]))
    return rc


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at the checkout root; the benchmark builds the program from its sources")
    os.makedirs(BUILD, exist_ok=True)
    digest = source_digest()
    build(digest)
    base = [BINARY, "--work-dir", BUILD, "--commit", commit(), "--source-digest", digest[:16]]
    args = sys.argv[1:]
    for i, a in enumerate(args):
        if a == "--workload=all" or (a == "--workload" and args[i + 1:i + 2] == ["all"]):
            sys.exit(run_all(base, args[:i] + args[i + (1 if "=" in a else 2):]))
    sys.stdout.flush()
    sys.exit(subprocess.run(base + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
