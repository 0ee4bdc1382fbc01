#!/usr/bin/env python3
"""Build and run eclsim's pipeline benchmark, or compare two results.

Run one workload (from the root of the repository):

    python3 pipebench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

The first run configures and builds pipebench/ (the eclsim libraries
plus the pipebench binary) into $CARGO_TARGET_DIR/pipebench, default
.bench_build/pipebench; later runs rebuild incrementally. The binary's
report goes to stdout and the full result (every metric, exact counts
flagged, run metadata) to <build>/results/<workload>-seed<N>-trace<T>.json,
with the traced run's spans next to it as a Chrome trace. The last line
of stdout is the one-line JSON result: the metrics BENCHMARK.json lists
for the mode (end-to-end untraced, per-layer traced), read from that
file.

Compare the exact counts of two result files (simulated statistics,
detector and analyzer counts, fidelity geomeans):

    python3 pipebench/run.py --compare A.json B.json

It lists every exact metric whose value differs and exits 1 if any
does, 0 if none does.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_sweep", "race_gate", "serve_replay")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run is meant to finish within three minutes: the binary's own budget
# is --seconds plus set-up and verification.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "pipebench"


def workers():
    return max(1, min(4, os.cpu_count() or 1))


def build(out_dir):
    """Configure (once) and build the binary; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    build_log = out_dir / "build.log"
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "pipebench",
                  "-j", str(workers())])
    with open(build_log, "w") as sink:
        for step in steps:
            result = subprocess.run(step, stdout=sink,
                                    stderr=subprocess.STDOUT, cwd=ROOT)
            if result.returncode != 0:
                sink.flush()
                tail = build_log.read_text(errors="replace").splitlines()
                log("\n".join(tail[-30:]))
                log(f"pipebench: build step failed: {' '.join(step)}")
                return None
    binary = out_dir / "pipebench"
    return binary if binary.exists() else None


def source_id():
    """The git commit when available, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def result_line(result, trace):
    """The one-line result: the metrics BENCHMARK.json lists for this
    mode, in its order, taken from the binary's result file. A metric
    the workload does not measure (named, or its layer named, in the
    result's "unmeasured" list) reads 0; any other missing metric or a
    unit that differs from the definition is an error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = result["metrics"]
    unmeasured = set(result.get("unmeasured", []))
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                raise ValueError(f"{name} has unit {measured[name]['unit']}"
                                 f", BENCHMARK.json says {unit}")
            value = measured[name]["value"]
        elif name in unmeasured or name.split(".")[0] in unmeasured:
            value = 0
        else:
            raise ValueError(f"the workload did not report {name}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run(args):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("pipebench: eclsim sources (src/) not found next to pipebench/")
        return 2
    if not (ROOT / "BENCHMARK.json").exists():
        log("pipebench: BENCHMARK.json not found next to pipebench/")
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_file = results / (stem + ".json")
    result_file.unlink(missing_ok=True)
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--out={result_file}",
               f"--spans={results / (stem + '.spans.json')}",
               f"--commit={source_id()}"]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"pipebench: {args.workload} did not finish in "
            f"{RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result_file.exists():
        log(f"pipebench: {args.workload} exited with {proc.returncode}")
        return 1
    try:
        line = result_line(json.loads(result_file.read_text()), args.trace)
    except (ValueError, KeyError) as problem:
        log(f"pipebench: {result_file}: {problem}")
        return 1
    print(f"(full result: {result_file})")
    print(json.dumps(line), flush=True)
    return 0


def compare(path_a, path_b):
    """List every exact metric that differs between two result files."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("workload", "seed", "trace"):
        if a.get(key) != b.get(key):
            print(f"note: {key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    meta_a, meta_b = a.get("metadata", {}), b.get("metadata", {})
    for key in sorted(set(meta_a) | set(meta_b)):
        if meta_a.get(key) != meta_b.get(key):
            print(f"note: metadata.{key} differs: {meta_a.get(key)!r} vs "
                  f"{meta_b.get(key)!r}")
    ma, mb = a.get("metrics", {}), b.get("metrics", {})
    exact = sorted(name for name in set(ma) | set(mb)
                   if ma.get(name, {}).get("exact")
                   or mb.get(name, {}).get("exact"))
    differ = 0
    for name in exact:
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        if va != vb:
            differ += 1
            print(f"DIFF {name}: {va} -> {vb}")
    print(f"{len(exact)} exact metrics compared, {differ} differ")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
