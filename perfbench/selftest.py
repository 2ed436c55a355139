#!/usr/bin/env python3
"""Self-test of the repository benchmark (perfbench/run.py).

    python3 perfbench/selftest.py

Run from the repository root; builds like run.py does. Checks that
  1. every workload prints exactly the metric names and units that
     BENCHMARK.json lists (end_to_end untraced, per_layer traced);
  2. the deterministic metrics repeat exactly for one seed, and the
     seed-dependent ones change for another seed;
  3. a corrupted expected output makes the checker fail (failed > 0,
     correct false), so fail_ratio can rise above 0.
Exits 0 when all checks pass.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["exec-spec", "heap-debug", "serve-mix"]
SECONDS = "1"

# Metrics that are pure functions of the seed. SEED_DEPENDENT ones must also
# differ between two seeds; serve.* counts are fixed by the request stream's
# shape (the seed only reorders it).
DETERMINISTIC_E2E = ["overhead_x", "image_growth_x"]
SERVE_COUNTS = ["serve.hits", "serve.misses", "serve.retiers"]


def deterministic_layer_names(names):
    return [n for n in names
            if n in ("vm.instructions", "vm.cycles") or n in SERVE_COUNTS
            or (n.startswith("pipeline.") and n.endswith((".items", ".changed")))]


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", trace, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"selftest: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for wl in WORKLOADS:
        plain = run(wl, 1, "0")
        traced = run(wl, 1, "1")
        traced_again = run(wl, 1, "1")
        traced_other = run(wl, 2, "1")
        plain_other = run(wl, 2, "0")

        for result, names, label in ((plain, e2e, "end_to_end"), (traced, layers, "per_layer")):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names, f"{wl}: printed {label} names and units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0,
                   f"{wl}: {label} run correct, fail_ratio 0")

        def values(result, names):
            return {n: result["metrics"][n]["value"] for n in names}

        det = deterministic_layer_names(layers)
        seed_dependent = [n for n in det if n not in SERVE_COUNTS]
        expect(values(traced, det) == values(traced_again, det),
               f"{wl}: deterministic per-layer counts repeat for one seed")
        expect(values(plain, DETERMINISTIC_E2E) == values(run(wl, 1, "0"), DETERMINISTIC_E2E),
               f"{wl}: overhead_x and image_growth_x repeat for one seed")
        expect(values(plain, DETERMINISTIC_E2E) != values(plain_other, DETERMINISTIC_E2E),
               f"{wl}: overhead_x/image_growth_x change for another seed")
        nonzero = [n for n in seed_dependent if traced["metrics"][n]["value"] != 0]
        expect(values(traced, nonzero) != values(traced_other, nonzero),
               f"{wl}: seed-dependent counts change for another seed")

        corrupted = run(wl, 1, "0", ["--corrupt-expected"])
        expect(corrupted["failed"] > 0 and not corrupted["correct"],
               f"{wl}: corrupted expected output gives fail_ratio > 0 "
               f"({corrupted['failed']}/{corrupted['attempted']})")

    print("selftest: " + ("PASS" if not problems else f"{len(problems)} FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
