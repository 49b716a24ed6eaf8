"""End-to-end, per-layer benchmark of the Vienna Fortran reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload grid-scale --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics listed in ``BENCHMARK.json`` (tracing
off); ``--trace 1`` reports the per-layer metrics, measured by shims
the benchmark wraps around the program's public entry points for that
run only (see ``probes.py``), and writes the recorded spans to
``--out-dir``.

Set-up time (``setup_s``) is measured from before ``import repro``
through opening the workload's sessions or server and one untimed
warm-up pass over every cell.  The run repeats that set-up in
:data:`SETUP_RUNS` - 1 fresh child processes (none with ``--smoke``)
and reports the median.

Times are normalized to a nominal machine speed, because the speed of
a shared host drifts by a quarter over tens of seconds: each wall time
is scaled by a reference probe timed in the same process around the
same work (``harness.Speed``).  ``pass_s`` and ``req_per_s`` carry the
unit ``ref_s`` for it; ``setup_s`` is normalized the same way (by a
probe burst right after each set-up) but keeps the unit ``s``.  On
``spmd-mp`` all three are plain wall times (``normalize`` is off
there): its work runs in worker processes on every CPU, which a probe
in the benchmark's process does not see.  On the
cell workloads ``req_per_s`` is cells / ``pass_s``, derived from it
rather than measured on its own; on ``serve-mixed`` it is the measured
closed-loop throughput.  The raw wall times are printed alongside as
``setup_wall_s`` and ``pass_wall_s``.

A run in which any operation failed reports ``"correct": false``: its
times would cover only the operations that succeeded.

A correctness failure prints the failing cell on standard error and
exits with code 3 without a result line; a missing program (no
``src/repro`` next to this directory) exits with code 2.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before `import repro`

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "grid-scale": ("wl_grid", "GridScale"),
    "drift-adapt": ("wl_drift", "DriftAdapt"),
    "serve-mixed": ("wl_serve", "ServeMixed"),
    "spmd-mp": ("wl_spmd", "SpmdMultiprocess"),
}
#: set-ups measured for the median ``setup_s`` (one with ``--smoke``)
SETUP_RUNS = 3
#: probes timed right after a set-up to normalize it
SETUP_PROBES = 30


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny cells (the benchmark's self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {'setup_s': ...} and exit")
    p.add_argument("--expect", help="JSON file of expected cell digests")
    p.add_argument("--digests-out", help="write the observed cell digests here")
    p.add_argument("--out-dir", default=os.path.join(ROOT, ".e2ebench-out"),
                   help="where a traced run writes its spans")
    return p.parse_args(argv)


def _env() -> dict:
    """The environment stamp printed with every result."""
    from repro.obs.trajectory import env_digest, environment_fingerprint

    env = environment_fingerprint(probe=False)
    env["env_digest"] = env_digest(env)
    env["nproc"] = os.cpu_count()
    return env


def _child_setup(args) -> tuple[float, float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["setup_wall_s"])


def _result(spec: dict, key: str, values: dict, bench) -> str:
    metrics = {}
    for m in spec[key]:
        # a per-layer metric the workload does not exercise reads 0; an
        # end-to-end metric must always be measured
        value = values[m["name"]] if key == "end_to_end" else values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return json.dumps({"correct": bench.failed == 0, "attempted": int(bench.attempted),
                       "failed": int(bench.failed), "metrics": metrics})


def main(argv=None) -> int:
    args = _args(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {src}/repro is missing",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import importlib

    import repro  # noqa: F401  (timed as part of set-up)

    from harness import Checker, CorrectnessError, median
    from probes import Recorder

    expected = None
    if args.expect:
        with open(args.expect) as fh:
            expected = json.load(fh)
    checker = Checker(expected)
    module, cls = WORKLOADS[args.workload]
    bench = getattr(importlib.import_module(module), cls)(
        args.seed, checker, smoke=args.smoke)
    try:
        try:
            bench.open()
            bench.warm()
            wall = time.perf_counter() - _T0
            # normalize by the probes of the warm pass and a burst after it
            bench.speed.burst(SETUP_PROBES)
            setup = [(wall * (bench.speed.factor() if bench.normalize else 1.0),
                      wall)]
            if args.setup_only:
                print(json.dumps({"setup_s": setup[0][0], "setup_wall_s": wall}))
                return 0
            if not args.trace:
                runs = 1 if args.smoke else SETUP_RUNS
                setup += [_child_setup(args) for _ in range(runs - 1)]
                values = bench.measure(args.seconds)
                values["setup_s"] = median(s for s, _ in setup)
                values["setup_wall_s"] = median(w for _, w in setup)
            else:
                recorder = Recorder()
                values = bench.measure_traced(args.seconds, recorder)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            values["failed_frac"] = bench.failed / max(1, bench.attempted)
        finally:
            bench.close()
    except CorrectnessError as exc:
        print(f"CORRECTNESS FAILURE in {exc}", file=sys.stderr)
        return 3
    if args.digests_out:
        with open(args.digests_out, "w") as fh:
            json.dump(checker.observed, fh, indent=1, sort_keys=True)
    env = _env()
    if args.trace:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir,
                            f"{args.workload}-seed{args.seed}.spans.jsonl")
        recorder.write(path, {"workload": args.workload, "seed": args.seed,
                              "env": env})
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"failed_frac: {bench.failed}/{bench.attempted} operations failed")
    key = "per_layer" if args.trace else "end_to_end"
    reported = {m["name"] for m in spec[key]}
    print("also measured: " + json.dumps(
        {k: v for k, v in sorted(values.items()) if k not in reported}))
    print(_result(spec, key, values, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
