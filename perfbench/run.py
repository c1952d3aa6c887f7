"""Benchmark of the curvedual command line: solve, dual and check.

Run from the repository root::

    python3 perfbench/run.py --workload {solve,dual,check} --seed N \\
        --seconds S --trace {0,1}

One process per run, one client, one op in flight (closed loop).  Each op
is ``curvedual.cli.main([...])`` called in process with its output
captured, on an input file generated from the seed.  Every op's output is
held to the acceptance bounds and hashed.  Set-up time is sampled in fresh
child processes.  With ``--trace 1`` every input runs twice, untraced and
then traced, and the per-layer metrics come from the traced ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md says
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io as _io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_PROBES = 5     # fresh processes timed from spawn to ready
COLD_PROBES = {"solve": 0, "dual": 2, "check": 4}  # probes that also run op 0
P90_MIN_WARM = 100   # p90 is printed only with ten samples above it
PROBE_TIMEOUT_S = 150
END_TO_END = ("setup_s", "cold_op_s", "op_s.p50", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "dual", "check"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run as a set-up probe writing its inputs into this directory
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--probe-cold", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


# ------------------------------------------------------------------- ops

def _hash_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_op(cli, workloads, workload: str, spec: dict, out_dir: Path,
           tracer=None) -> dict:
    """One CLI call, timed, checked and hashed; its files are removed."""
    argv = spec["argv"] + ["--out", str(out_dir)]
    captured = _io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        root = tracer.open("cli.main") if tracer is not None else None
        try:
            rc = cli.main(argv)
        # an op that raises is a failed op; it must not end the run
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if root is not None:
                tracer.close(root)
        wall = time.perf_counter() - t0
    if error is None:
        ok, reason, extra = workloads.check_output(workload, rc, str(out_dir))
    else:
        ok, reason, extra = False, error, {}
    digest = _hash_dir(out_dir) if out_dir.is_dir() else "none"
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"wall": wall, "ok": ok, "reason": reason, "sha256": digest,
            "L_max": spec["L_max"], **extra}


def probe(args) -> int:
    """Child process: import, generate inputs, report ready, maybe op 0."""
    from curvedual import cli
    import workloads

    specs = workloads.generate(args.workload, args.seed, args.probe)
    print("ready", flush=True)
    if args.probe_cold:
        rec = run_op(cli, workloads, args.workload, specs[0],
                     Path(args.probe) / "out")
        print("cold", json.dumps(rec), flush=True)
    return 0


def sample_setup(args, run_dir: Path):
    """Spawn fresh processes; time each from spawn to ready."""
    setups, colds = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--probe", str(run_dir / f"probe{i}")]
        if i < COLD_PROBES[args.workload]:
            cmd.append("--probe-cold")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe {i} failed "
                               f"(exit {proc.returncode}): {line!r}")
        for out in rest.splitlines():
            if out.startswith("cold "):
                colds.append(json.loads(out[5:]))
    return setups, colds


# --------------------------------------------------------------- context

def context_line(args, n_ops: int) -> str:
    import numpy as np
    import scipy
    from curvedual import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        getter = getattr(ctypes.CDLL(path),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = str(getter())
    return (f"context: backend={_kernels.backend_name()} "
            f"blas={blas['name']}-{blas['version']} blas_threads={threads} "
            f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} ops={n_ops}")


# ------------------------------------------------------------------ main

def run_loop(args, cli, workloads, specs, out_dir: Path, tracer):
    """Closed loop for ``args.seconds``, ending after a whole input block.

    Input 0 is the cold op; at least one block of warm inputs follows it.
    Traced runs take each input twice, untraced and then traced.  Returns
    the op records and the indices of the traced ones.
    """
    records, traced = [], []
    block = workloads.BLOCK[args.workload]
    start = time.perf_counter()
    i = 0
    while i <= block or (i - 1) % block or \
            time.perf_counter() - start < args.seconds:
        # input 0 runs once; the warm inputs cycle in whole blocks
        spec = specs[1 + (i - 1) % (len(specs) - 1) if i else 0]
        records.append(run_op(cli, workloads, args.workload, spec, out_dir))
        if tracer is not None:
            tracer.op = len(records)
            tracer.recording = True
            try:
                records.append(run_op(cli, workloads, args.workload, spec,
                                      out_dir, tracer))
            finally:
                tracer.recording = False
            traced.append(len(records) - 1)
        i += 1
    return records, traced


def end_to_end(args, setups, colds, records, lines) -> dict:
    """End-to-end metrics of an untraced run, also printed by name."""
    # failed ops count here too; any failure already makes the run incorrect
    warm = [r["wall"] for r in records[1:]]
    cold = [r["wall"] for r in colds + records[:1]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": (statistics.median(setups), "s", len(setups)),
              "cold_op_s": (statistics.median(cold), "s", len(cold)),
              "op_s.p50": (statistics.median(warm), "s", len(warm)),
              "peak_rss_mb": (peak_rss_mb, "MB", 1)}
    metrics = {}
    for name in END_TO_END:
        value, unit, n = values[name]
        lines.append(f"metric {name} = {value:.6g} {unit} (n={n})")
        metrics[name] = {"value": value, "unit": unit}
    if len(warm) >= P90_MIN_WARM:
        p90 = statistics.quantiles(warm, n=10)[-1]
        lines.append(f"metric op_s.p90 = {p90:.6g} s (n={len(warm)})")
    else:
        lines.append(f"metric op_s.p90 = n/a (needs {P90_MIN_WARM} warm ops, "
                     f"have {len(warm)})")
    if args.workload == "check":
        sizes = [r["L_max"] for r in records]
        repeats = sum(L in sizes[:k] for k, L in enumerate(sizes))
        lines.append(f"metric lmax_repeat_frac = {repeats / len(sizes):.6g} "
                     f"({repeats}/{len(sizes)} ops reuse an earlier L_max)")
    return metrics


def per_layer(tracer, records, traced, lines) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, and whether the trace adds up."""
    # both sides run the same inputs; the first pair holds the cold op and
    # is left out when there are others
    pairs = traced[1:] or traced
    traced_p50 = statistics.median([records[k]["wall"] for k in pairs])
    untraced_p50 = statistics.median([records[k - 1]["wall"] for k in pairs])
    overhead = traced_p50 - untraced_p50
    metrics = tracer.layer_metrics(traced)
    metrics["trace.overhead_s"] = overhead
    # the self times of one op must add up to its wall time, and tracing
    # must not change what the program writes
    sums, smallest = tracer.op_self_sums(traced)
    gap = max(abs(records[k]["wall"] - sums[k]) for k in traced)
    ok = (gap <= max(abs(overhead), 1e-3) and smallest > -1e-6
          and all(records[k]["sha256"] == records[k - 1]["sha256"]
                  for k in traced))
    lines.append(f"trace: op_s.p50 traced {traced_p50:.6g} s, untraced "
                 f"{untraced_p50:.6g} s (n={len(pairs)}); largest |wall - "
                 f"sum of self times| {gap:.3g} s; smallest self time "
                 f"{smallest:.3g} s")
    # layer metrics are per-op means, so shares are of the mean traced op
    mean_op = statistics.fmean(records[k]["wall"] for k in traced)
    out = {}
    for name in sorted(metrics):
        unit = _layer_unit(name)
        value = metrics[name]
        share = (f" ({100 * value / mean_op:.1f}% of the mean traced op)"
                 if unit == "s" else "")
        lines.append(f"layer {name} = {value:.6g} {unit}{share}")
        out[name] = {"value": value, "unit": unit}
    return out, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curvedual" / "__init__.py").is_file():
        print(f"error: no curvedual package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.probe is not None:
        return probe(args)

    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # set-up and cold-op probes feed end-to-end metrics only
    setups, colds = ([], []) if args.trace else sample_setup(args, run_dir)

    from curvedual import cli
    import workloads

    specs = workloads.generate(args.workload, args.seed, str(run_dir / "in"))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, traced = run_loop(args, cli, workloads, specs,
                                   run_dir / "out", tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    every = colds + records
    failed = sum(not r["ok"] for r in every)
    lines = [context_line(args, len(records))]
    for k, rec in enumerate(every):
        kind = ("probe" if k < len(colds) else "cold" if k == len(colds)
                else "traced" if k - len(colds) in traced else "warm")
        lines.append(f"op {k} {kind} L_max={rec['L_max']} {rec['wall']:.4f} s "
                     f"{'ok' if rec['ok'] else 'FAILED'} "
                     f"sha256={rec['sha256'][:16]} ({rec['reason']})")
    lines.append(f"metric fail_frac = {failed / len(every):.6g} "
                 f"({failed}/{len(every)})")
    iters = [r["newton_iters"] for r in every if "newton_iters" in r]
    if iters:
        lines.append(f"metric newton_iters = {statistics.median(iters):g} "
                     f"per solve (n={len(iters)}: {iters})")
    # every run of input 0 must write the same bytes
    correct = failed == 0 and all(r["sha256"] == records[0]["sha256"]
                                  for r in colds)
    if tracer is None:
        metrics = end_to_end(args, setups, colds, records, lines)
    else:
        metrics, trace_ok = per_layer(tracer, records, traced, lines)
        correct = correct and trace_ok
        tracer.write(run_dir / "spans.jsonl")

    with open(run_dir / "ops.jsonl", "w", encoding="utf-8") as fh:
        for rec in every:
            fh.write(json.dumps(rec) + "\n")
    shutil.rmtree(run_dir / "in", ignore_errors=True)
    for i in range(SETUP_PROBES):
        shutil.rmtree(run_dir / f"probe{i}", ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(every),
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
