"""Run one aggterm benchmark workload and print its metrics.

    python3 bench/run.py --workload dense_check --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from src/ beside this
directory, and the run fails (exit 1, no result) when src/ is missing.
The process is one closed-loop caller. It sets up the workload several
times; then it runs passes over the workload's operations, checking
every output, while the next pass still fits in --seconds (at least one
pass always runs). setup_s is the median import time, over this process
and fresh interpreters that only import, plus the median of the set-ups.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, with
every pass untraced. --trace 1 runs pairs of passes on the same inputs,
one untraced and one traced, in the order U T T U U T ... so that drift
in machine speed cancels; it reports the per-layer metrics of the traced
passes plus the tracing overhead (the median over pairs of traced minus
untraced wall_s), and writes the spans to .bench_out/ as JSONL.

Every line but the last is for people: the environment, every end-to-end
metric that applies to the workload, gated or not, and failed checks. The
last line is one JSON object with correct, attempted, failed and metrics.
A fuller record goes to .bench_out/<workload>-<seed>-trace<t>.json.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUPS = 3
IMPORT_PROBES = 4  # fresh interpreters timed besides this process
# prints import_seconds() of a fresh interpreter; argv[1] is BENCH
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
                "print(repr(run.import_seconds()))")
WORKLOADS = ("dense_check", "sparse_rw", "sparse_limit")
# (metric, unit) reported with --trace 0, as listed in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def import_package():
    """Import aggterm from ROOT/src; the source tree must be there."""
    src = ROOT / "src"
    if not (src / "aggterm" / "__init__.py").is_file():
        raise SystemExit(f"error: no aggterm source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import aggterm
    if Path(aggterm.__file__).resolve().parent != (src / "aggterm").resolve():
        raise SystemExit(f"error: aggterm came from {aggterm.__file__}")


def import_seconds() -> float:
    """Seconds from this module's first line to the workloads imported."""
    import_package()
    import tracing  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - _START


def probe_import_seconds() -> float:
    """import_seconds() measured in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of ROOT/.git read directly, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aggterm").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workers: int) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {"name": deps.get("name"), "version": deps.get("version")}
    nproc = len(os.sched_getaffinity(0))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": nproc, "blas_threads": BLAS_THREADS,
            "worker_threads": workers, "commit": git_commit(),
            "src_sha256": source_digest()}


def pass_plan(index: int, tracing: bool) -> tuple:
    """(traced, inputs) of pass `index`: inputs numbers the pass's inputs.

    Untraced runs give every pass its own inputs. Traced runs pair the
    passes, each pair sharing inputs, traced second in even pairs and
    first in odd ones.
    """
    if not tracing:
        return False, index
    return index % 4 in (1, 2), index // 2


def run_pass(workload, pass_index: int, inputs: int, tracer=None) -> dict:
    """Run and check every operation of one pass; exceptions are failures."""
    import tracing
    from workloads import CheckError, sub_seed
    ops = workload.ops(sub_seed(workload.seed, "pass", inputs))
    records = []
    for op in ops:
        rec = {"name": op.name, "kind": op.kind, "ok": False}
        try:
            if tracer is not None:
                tracer.op = tracing.op_id(pass_index, op.name)
                tracer.install(tracing.layer_targets())
            start = time.perf_counter()
            try:
                result = op.run()
            finally:
                rec["seconds"] = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            rec["facts"] = op.check(result)
            rec["ok"] = True
        except CheckError as exc:
            rec["error"] = f"check failed: {exc}"
        except Exception:
            rec["error"] = traceback.format_exc(limit=3)
        records.append(rec)
    return {"index": pass_index, "inputs": inputs,
            "traced": tracer is not None,
            "wall_s": sum(r.get("seconds", 0.0) for r in records),
            "ops": records}


def end_to_end(passes) -> dict:
    """Every end-to-end metric that applies, from untraced pass records.

    wall_s and limit_s are medians over passes; rates pool all passes;
    limit_abs_err is the median over passes of each pass's largest error.
    A metric whose operations the workload lacks is left out.
    """
    plain = [p for p in passes if not p["traced"]]
    ops = [r for p in plain for r in p["ops"]]
    out = {"wall_s": (statistics.median(p["wall_s"] for p in plain), "s")}

    def seconds(kind, pass_=None):
        recs = pass_["ops"] if pass_ else ops
        return sum(r.get("seconds", 0.0) for r in recs if r["kind"] == kind)

    def facts(key, recs):
        return [r["facts"][key] for r in recs
                if r["ok"] and key in r["facts"]]

    kinds = {r["kind"] for r in ops}
    if "sweep" in kinds:
        out["sweep_items_per_s"] = (sum(facts("items", ops))
                                    / seconds("sweep"), "1/s")
    if "limit" in kinds:
        out["limit_s"] = (statistics.median(seconds("limit", p)
                                            for p in plain), "s")
    if "census" in kinds:
        out["census_roots_per_s"] = (sum(facts("roots", ops))
                                     / seconds("census"), "1/s")
    failed = sum(not r["ok"] for r in ops)
    out["error_rate"] = (failed / len(ops), "ratio")
    truths = facts("truth", ops)
    if truths:
        worst = [max((g for g, _ in facts("truth", p["ops"])), default=0.0)
                 for p in plain]
        out["limit_abs_err"] = (statistics.median(worst), "abs")
        covered = sum(g <= 3.0 * err for g, err in truths)
        out["stderr_coverage"] = (covered / len(truths), "ratio")
    dists = facts("dist", ops)
    if dists:
        out["sweep_limit_dist"] = (statistics.median(dists), "abs")
    return out


def tracing_overhead(passes) -> float:
    """Median over complete pairs of traced minus untraced pass wall_s."""
    pairs: dict = {}
    for p in passes:
        pairs.setdefault(p["inputs"], {})[p["traced"]] = p["wall_s"]
    return statistics.median(pair[True] - pair[False]
                             for pair in pairs.values() if len(pair) == 2)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_times = [import_seconds()]
    import_times += [probe_import_seconds() for _ in range(IMPORT_PROBES)]
    import tracing
    import workloads

    nproc = len(os.sched_getaffinity(0))
    cls = workloads.WORKLOADS[args.workload]
    workers = max(1, min(cls.WORKERS, nproc // BLAS_THREADS))
    tracer = tracing.Tracer() if args.trace else None

    setup_times = []
    for _ in range(SETUPS):
        workload = cls(args.seed, workers, tiny=args.tiny)
        start = time.perf_counter()
        if tracer is not None:
            tracer.op = tracing.SETUP_OP
            tracer.install(tracing.layer_targets())
        try:
            workload.setup()
            workload.warm_up()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    passes = []
    begin = time.perf_counter()
    while True:
        traced, inputs = pass_plan(len(passes), tracer is not None)
        pass_start = time.perf_counter()
        rec = run_pass(workload, len(passes), inputs,
                       tracer if traced else None)
        rec["elapsed_s"] = time.perf_counter() - pass_start
        passes.append(rec)
        spent = time.perf_counter() - begin
        typical = statistics.median(p["elapsed_s"] for p in passes)
        both_kinds = tracer is None or len(passes) >= 2
        if both_kinds and spent + typical > args.seconds:
            break

    ops = [r for p in passes for r in p["ops"]]
    failed = [r for r in ops if not r["ok"]]
    e2e = end_to_end(passes)
    e2e["setup_s"] = (setup_s, "s")
    e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
    env = environment(workers)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"

    if tracer is None:
        metrics = {name: {"value": float(e2e[name][0]), "unit": unit}
                   for name, unit in END_TO_END}
    else:
        traced_passes = sum(p["traced"] for p in passes)
        metrics = tracing.layer_metrics(tracer.spans, traced_passes, SETUPS,
                                        cls.growth_op,
                                        tracing_overhead(passes))
        tracer.write_jsonl(OUT_DIR / f"trace-{stem}.jsonl")

    print(f"# workload {args.workload}, seed {args.seed}, trace "
          f"{args.trace}, {len(passes)} passes of {len(passes[0]['ops'])} "
          f"ops, setup x{SETUPS}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in sorted(e2e.items()):
        print(f"# e2e {name} = {value!r} {unit}")
    for rec in failed:
        print(f"# FAILED {rec['name']}: {rec['error']}".rstrip())
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env,
              "end_to_end": {k: {"value": v, "unit": u}
                             for k, (v, u) in e2e.items()},
              "metrics": metrics, "setup_times_s": setup_times,
              "import_times_s": import_times, "passes": passes}
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
