#!/usr/bin/env python3
"""hqrsim benchmark: one closed-loop client driving the CLI over a seeded workload.

    python3 perfbench/run.py --workload cli-mix|scan|waiting --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is `src/hqrsim` next to this
directory. `cli-mix` starts a fresh `python -m hqrsim` per operation;
`scan` and `waiting` call `hqrsim.cli.main(argv)` in this process with
stdout captured. Operations run in blocks of a fixed shape (see
workloads.py) until `--seconds` have passed; every output is checked
(checks.py). With `--trace 1` every other block runs with spans around
each hqrsim module (tracer.py) and the per-layer metrics are printed
instead of the end-to-end ones.

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Spans, output digests and provenance go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

# One BLAS thread: with one closed-loop client the run stays within nproc
# and the small matrices here gain nothing from more. It also makes the CPU
# time of the working process equal to its wall time on an idle machine, so
# the timings below are CPU seconds: on a shared host they leave out the time
# the process waits for a CPU (steal and run-queue delays). They are then
# scaled to a nominal machine speed measured beside them (calibrate.py).
# Set before calibrate.py loads numpy: OpenBLAS reads it once, at load.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})

import calibrate
import checks
import workloads
from tracer import MODULES, Tracer, import_times, stats_from_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TMP = OUT / "tmp"

SETUP_REPEATS = 3  # timed fresh imports per run, after one untimed warm-up
IMPORTTIME_REPEATS = 3
OP_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations above it

# Re-anchor figures from ROADMAP.md, seconds, for the baseline cross-check.
ROADMAP_BASELINE = {
    "homodyne_report d=3": 0.069,
    "homodyne_report d=4": 0.110,
    "negativity_scan d=3, 100 points": 0.084,
    "negativity_scan d=6, 100 points": 0.323,
    "monte_carlo_waiting 3 rounds, per 1e5 trials": 0.91,
    "CLI run (cli-mix median wall)": 0.92,
    "import scipy": 0.75,
}

class SetupError(RuntimeError):
    pass


@dataclass
class Result:
    status: int | None  # exit status; None if the call raised or timed out
    text: str
    err: str
    seconds: float  # wall time
    cpu: float  # CPU time (user + system) of the process that did the work


@dataclass
class Block:
    index: int
    traced: bool
    ops: list
    results: list
    wall: float
    stats: dict = field(default_factory=dict)  # (op position, span name) -> [calls, self, total]

    @property
    def ops_per_cpu_s(self) -> float:
        return len(self.ops) / sum(r.cpu for r in self.results)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def measure_setup(env) -> float:
    """Median nominal CPU time of a fresh interpreter importing hqrsim from SRC."""
    expected = (SRC / "hqrsim" / "__init__.py").resolve()
    cmd = [sys.executable, "-c", "import hqrsim, sys; sys.stdout.write(hqrsim.__file__)"]
    times = []
    speed = calibrate.child_speed(start=0)
    for i in range(SETUP_REPEATS + 1):
        speed.tick()
        c0 = calibrate.children_cpu()
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=OP_TIMEOUT_S)
        dt = calibrate.children_cpu() - c0
        if r.returncode != 0 or Path(r.stdout).resolve() != expected:
            raise SetupError(f"import hqrsim from {SRC} failed: {r.stderr.strip()[-500:]}")
        if i:  # the first import may compile bytecode; users pay that once
            times.append(dt)
    return statistics.median(times) * speed.scale


def measure_import_times(env) -> dict:
    cmd = [sys.executable, "-X", "importtime", "-c", "import hqrsim"]
    runs = [import_times(subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                        timeout=OP_TIMEOUT_S, check=True).stderr)
            for _ in range(IMPORTTIME_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class InProcess:
    """Calls hqrsim.cli.main(argv) in this process; the tracer patches it in place."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import hqrsim.cli

        if Path(hqrsim.__file__).resolve() != (SRC / "hqrsim" / "__init__.py").resolve():
            raise SetupError(f"imported hqrsim from {hqrsim.__file__}, not {SRC}")
        self.cli = hqrsim.cli
        self.tracer = None

    def begin(self, traced: bool, keep_spans: bool):
        if traced:
            self.tracer = self.tracer or Tracer()
            self.tracer.keep_spans = keep_spans
            self.tracer.install()

    def run(self, op, position: int, traced: bool) -> Result:
        if traced:
            self.tracer.op = position
        out, err = io.StringIO(), io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(list(op.argv))  # looked up each call: may be traced
        except Exception:
            status = None
            err.write(traceback.format_exc())
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        return Result(status, out.getvalue(), err.getvalue(), seconds, cpu)

    def end(self, traced: bool) -> dict:
        if not traced:
            return {}
        self.tracer.uninstall()
        self.tracer.keep_spans = False
        return self.tracer.take_stats()

    def spans(self):
        return self.tracer.spans_doc() if self.tracer else None

    @staticmethod
    def speed() -> calibrate.Speed:
        return calibrate.Speed()

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Subprocess:
    """One fresh `python -m hqrsim` per operation; traced ones go through child.py."""

    def __init__(self, env):
        self.env = env
        self.stats = {}
        self.child_spans = []  # span documents of the kept (first traced) block
        self.keep_spans = False
        self.import_times = []

    def begin(self, traced: bool, keep_spans: bool):
        self.stats = {}
        self.keep_spans = keep_spans

    def run(self, op, position: int, traced: bool) -> Result:
        spans_path = TMP / f"spans{position}.json"
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"),
                   str(spans_path), str(position), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "hqrsim", *op.argv]
        c0, t0 = calibrate.children_cpu(), time.perf_counter()
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                               timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            seconds = time.perf_counter() - t0
            return Result(None, "", f"timed out after {OP_TIMEOUT_S} s", seconds,
                          calibrate.children_cpu() - c0)
        seconds, cpu = time.perf_counter() - t0, calibrate.children_cpu() - c0
        text, err = r.stdout, r.stderr
        if traced:
            self.import_times.append(import_times(err))
            err = "".join(line for line in err.splitlines(True)
                          if not line.startswith("import time:"))
            if spans_path.exists():
                doc = json.loads(spans_path.read_text())
                spans_path.unlink()
                self.stats.update(stats_from_json(doc["stats"]))
                if self.keep_spans:
                    self.child_spans.append(doc["spans"])
        if op.out is not None:
            if text:
                err += "stdout not empty although --out was given\n"
                return Result(None, text, err, seconds, cpu)
            out_path = ROOT / op.out
            if out_path.exists():
                text = out_path.read_text()
                out_path.unlink()
        return Result(r.returncode, text, err, seconds, cpu)

    def end(self, traced: bool) -> dict:
        return self.stats

    def spans(self):
        return self.child_spans or None

    @staticmethod
    def speed() -> calibrate.Speed:
        return calibrate.child_speed()

    @staticmethod
    def peak_rss_mb() -> float:
        # set-up and reference children only import, so the largest child is an operation
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def warm_up(workload: str, seed: int, runner) -> Block:
    """One untimed block, so lazy imports and first-call set-up inside the
    process are paid before timing. Its argv come from their own stream."""
    ops = workloads.block(workload, seed, -1)
    t0 = time.perf_counter()
    results = [runner.run(op, i, False) for i, op in enumerate(ops)]
    return Block(-1, False, ops, results, time.perf_counter() - t0)


def run_blocks(workload: str, seed: int, seconds: float, runner, trace: bool):
    """Run whole blocks for about `seconds`; in trace mode even blocks are traced.

    A block starts only if the run then ends nearer to the deadline than it
    would by stopping, so a run of long blocks keeps a steady block count.
    Returns the blocks and the calibrate.Speed timed between their operations.
    """
    blocks = []
    speed = runner.speed()
    deadline = time.perf_counter() + seconds
    while len(blocks) < (2 if trace else 1) or \
            time.perf_counter() + blocks[-1].wall / 2 < deadline:
        b = len(blocks)
        traced = trace and b % 2 == 0
        ops = workloads.block(workload, seed, b)
        gc.collect()
        runner.begin(traced, keep_spans=(b == 0))
        t0 = time.perf_counter()
        results = []
        for i, op in enumerate(ops):
            speed.tick()
            results.append(runner.run(op, i, traced))
        wall = time.perf_counter() - t0
        blocks.append(Block(b, traced, ops, results, wall, runner.end(traced)))
    return blocks, speed


def check_block(block: Block) -> list[str]:
    failures = []
    for op, res in zip(block.ops, block.results):
        try:
            if res.status != 0:
                raise checks.CheckError(f"exit status {res.status}: {res.err.strip()[-800:]}")
            checks.check(op, res.text)
        except checks.CheckError as exc:
            failures.append(f"block {block.index} `{' '.join(op.argv)}`: {exc}")
    return failures


def outputs_digest(block: Block) -> str:
    h = hashlib.sha256()
    for op, res in zip(block.ops, block.results):
        h.update("\0".join(op.argv).encode() + b"\1" + res.text.encode() + b"\1")
    return h.hexdigest()


def argv_digest(ops) -> str:
    return hashlib.sha256(json.dumps([op.argv for op in ops]).encode()).hexdigest()


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND operations beyond it, and its value."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return 100.0, lat[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, lat[n - TAIL_BEYOND - 1]


def end_to_end(blocks, scale: float, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    plain = [b for b in blocks if not b.traced]
    cpu = [r.cpu for b in plain for r in b.results]
    lat = [c * scale for c in cpu]
    pct, tail_s = tail(lat)
    wall = [r.seconds for b in plain for r in b.results]
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {
        "op_tail_percentile": pct, "op_samples": len(lat), "scale": scale,
        "unscaled_cpu": {"ops_per_s": len(cpu) / sum(cpu), "op_p50_s": statistics.median(cpu),
                         "op_tail_s": tail(cpu)[1]},
        "wall": {"ops_per_s": len(wall) / sum(wall), "op_p50_s": statistics.median(wall),
                 "op_tail_s": tail(wall)[1]}}


def _by_name(stats: dict, select=lambda pos, name: True) -> dict:
    totals: dict[str, list] = {}
    for (pos, name), (calls, self_s, total_s) in stats.items():
        if select(pos, name):
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += self_s
            t[2] += total_s
    return totals


def per_layer(blocks, import_s: dict) -> dict:
    """Per-layer metrics: counts from traced block 0, times as medians over traced blocks."""
    traced = [b for b in blocks if b.traced]
    first = traced[0]
    calls = _by_name(first.stats)
    per_block = [_by_name(b.stats) for b in traced]

    def count(name):
        return calls.get(name, [0])[0]

    def median_self(prefix):
        return statistics.median(sum(v[1] for n, v in t.items() if n == prefix
                                     or n.startswith(prefix + ".")) for t in per_block)

    m = {f"import.{k}_s": v for k, v in import_s.items()}
    for mod in MODULES:
        m[f"{mod}.calls"] = sum(v[0] for n, v in calls.items() if n.split(".")[0] == mod)
        m[f"{mod}.self_s"] = median_self(mod)

    scans = [i for i, op in enumerate(first.ops) if op.kind == "negativity-scan"]
    points = sum(first.ops[i].params["grid"][2] for i in scans)
    nc_in_scans = _by_name(first.stats, lambda pos, name: pos in scans)
    m["coherent.norm_constants.calls"] = count("coherent.norm_constants")
    m["coherent.norm_constants.calls_per_point"] = (
        nc_in_scans.get("coherent.norm_constants", [0])[0] / points if points else 0.0)
    m["numerics.DensityMatrix.calls"] = count("numerics.DensityMatrix")
    m["numerics.negativity.calls"] = count("numerics.negativity")

    m["detection.quad.calls"] = count("detection.quad")
    m["detection.quad.self_s"] = median_self("detection.quad")
    pairs = 0
    for pos, op in enumerate(first.ops):
        d = op.params.get("d", 0)
        pairs += first.stats.get((pos, "detection.offdiag_weight"), [0])[0] * d * (d - 1) // 2
    evaluated = count("detection.cross_integral")
    m["detection.cross_integral.unique_ratio"] = pairs / evaluated if evaluated else 0.0

    m["rates.z_attempts.calls"] = count("rates.z_attempts")
    m["rates.z_attempts.self_s"] = median_self("rates.z_attempts")
    m["rates.monte_carlo_waiting.self_s"] = median_self("rates.monte_carlo_waiting")
    trials = mc_time = 0.0
    for b in traced:
        for pos, op in enumerate(b.ops):
            if op.kind == "mc":
                trials += op.params["trials"]
                mc_time += b.stats.get((pos, "rates.monte_carlo_waiting"), [0, 0.0, 0.0])[2]
    m["rates.mc_samples_per_s"] = trials / mc_time if mc_time else 0.0

    m["logic.purify_step.calls"] = count("logic.purify_step")
    m["logic.swap_phase_mixture.calls"] = count("logic.swap_phase_mixture")
    m["tables.grade_cell.calls"] = count("tables.grade_cell")
    m.update(table_counts(first))

    plain = [b for b in blocks if not b.traced]
    m["trace_overhead_ratio"] = (statistics.median(b.ops_per_cpu_s for b in traced)
                                 / statistics.median(b.ops_per_cpu_s for b in plain))
    return m


def table_counts(block: Block) -> dict:
    counts = {"match": 0, "known-typo": 0, "unresolved": 0}
    for op, res in zip(block.ops, block.results):
        if op.kind == "table" and res.status == 0:
            for cell in checks.table_cells(*checks.parse(res.text, op.fmt)):
                counts[cell[3]] = counts.get(cell[3], 0) + 1
    return {f"tables.cells_{k.replace('-', '_')}": v for k, v in counts.items()}


def baseline(workload: str, blocks, import_s: dict) -> dict:
    """Per-call times beside the ROADMAP re-anchor figures this workload covers.

    Library calls are timed by their traced spans; the CLI run is the
    untraced cli-mix operation median.
    """
    samples: dict[str, list] = {}
    spans = {"homodyne": "detection.homodyne_report", "negativity-scan": "states.negativity_scan",
             "mc": "rates.monte_carlo_waiting"}
    for b in blocks:
        if not b.traced:
            continue
        for pos, op in enumerate(b.ops):
            entry = b.stats.get((pos, spans.get(op.kind)))
            if not entry:
                continue
            d, per_call = op.params.get("d"), entry[2] / entry[0]
            if op.kind == "homodyne" and d in (3, 4):
                key = f"homodyne_report d={d}"
            elif op.kind == "negativity-scan" and d in (3, 6) and op.params["grid"][2] == 100:
                key = f"negativity_scan d={d}, 100 points"
            elif op.kind == "mc" and op.params["rounds"] == 3:
                key, per_call = ("monte_carlo_waiting 3 rounds, per 1e5 trials",
                                 per_call * 1e5 / op.params["trials"])
            else:
                continue
            samples.setdefault(key, []).append(per_call)
    if workload == "cli-mix":
        samples["CLI run (cli-mix median wall)"] = [r.seconds for b in blocks if not b.traced
                                                    for r in b.results]
    samples["import scipy"] = [import_s["scipy"]]
    out = {}
    for key, values in samples.items():
        value, ref = statistics.median(values), ROADMAP_BASELINE[key]
        out[key] = {"measured_s": round(value, 6), "roadmap_s": ref,
                    "ratio": round(value / ref, 3), "beyond_2x": not 0.5 <= value / ref <= 2.0}
    return out


def provenance(workload: str, seed: int, blocks, warm) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": tree_digest((SRC / "hqrsim").glob("*.py")),
        "bench_sha256": tree_digest([*HERE.glob("*.py"), HERE / "table_status.json"]),
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "ops_per_block": len(blocks[0].ops),
        "blocks": len(blocks),
        "ops": sum(len(b.ops) for b in blocks),
        "warmup_ops": sum(len(b.ops) for b in warm),
    }


def determinism(workload: str, seed: int, blocks, prov: dict, calls: dict | None) -> list[str]:
    """Compare this run with the last recorded run of the same workload and seed.

    Same benchmark code: the argv lists must match. Same program too: the
    outputs of every common block and, for traced runs, the call and cell
    counts of block 0 must match byte for byte.
    """
    problems = []
    if workloads.block(workload, seed, 0) != blocks[0].ops:
        problems.append("regenerating block 0 from the seed gave other argv")
    record = {"bench_sha256": prov["bench_sha256"], "source_sha256": prov["source_sha256"],
              "argv_sha256": argv_digest(blocks[0].ops),
              "outputs_sha256": [outputs_digest(b) for b in blocks], "counts": calls}
    path = OUT / f"{workload}-seed{seed}.json"
    if path.exists():
        prev = json.loads(path.read_text())
        if prev["bench_sha256"] == record["bench_sha256"]:
            if prev["argv_sha256"] != record["argv_sha256"]:
                problems.append("same seed gave other argv than the recorded run")
            if prev["source_sha256"] == record["source_sha256"]:
                common = zip(prev["outputs_sha256"], record["outputs_sha256"])
                if any(a != b for a, b in common):
                    problems.append("same seed and program gave other output bytes")
                if prev["counts"] and calls and prev["counts"] != calls:
                    problems.append("same seed and program gave other call or cell counts")
                record["counts"] = calls or prev["counts"]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hqrsim" / "__init__.py").is_file():
        print(f"benchmark: no hqrsim sources at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup(env)
        runner = Subprocess(env) if args.workload == "cli-mix" else InProcess()
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
        return 1

    # cli-mix starts a fresh process per operation, and set-up has warmed the file cache
    warm = [] if args.workload == "cli-mix" else [warm_up(args.workload, args.seed, runner)]
    blocks, speed = run_blocks(args.workload, args.seed, args.seconds, runner, bool(args.trace))
    peak_rss_mb = runner.peak_rss_mb()
    failures = [f for b in warm + blocks for f in check_block(b)]
    attempted = sum(len(b.ops) for b in warm + blocks)
    prov = provenance(args.workload, args.seed, blocks, warm)
    e2e, e2e_info = end_to_end(blocks, speed.scale, setup_s, peak_rss_mb)

    report = {"provenance": prov, "end_to_end": e2e, **e2e_info, "reference_passes": speed.passes,
              "fail_ratio": len(failures) / attempted,
              "outputs_sha256_block0": outputs_digest(blocks[0])}
    calls = None
    if args.trace:
        if args.workload == "cli-mix":
            imports = runner.import_times
            import_s = {k: statistics.median(t[k] for t in imports) for k in imports[0]}
        else:
            import_s = measure_import_times(env)
        layers = report["per_layer"] = per_layer(blocks, import_s)
        report["baseline"] = baseline(args.workload, blocks, import_s)
        calls = {k: v for k, v in layers.items() if k.endswith(".calls") or ".cells_" in k}
        spans = runner.spans()
        if spans is not None:
            with gzip.open(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz", "wt") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "ops": [list(op.argv) for op in blocks[0].ops], "spans": spans}, fh)
    problems = determinism(args.workload, args.seed, blocks, prov, calls)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-report.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for f in failures + problems:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  blocks {len(blocks)}  "
          f"ops {attempted}  failed {len(failures)}")
    print(f"  {'fail_ratio':<44} {report['fail_ratio']:.6g} ratio")
    units = metric_units()
    if not args.trace:
        for name, value in e2e.items():
            print(f"  {name:<44} {value:.6g} {units[name]}")
        print(f"  op_tail_s is p{e2e_info['op_tail_percentile']:.4g} "
              f"of {e2e_info['op_samples']} operations")
    else:
        for name, value in report["per_layer"].items():
            print(f"  {name:<44} {value:.6g} {units[name]}")
        for key, b in report["baseline"].items():
            print(f"  baseline {key:<44} {b['measured_s']:.4g} s vs {b['roadmap_s']} s "
                  f"(x{b['ratio']:.3g}{', beyond 2x' if b['beyond_2x'] else ''})")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"outputs_sha256_block0 {report['outputs_sha256_block0']}")

    values = report["per_layer"] if args.trace else e2e
    print(json.dumps({"correct": not (failures or problems), "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
