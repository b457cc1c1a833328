"""Benchmark for billiardknots: realize and verify time per workload, with a
traced run that breaks the time down by module.

Run from the repository root:

    python3 benchmark/run.py --workload knots --seed 1 --seconds 30 --trace 0

It drives the library path the CLI uses: ``RealizationSpec.from_dict`` ->
``pipeline.realize`` -> ``serialization.write_artifacts`` ->
``serialization.verify_artifacts``, as a closed loop with one caller (one
input at a time, no threads).  Each run repeats whole passes over the
workload's inputs until ``--seconds`` have elapsed (at least one pass).

``--trace 0`` prints the end-to-end metrics: ``realize_s`` and ``verify_s``
(one pass: each input's median over the passes, summed), ``peak_rss_mb``
and ``setup_s`` (median of fresh interpreters that import the package and
build the specs, spread over the run).  The three times are
speed-normalised seconds: a wall time multiplied by the mean of
REF_KERNEL_S over the time of a fixed micro-kernel (no billiardknots code),
timed every 20 ms while that wall time runs (SpeedSampler).  On a shared
machine whose speed swings by a third within seconds this cuts the
run-to-run spread about threefold; a change in the program's own speed
passes through unscaled.  Raw wall seconds are printed and kept in the
record.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see tracing.py); ``trace.overhead_s``
is the traced minus the untraced ``realize_s`` + ``verify_s``.

Failed inputs (a ``PipelineError``, ``passed=False`` or a failed verify)
are counted, never skipped.  The output gate makes ``correct`` false when
verify disagrees with realize, a certified input's two Jones polynomials
differ, or the canonical report of an input changes between passes or runs
of the same source tree.  The last line of stdout is the JSON result; a
fuller record (environment, replayable inputs, per-input outcomes) goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_PASS = 2
SETUP_MIN = 7
SETUP_TIMEOUT_S = 60
REF_KERNEL_S = 0.00025  # micro-kernel time that counts as nominal machine speed
SAMPLE_INTERVAL_S = 0.02
END_TO_END_UNITS = {"realize_s": "s", "verify_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def _use_checkout_sources() -> None:
    if not (SRC / "billiardknots" / "__init__.py").is_file():
        raise BenchError(f"no billiardknots sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import billiardknots

    if Path(billiardknots.__file__).resolve().parent != SRC / "billiardknots":
        raise BenchError(f"imported billiardknots from {billiardknots.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time import + spec building; print the
    speed-normalised and the wall seconds."""
    with SpeedSampler() as sampler:
        mark = sampler.mark()
        t0 = time.perf_counter()
        _use_checkout_sources()
        from workloads import build_specs

        build_specs(workload, seed)
        wall = time.perf_counter() - t0
    print(wall * sampler.scale(mark), wall)


def measure_setup(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(speed-normalised, wall) seconds of ``repeats`` fresh-interpreter set-ups."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        normalised, wall = proc.stdout.split()[-2:]
        samples.append((float(normalised), float(wall)))
    return samples


def environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def micro_kernel() -> float:
    """Seconds for a fixed slice of interpreter and Fraction work that shares
    no code and no state with billiardknots."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(1, i)
    n = 0
    for i in range(1500):
        n += i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Reads the machine's speed every SAMPLE_INTERVAL_S while a pass runs.

    A SIGALRM handler times the micro-kernel between the program's
    bytecodes (about 1% of the time), so each input's wall time can be
    scaled by the speed the machine had while that input ran.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self.samples.extend(micro_kernel() for _ in range(5))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        self.samples.append(micro_kernel())

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Mean of REF_KERNEL_S / kernel time over the samples taken since
        ``since`` (the latest sample when none was)."""
        window = self.samples[since:] or self.samples[-1:]
        return statistics.fmean(REF_KERNEL_S / k for k in window)


def run_input(idx, inp, spec, outroot: Path, sampler, tracer, errors: list) -> dict:
    """Realize, write and verify one input; returns its record (wall and
    speed-normalised times, verdicts, digest) and appends output-gate
    violations to ``errors``."""
    from contextlib import nullcontext

    from billiardknots import pipeline, serialization
    from billiardknots.errors import PipelineError

    def root(name):
        return tracer.span(name, input_id=idx) if tracer else nullcontext()

    rec = {"input": inp.name, "realize_passed": False, "verify_passed": False,
           "realize_wall_s": 0.0, "verify_wall_s": 0.0, "realize_s": 0.0, "verify_s": 0.0}
    result = None
    mark = sampler.mark()
    t0 = time.perf_counter()
    with root("realize"):
        try:
            result = pipeline.realize(spec)
            files = serialization.write_artifacts(result, outroot / f"{idx:02d}-{inp.name}")
        except PipelineError as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["realize_wall_s"] = time.perf_counter() - t0
    rec["realize_s"] = rec["realize_wall_s"] * sampler.scale(mark)
    if result is None:
        return rec
    mark = sampler.mark()
    t0 = time.perf_counter()
    with root("verify"):
        try:
            outcome = serialization.verify_artifacts(files["report"])
        except PipelineError as exc:
            outcome = None
            rec["verify_error"] = f"{type(exc).__name__}: {exc}"
    rec["verify_wall_s"] = time.perf_counter() - t0
    rec["verify_s"] = rec["verify_wall_s"] * sampler.scale(mark)

    canonical = serialization.report_json(result, canonical=True)
    realized = {
        "mirror_room_check": result.mirror_report.passed,
        "verify_reflection": result.reflection.passed,
        "certify": result.certification.passed,
    }
    verified = {name: ok for name, ok, _ in outcome.checks} if outcome else {}
    rec.update(
        realize_passed=result.passed,
        verify_passed=bool(outcome and outcome.passed),
        realize_checks=realized,
        verify_checks=verified,
        independence=result.independence.passed,
        f=[h.frequency for h in result.heights],
        crossings=len(result.star.crossings),
        components=result.certification.components_constructed,
        digest=hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest(),
    )
    if verified != realized:
        errors.append(f"{inp.name}: verify {verified} disagrees with realize {realized}")
    jones = canonical["jones"]
    if canonical["certified"] and jones["constructed"] != jones["intended"]:
        errors.append(f"{inp.name}: certified but the Jones polynomials differ")
    if tracer:
        rec["counts"] = tracer.input_counts(idx)
    return rec


def run_pass(inputs, specs, outroot: Path, tracer=None) -> dict:
    """One pass over the inputs: summed times, per-input records and
    output-gate violations."""
    records, errors = [], []
    with SpeedSampler() as sampler:
        for idx, (inp, spec) in enumerate(zip(inputs, specs)):
            records.append(run_input(idx, inp, spec, outroot, sampler, tracer, errors))
    keys = ("realize_s", "verify_s", "realize_wall_s", "verify_wall_s")
    out = {key: sum(rec[key] for rec in records) for key in keys}
    out["per_input"] = [[round(rec[key], 6) for key in keys] for rec in records]
    return {**out, "records": records, "errors": errors}


def _failed(rec: dict) -> bool:
    return not (rec["realize_passed"] and rec["verify_passed"])


def check_digests(inputs, passes: list[dict]) -> list[str]:
    """Digests must agree between passes of this run and earlier runs of the
    same source tree in this checkout (stored under .bench_out/)."""
    errors = []
    store_path = OUT / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, json.JSONDecodeError):
        store = {}
    known = store.setdefault(source_digest(), {})
    for p in passes:
        for inp, rec in zip(inputs, p["records"]):
            key = json.dumps(inp.spec, sort_keys=True)
            digest = rec.get("digest", rec.get("error"))
            if known.setdefault(key, digest) != digest:
                errors.append(f"{inp.name}: output differs from an earlier run of the same code")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)
    return errors


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload; returns the result record (metrics, gate, inputs)."""
    # set-up probes are spread over the run, so that their median does not
    # hang on the machine's speed during one short stretch
    setup = measure_setup(workload, seed, SETUP_PER_PASS) if trace == 0 else []
    _use_checkout_sources()
    OUT.mkdir(exist_ok=True)
    from tracing import Tracer, layer_metric_units
    from workloads import build_specs

    inputs, specs = build_specs(workload, seed)
    outroot = OUT / "artifacts" / workload
    shutil.rmtree(outroot, ignore_errors=True)

    passes, missing = [], set()
    start = time.perf_counter()
    while True:
        tracer = None
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            tracer.install()
        try:
            p = run_pass(inputs, specs, outroot, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        p["traced"] = tracer is not None
        passes.append(p)
        if tracer:
            p["errors"] += tracer.sanity_errors()
            p["layers"] = tracer.layer_metrics()
            missing.update(tracer.missing)
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            break
        if trace == 0:
            setup += measure_setup(workload, seed, SETUP_PER_PASS)
    if trace == 0 and len(setup) < SETUP_MIN:
        setup += measure_setup(workload, seed, SETUP_MIN - len(setup))

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    gate = [e for p in passes for e in p["errors"]] + check_digests(inputs, passes)
    verdicts = {tuple(_failed(r) for r in p["records"]) for p in passes}
    if len(verdicts) != 1:
        gate.append("pass/fail verdicts differ between passes")
    records = (traced or untraced)[0]["records"]
    failed = sum(_failed(r) for r in records)

    def med(key, group):
        """Sum over inputs of each input's median over the passes in ``group``."""
        return sum(
            statistics.median(p["records"][i][key] for p in group) for i in range(len(records))
        )

    if trace == 0:
        metrics = {
            "realize_s": med("realize_s", untraced),
            "verify_s": med("verify_s", untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(normalised for normalised, _ in setup),
        }
        units = END_TO_END_UNITS
    else:
        units = layer_metric_units()
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            med("realize_s", traced) + med("verify_s", traced)
            - med("realize_s", untraced) - med("verify_s", untraced)
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "source_digest": source_digest(),
        "inputs": [{"name": i.name, "mirrored": i.mirrored, "spec": i.spec} for i in inputs],
        "passes": [{k: v for k, v in p.items() if k != "records"} for p in passes],
        "records": records,
        "setup_samples_s": [{"normalised": n, "wall": w} for n, w in setup],
        "attempted": len(records),
        "failed": failed,
        "failed_share": failed / len(records),
        "gate_errors": gate,
        "correct": not gate,
        "missing_wrappers": sorted(missing),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def report(result: dict) -> None:
    """Human-readable lines, a results file, then the JSON result line."""
    w, s, t = result["workload"], result["seed"], result["trace"]
    print(f"workload {w} seed {s} trace {t}: {result['attempted']} inputs, "
          f"{len(result['passes'])} passes")
    for side in ("realize", "verify"):
        walls = [round(p[f"{side}_wall_s"], 3) for p in result["passes"]]
        print(f"  {side} wall seconds per pass: {walls}")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6f} {m['unit']}")
    if t:
        by_module: dict[str, float] = {}
        for name, m in result["metrics"].items():
            if m["unit"] == "s" and name != "trace.overhead_s":
                module = name.split(".")[0]
                by_module[module] = by_module.get(module, 0.0) + m["value"]
        total = sum(by_module.values())
        print("  self seconds by module:")
        for module, secs in sorted(by_module.items(), key=lambda kv: -kv[1]):
            print(f"    {module:22s} {secs:10.4f} s {100 * secs / total:6.1f}%")
    if result["missing_wrappers"]:
        print(f"  not traced (no such function): {', '.join(result['missing_wrappers'])}")
    print(f"  {'failed_share':38s} {result['failed_share']:14.6f} share "
          f"({result['failed']} of {result['attempted']} inputs failed)")
    for rec in result["records"]:
        status = "ok" if not _failed(rec) else "FAILED"
        print(f"    {rec['input']:22s} f={rec.get('f')} {status} {rec.get('error', '')}")
    for err in result["gate_errors"]:
        print(f"  gate: {err}")
    print(f"  output gate: {'pass' if result['correct'] else 'FAIL'}")
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{w}-seed{s}-trace{t}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        report(measure(args.workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
