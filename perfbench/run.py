"""The repository benchmark: one command, three membership-plane workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady-n512 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload gossip-rack-n96 --seed 1 --trace 1
    python3 perfbench/run.py --check

``--trace 0`` prints the end-to-end metrics (host cost and the paper's
outputs), ``--trace 1`` the per-layer metrics of a traced run plus an
end-of-run heap walk, and ``--check`` runs the benchmark's self-tests
and the published-table gate. Each run prints one ``{"env": ...}`` line
and, last, one JSON result line; it exits non-zero without a result when
the package source is missing or a run cannot complete. See README.md.
"""

from __future__ import annotations

import os

# Pin every numpy/BLAS thread pool to one thread before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``setup_s`` is the median of at least SETUPS_MIN set-ups, more (up to
#: SETUPS_MAX) until they add up to SETUP_CPU_S: a cheap set-up is
#: repeated until its median is steady.
SETUPS_MIN = 5
SETUPS_MAX = 25
SETUP_CPU_S = 2.0
#: Each set-up's CPU time is scaled to a host on which one
#: ``ReferenceChunk`` call takes REF_CHUNK_S (its typical time right
#: before a set-up on the 2-core VM the benchmark was built on), by the
#: mean of SETUP_CHUNKS calls timed just before that set-up.
REF_CHUNK_S = 0.15e-3
SETUP_CHUNKS = 10
#: Measured drives per run at most (more only when one is shorter than
#: ``--seconds``).
MAX_REPS = 5

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cpu_ref", "chunks"),
    ("peak_rss_mb", "MB"),
    ("routing_Bps_node", "B/s"),
    ("membership_Bps_node", "B/s"),
    ("optimal_route_frac", "frac"),
)


def _environment(seed: Optional[int], workload: Optional[str]) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "workload": workload,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _note(text: str) -> None:
    print(f"# {text}", file=sys.stderr, flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(workload: Any, seed: int) -> Tuple[Any, float, float]:
    """Set up one instance of ``workload``: ``(instance, CPU seconds,
    the CPU seconds scaled to REF_CHUNK_S)``."""
    from workloads import ReferenceChunk

    chunk = ReferenceChunk()
    c0 = time.process_time()
    for _ in range(SETUP_CHUNKS):
        chunk()
    c1 = time.process_time()
    inst = workload.setup(seed)
    setup_s = time.process_time() - c1
    return inst, setup_s, setup_s * REF_CHUNK_S * SETUP_CHUNKS / (c1 - c0)


def _measured_pass(
    workload: Any, seed: int, on_timed: Any = None, keep: bool = False
) -> Dict[str, Any]:
    """Set up, drive and summarize one instance of ``workload`` (kept
    under ``"instance"`` when ``keep``)."""
    from workloads import drive, summarize

    inst, setup_s, setup_ref_s = _timed_setup(workload, seed)
    drv = drive(inst, on_timed=on_timed)
    metrics, counts, problems = summarize(inst)
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "drive": drv,
        "metrics": metrics,
        "counts": counts,
        "problems": problems,
    }
    if keep:
        out["instance"] = inst
    return out


def run_untraced(workload: Any, seed: int, seconds: float) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """The end-to-end run: medians of repeated set-ups and drives."""
    setups: List[float] = []
    scaled_setups: List[float] = []
    cpus: List[float] = []
    costs: List[float] = []
    chunk_ms: List[float] = []
    ref: Optional[Tuple[Dict[str, float], Dict[str, float]]] = None
    problems: List[str] = []
    while True:
        rep = _measured_pass(workload, seed)
        drv = rep["drive"]
        setups.append(rep["setup_s"])
        scaled_setups.append(rep["setup_ref_s"])
        cpus.append(drv.cpu_s)
        chunk_s = drv.ref_cpu_s / drv.ref_chunks
        costs.append(drv.cpu_s / chunk_s)
        chunk_ms.append(chunk_s * 1e3)
        if ref is None:
            ref = (rep["metrics"], rep["counts"])
            problems += rep["problems"]
        elif (rep["metrics"], rep["counts"]) != ref:
            problems.append("simulated statistics differ between repetitions of one seed")
        del rep
        gc.collect()
        if sum(cpus) >= seconds or len(cpus) >= MAX_REPS:
            break
    assert ref is not None
    peak_rss_mb = _peak_rss_mb()
    # Extra set-ups come last so their garbage cannot raise the peak.
    while len(setups) < SETUPS_MIN or (sum(setups) < SETUP_CPU_S and len(setups) < SETUPS_MAX):
        inst, setup_s, setup_ref_s = _timed_setup(workload, seed)
        setups.append(setup_s)
        scaled_setups.append(setup_ref_s)
        del inst
        gc.collect()
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "cpu_ref": statistics.median(costs),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(ref[0])
    _note(
        f"{len(setups)} set-ups, median {statistics.median(setups):.4f} CPU s; {len(cpus)} measured "
        f"drive(s): cpu_s {[round(c, 3) for c in cpus]}, reference chunk ms {[round(c, 4) for c in chunk_ms]}"
    )
    return metrics, ref[1], problems


def run_traced(workload: Any, seed: int) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """Untraced pass with an end-of-run heap walk, then a span-traced pass."""
    import layers
    from spans import SpanRecorder, Tracer

    problems: List[str] = []
    t0 = time.perf_counter()
    plain = _measured_pass(workload, seed, keep=True)
    problems += plain["problems"]
    _note(f"untraced pass {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    heap = layers.heap_by_module(plain.pop("instance").overlay)
    heap["mem.rss_peak_mb"] = _peak_rss_mb()
    gc.collect()
    _note(f"heap walk {time.perf_counter() - t0:.1f} s")

    recorder = SpanRecorder()
    views = layers.ViewCounter()
    marks: Dict[str, Any] = {}

    def on_timed(start: bool) -> None:
        key = "start" if start else "end"
        marks[key] = ({k: list(v) for k, v in recorder.stats.items()}, recorder.top_s)

    t0 = time.perf_counter()
    with Tracer(recorder) as tracer:
        layers.install(tracer, views)
        traced = _measured_pass(workload, seed, on_timed=on_timed)
    _note(f"traced pass {time.perf_counter() - t0:.1f} s")
    if (traced["metrics"], traced["counts"]) != (plain["metrics"], plain["counts"]):
        diff = sorted(
            k
            for part in ("metrics", "counts")
            for k in plain[part]
            if plain[part][k] != traced[part].get(k)
        )
        problems.append(f"traced run differs from the untraced run on {diff}")
    (start, top0), (end, top1) = marks["start"], marks["end"]
    window = {
        k: [v[i] - start.get(k, (0, 0.0, 0.0))[i] for i in range(3)] for k, v in end.items()
    }

    drv = traced["drive"]
    metrics = layers.per_layer_metrics(
        window=window,
        whole_run=recorder.stats,
        traced_wall_s=drv.wall_s,
        top_s=top1 - top0,
        untraced_wall_s=plain["drive"].wall_s,
        views=views,
        counts=plain["counts"],
        slice_ms=drv.slice_ms,
        pending_max=drv.pending_max,
        heap=heap,
    )
    return metrics, plain["counts"], problems


def _result(
    metrics: Dict[str, float],
    units: Tuple[Tuple[str, str], ...],
    counts: Dict[str, float],
    problems: List[str],
) -> Dict[str, Any]:
    missing = [name for name, _ in units if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "correct": not problems,
        "attempted": int(counts["attempted"]),
        "failed": int(counts["failed"]),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="run the self-tests and gates")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.check:
        import selftest

        print(json.dumps({"env": _environment(None, None)}), flush=True)
        return selftest.main()

    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(json.dumps({"env": _environment(args.seed, workload.name)}), flush=True)

    if args.trace:
        import selftest

        metrics, counts, problems = run_traced(workload, args.seed)
        problems += selftest.quick(gate=workload.name == "gossip-rack-n96")
        units = tuple(layers.PER_LAYER)
    else:
        metrics, counts, problems = run_untraced(workload, args.seed, args.seconds)
        units = END_TO_END
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(_result(metrics, units, counts, problems)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
