"""chunkfuse benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload long-stream --seed 0 --seconds 55 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the run's environment, output digests, quality
per scene, timing samples, failures and failed checks. See
``bench/README.md``.
"""

import os
import time

START = time.perf_counter()

# one thread per process, pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _import_program():
    """Import ``chunkfuse`` from this checkout's sources, or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import chunkfuse
    except ImportError as e:
        sys.exit(f"error: cannot import chunkfuse from {ROOT / 'src'}: {e}")
    found = Path(chunkfuse.__file__).resolve().parent
    if found != ROOT / "src" / "chunkfuse":
        sys.exit(f"error: imported chunkfuse from {found}, not from this checkout")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import numpy
    import scipy

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        # the traced run uses the panel's first scene only; the budget counts
        # from the start of the process, scene building included
        seeds = workload.scene_seeds(args.seed)[: 1 if args.trace else None]
        scenes = [(s, workload.spec(s)) for s in seeds]
        bench = harness.Bench(scenes, workload.config(), work, START + args.seconds)
        if args.trace:
            values, units = bench.per_layer(), harness.PER_LAYER
        else:
            values, units = bench.end_to_end(), harness.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    tally = bench.tally
    result = harness.result(values, units, tally)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scene_seeds": [scene.seed for scene in bench.scenes],
        "passes": bench.passes,
        "digests": bench.digests,
        "quality": bench.quality,
        "samples": bench.samples,
        "failures": dict(tally.failures),
        "problems": tally.problems,
    }
    for name in units:
        print(f"{name:40s} {values.get(name)!s:>24} {units[name]}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
