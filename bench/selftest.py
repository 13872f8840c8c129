"""Self-test of the benchmark harness on a tiny scene (a few seconds).

    python3 bench/selftest.py

Checks the span self-time arithmetic, that an injected raising call is
counted as a failed operation without stopping the run, that the untraced
run installs no wrapper and the traced run leaves none behind, and that
the metric names and units printed on the last line match
``BENCHMARK.json`` exactly. Exits non-zero on the first failed check.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chunkfuse import PipelineConfig, fusion  # noqa: E402

import harness  # noqa: E402
from spans import Tracer, installed_wrappers  # noqa: E402
from workloads import gauge_recovery_spec  # noqa: E402

WORK = ROOT / ".bench_work" / f"selftest-p{os.getpid()}"


def check_span_arithmetic() -> None:
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 10.0, 11.0, 12.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("root"):            # 0 .. 10
        with tr.span("a"):           # 1 .. 3
            with tr.span("leaf"):    # 1.5 .. 2
                pass
        with tr.span("b"):           # 4 .. 7
            pass
    with tr.span("after"):           # 11 .. 12
        pass
    assert tr.self_times() == [5.0, 1.5, 0.5, 3.0, 1.0], tr.self_times()
    assert tr.subtree(0) == [0, 1, 2, 3]
    inside = tr.self_by_name(tr.subtree(0))
    assert sum(inside.values()) == tr.duration(0) == 10.0
    assert tr.calls("leaf") == 1 and tr.find("b") == [3]


def _bench() -> harness.Bench:
    """A bench on one tiny scene whose budget is already spent: one pass."""
    return harness.Bench([(3, gauge_recovery_spec(3))], PipelineConfig(), WORK, 0.0)


def check_failure_is_counted() -> None:
    original = fusion.fuse_sequence

    def flaky(chunks, cfg, ablation="full", frame_sink=None):
        if ablation == "overlap":
            raise RuntimeError("injected")
        return original(chunks, cfg, ablation=ablation, frame_sink=frame_sink)

    fusion.fuse_sequence = flaky
    try:
        bench = _bench()
        with contextlib.redirect_stderr(io.StringIO()):  # the expected traceback
            values = bench.end_to_end()
    finally:
        fusion.fuse_sequence = original
    tally = bench.tally
    assert tally.attempted == 5, tally  # 3 fuses, 2 evaluations
    assert tally.failed == 1, tally
    assert dict(tally.failures) == {"fuse overlap: RuntimeError": 1}, tally.failures
    assert set(bench.digests[3]) == {"base", "full"}, bench.digests
    assert values["epe_full"] is not None and values["epe_overlap"] is None


def check_metric_names() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        bench = _bench()
        values = getattr(bench, key)()
        assert not installed_wrappers(harness.TRACED_MODULES), key
        assert not bench.tally.problems, (key, bench.tally.problems)
        line = json.loads(json.dumps(harness.result(values, units, bench.tally)))
        assert list(line) == ["correct", "attempted", "failed", "metrics"], list(line)
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in declared[key]}
        assert printed == wanted, (key, set(printed) ^ set(wanted))


def main() -> int:
    checks = (check_span_arithmetic, check_failure_is_counted, check_metric_names)
    try:
        for check in checks:
            check()
            print(f"ok   {check.__name__}")
    except AssertionError as e:
        print(f"FAIL {check.__name__}: {e}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if WORK.parent.is_dir() and not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
