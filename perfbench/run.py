"""normfusion benchmark: one closed-loop caller over two workloads.

    python3 perfbench/run.py --workload prefill-gelu --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; normfusion is imported from the
checkout's `src/` and from nowhere else, so without it the benchmark exits
with an error. One caller issues operations back to back, and every
operation's output is checked (outside the timed calls) before it counts
as a success. The last stdout line is the result,
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
`{"detail": ...}` object with sample counts, percentiles, per-call
timings, the worst errors against the oracles and host metadata.

--trace 0 reports the end-to-end metrics:
  op_min_ms     wall time of an operation, as the sum over its calls of
                each call's fastest time (prefill-gelu: run_conventional
                plus run_fused; simulate-sweep: simulate --both, --fused
                and --conventional). Other processes on the host only ever
                slow a call down, so the fastest is the figure they disturb
                least; the median and tail of whole operations are in the
                detail line and, from untraced windows, in the --trace 1
                metrics.
  setup_s       set-up time: config load, weight or grid generation and
                one warm-up operation. The run makes three rounds of fifty
                set-ups spread over it. Like op_min_ms, a round's figure is
                the sum of its parts' fastest times (the load, and each
                call of the warm-up operation); setup_s is the median of
                the three rounds. The median and tail of whole set-ups are
                in the detail line.
  peak_mem_mb   tracemalloc peak over one set-up and one operation, in an
                untimed pass of its own
  success_rate  1 - failed / attempted
--trace 1 alternates untraced windows with windows in which layer spans
are recorded (see tracing.py), and reports per-layer metrics per traced
operation. A layer metric is 0 on a workload that does not reach that
layer.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_normfusion():
    """Import normfusion from this checkout's sources, and from nowhere else."""
    package = SRC / "normfusion"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no normfusion sources at {package}")
    sys.path.insert(0, str(SRC))
    import normfusion

    if Path(normfusion.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported normfusion from {normfusion.__file__}, not {package}")


if __name__ == "__main__":
    # One caller, so one BLAS thread (the oracle and the BLAS baseline are
    # the only BLAS users); set before NumPy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    import_normfusion()
    import bench

    sys.exit(bench.main())
