"""Config-to-files benchmark for ringsynth.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each metric by name with its value and unit).  ``--trace 0`` gives the
end-to-end metrics of an untraced run; ``--trace 1`` gives the per-layer
metrics of a separate traced run.  The line before it is a ``detail`` object
with the tail percentile, pass count, fail rate and the environment.

This launcher imports neither numpy nor ringsynth.  It pins the BLAS thread
count and puts the checkout's ``src`` on ``PYTHONPATH`` in the
environment of every process it starts, starts the workload process
(``bench.py``) and relays its result.  It exits nonzero without a result when
the checkout has no ``src/ringsynth``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Unpinned, OpenBLAS uses every core; on two cores that made bundled jobs
# about 3x slower and far noisier than one thread.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every process this launcher starts is killed, and the run fails, once this
# many seconds have passed since it began.
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def remaining(deadline: float) -> float:
    return max(deadline - time.monotonic(), 0.001)


def bench(mode: str, args: argparse.Namespace, work: Path, env: dict[str, str],
          deadline: float) -> str:
    command = [sys.executable, str(HERE / "bench.py"), mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=remaining(deadline), check=True)
    return done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description="ringsynth config-to-files benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken problems, for the benchmark's self-test only")
    args = parser.parse_args()
    if not (SRC / "ringsynth" / "__init__.py").is_file():
        print(f"no ringsynth sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        bench("prepare", args, work, env, deadline)
        result = json.loads(bench("measure", args, work, env, deadline).strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"detail": result.pop("detail")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
