"""Run one benchmark workload of the CAFFEINE reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pm-pop1000 --seed 2005 --seconds 20 --trace 0

Workloads: ``pm-pop1000``, ``wide-20k``, ``ota-sweep-j2``, ``serve-mixed``
(parameters in ``perfbench/workloads.json``).  The library is imported
from ``src/`` of the checkout; nothing is installed.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps each layer's public functions, reports the per-layer
metrics named in ``BENCHMARK.json`` and writes the spans as JSONL to
``.perfbench-out/<workload>.<part>.spans.jsonl``.  Layers a workload never runs
in this process report 0.

The output is human-readable lines followed, as the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the workload's failed fraction.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no library sources at {SRC / 'repro'}; run from a checkout")

    import workloads

    config = json.loads((HERE / "workloads.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runners = {"pm-pop1000": workloads.pm_pop1000,
               "wide-20k": workloads.wide_20k,
               "ota-sweep-j2": workloads.ota_sweep_j2,
               "serve-mixed": workloads.serve_mixed}
    if args.workload not in runners:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(runners)}")
    seed = (config["workloads"][args.workload]["default_seed"]
            if args.seed is None else args.seed)
    run = workloads.Run(args.workload, config, seed, args.seconds,
                        bool(args.trace))
    threads = workloads.blas_threads()
    print(f"workload {args.workload}  seed {seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  BLAS threads {threads}")
    recorded = run.params["blas_threads"]
    run.check(threads == recorded, f"BLAS runs {threads} threads, "
              f"workloads.json records {recorded}")
    measured = runners[args.workload](run)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    unmeasured = sorted(set(units) - set(measured))
    if unmeasured and not args.trace:
        raise KeyError(f"end-to-end metrics not measured: {unmeasured}")
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name, 0)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}

    for line in run.lines:
        print(line)
    for name, metric in metrics.items():
        note = "" if name in measured else "  (layer not run here)"
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"{'failed_frac':40s} {run.failed / max(1, run.attempted):>14.6g} "
          f"({run.failed} of {run.attempted} checks)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
