"""Repository benchmark: one named workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve|explore|train \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload and then replays its operations
through each layer's public calls with spans around them, printing the
per-layer metrics instead (a per-layer metric of a layer the workload
never calls reads 0).  The line before the result is a JSON record of
the host, the libraries and the program's effective configuration.
The last line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for what each metric
measures on each workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import common

WORKLOADS = {"serve": "wl_serve", "explore": "wl_explore", "train": "wl_train"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    except (common.BenchError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    common.scrub_environment()

    workload = importlib.import_module(WORKLOADS[args.workload])
    with common.run_dir(args.workload, args.seed) as workdir:
        outcome, values, tracer, config = workload.run(
            args.seed, args.seconds, bool(args.trace), workdir)
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        print(f"perfbench: metrics missing from BENCHMARK.json: {unknown}",
              file=sys.stderr)
        return 3
    if tracer is not None:
        tracer.write(common.WORK_DIR / "traces"
                     / f"{args.workload}-seed{args.seed}.json")
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": common.environment_record(),
                      "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "config": config}))
    print(common.result_line(outcome, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
