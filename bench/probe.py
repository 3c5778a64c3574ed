"""Child processes of the benchmark (run from the repository root).

  python3 bench/probe.py setup WORKLOAD SEED
      time `import f1zeta` and the workload's input generation in a fresh
      process; print {"import_s": ..., "gen_s": ...}.
  python3 bench/probe.py cli AGG_FILE OP_ID ARG...
      run f1zeta's CLI on ARG... under the tracer, exit with its code and
      write the span aggregates and spans to AGG_FILE.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(workload: str, seed: int) -> int:
    t0 = time.perf_counter()
    import f1zeta  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    import workloads

    workloads.build(workload, seed, ROOT)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "gen_s": t2 - t1}))
    return 0


def traced_cli(agg_file: str, op_id: int, argv: list[str]) -> int:
    from f1zeta import cli

    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(agg_file, "w", encoding="utf-8") as fh:
            json.dump({"aggregates": tracer.aggregates(),
                       "spans": list(tracer.span_rows())}, fh)
    return code


def main(args: list[str]) -> int:
    if args[:1] == ["setup"] and len(args) == 3:
        return setup(args[1], int(args[2]))
    if args[:1] == ["cli"] and len(args) >= 3:
        return traced_cli(args[1], int(args[2]), args[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
