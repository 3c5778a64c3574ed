"""Checks of the benchmark itself: `python3 bench/run.py --selfcheck --seed N`.

1. The same seed gives the same op list and the same output digests.
2. Another seed gives other inputs.
3. A wrong reference is caught: failed ops rise.
4. Traced and untraced calls agree on every output.

In-process workloads run one cycle per check; cli_cold runs its first
few ops only.
"""

from __future__ import annotations

import os

import reference as ref
import tracer as tr
import workloads

CLI_OPS = 4


def _labels(wl) -> list[str]:
    return [op.label for op in wl.ops]


def _first(wl, n: int):
    return workloads.Workload(wl.name, wl.ops[:n], wl.sizes, 1, wl.subprocess_ops)


def _cli_files(seed: int) -> dict[str, bytes]:
    workdir = os.path.join("bench", "out", f"selfcheck-{seed}")
    workloads.cli_cases(seed, workdir)
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def main(seed: int, runner) -> int:
    """`runner` is the bench/run.py module (set_up, execute, probe_call)."""
    execute = runner.execute
    results: list[tuple[str, bool]] = []
    clean_failed: dict[str, int] = {}

    def check(label: str, ok: bool) -> None:
        results.append((label, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)

    for name in ("numeric_validation", "exact_identities", "torsion_fourier", "cli_cold"):
        wl, _ = runner.set_up(name, seed)
        again = workloads.build(name, seed, ".")
        other = workloads.build(name, seed + 1, ".")
        if wl.subprocess_ops:
            wl, again = _first(wl, CLI_OPS), _first(again, CLI_OPS)
            check(f"{name}: same seed, same input files", _cli_files(seed) == _cli_files(seed))
            check(f"{name}: other seed, other input files", _cli_files(seed) != _cli_files(seed + 1))
        check(f"{name}: same seed, same op list", _labels(wl) == _labels(again))
        if not wl.subprocess_ops:
            check(f"{name}: other seed, other inputs", _labels(other) != _labels(again))
        first, _ = execute(wl, None, 1, {})
        clean_failed[name] = first.failed
        second, _ = execute(again, None, 1, {})
        check(f"{name}: same seed, same output digests ({len(first.outputs)} ops)",
              first.outputs == second.outputs and first.wrong == 0)

        if wl.subprocess_ops:
            traced, plain = execute(wl, None, 1, {}, traced_call=runner.probe_call)
        else:
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced, plain = execute(wl, None, 1, {}, tracer=tracer)
            finally:
                tracer.uninstall()
            check(f"{name}: tracer recorded spans ({tracer.span_count})", tracer.span_count > 0)
        check(f"{name}: traced and untraced outputs agree",
              traced.outputs == plain.outputs == first.outputs)

    # a wrong reference must raise the failure count
    for name, target, make_fake in (
        ("exact_identities", "gl_counting", lambda real: lambda r: {**real(r), 0: 7}),
        ("torsion_fourier", "point_count", lambda real: lambda pts, q: real(pts, q) + 1),
        ("numeric_validation", "circle_det", lambda real: lambda s: real(s) * (1 + 1e-6)),
    ):
        real = getattr(ref, target)
        setattr(ref, target, make_fake(real))
        try:
            wl = workloads.build(name, seed, ".")
            bad, _ = execute(wl, None, 1, {})
        finally:
            setattr(ref, target, real)
        check(f"{name}: wrong reference {target} raises failed ops "
              f"({clean_failed[name]} -> {bad.failed})", bad.failed > clean_failed[name])

    failed = [label for label, ok in results if not ok]
    print(f"selfcheck: {len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0
