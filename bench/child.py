"""Run one phonofold command in this fresh process and report what it cost.

    python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``argv`` (the command line handed to ``phonofold.cli.main``,
or null to stop after the import), ``trace`` and ``result``, the path that
receives the report as JSON. The report's ``ready`` is the monotonic clock
once ``phonofold.cli`` is imported, so the caller can time set-up from its
own clock reading taken before it started this process. ``calibration_s``
holds the seconds of the calibration workload just before and just after the
command; peak RSS is read before the second one.

Peak RSS is ``VmHWM``, the high-water mark of this process image. The
``ru_maxrss`` of a process started by fork and exec also carries the
parent's RSS at the fork, so it would report the benchmark's own size for
any command that stays below it.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    import phonofold.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    report = {"ready": ready}
    if spec["argv"] is not None:
        import calibrate

        before = calibrate.seconds()
        tracer = None
        if spec["trace"]:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        code = phonofold.cli.main(spec["argv"])
        seconds = time.perf_counter() - start
        sys.stdout.flush()
        report.update(
            exit=code,
            seconds=seconds,
            peak_rss_kb=peak_rss_kb(),
            worker_peak_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            layers=tracer.report() if tracer else {},
        )
        report["calibration_s"] = [before, calibrate.seconds()]
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
