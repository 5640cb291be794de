"""Start ``repro-spanner daemon`` through its CLI, optionally traced.

    python3 perfbench/launcher.py [--spans PATH] [--ticks PATH] \
        -- <daemon arguments>

Without options this is exactly ``repro.cli.main(["daemon", ...])``.
With ``--spans``, the benchmark's wrappers (:mod:`tracing`) are installed
first, and the recorded spans are written to ``PATH`` once the daemon has
drained and ``main`` returned.  With ``--ticks``, calibration ticks
(:class:`calibrate.Ticks`) run from before the program is imported until
the daemon exits or receives ``SIGUSR1``, and are written to ``PATH`` as a
JSON list of ``[perf_counter stamp, CPU seconds]``.  The exit code is the
daemon's.
"""

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    paths = {}
    while argv[:1] in (["--spans"], ["--ticks"]):
        paths[argv[0]], argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    ticks = None
    if "--ticks" in paths:
        import calibrate

        ticks = calibrate.Ticks()
        signal.signal(signal.SIGUSR1, lambda signum, frame: ticks.stop())
        ticks.start()
    recorder = None
    if "--spans" in paths:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    from repro import cli

    code = cli.main(["daemon", *argv])
    if ticks is not None:
        ticks.stop()
        with open(paths["--ticks"], "w") as handle:
            json.dump(ticks.ticks, handle)
    if recorder is not None:
        recorder.dump(paths["--spans"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
