"""Measure one workload's set-up time in a fresh interpreter.

Set-up is the work done through the program before its first timed
operation: importing the modules the workload's path loads, and for the
live and daemon workloads constructing the monitor and scheduler or
binding and starting the server.  Interpreter start-up is excluded; the
clock starts before the first import of the program.

Run as ``python3 perfbench/probe.py WORKLOAD DIRECTORY``; prints seconds.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    workload, directory = sys.argv[1], sys.argv[2]
    if workload == "live-table2":
        from repro.bench.harness import analyzer_stack
        from repro.bench.table2 import run_row  # noqa: F401
        from repro.runtime.monitor import Monitor
        from repro.sched.scheduler import Scheduler
        Scheduler(Monitor(analyzers=analyzer_stack("rd2")), seed=0)
    elif workload == "daemon-ingest":
        from repro.service.client import ControlClient, ServerThread
        from repro.service.server import ServiceConfig
        from repro.service.session import SessionConfig
        config = ServiceConfig(
            socket_path=f"{directory}/ingest.sock",
            control_path=f"{directory}/control.sock",
            session=SessionConfig(checkpoint_dir=f"{directory}/checkpoints"))
        with ServerThread(config):
            ControlClient(config.control_path).shutdown()
    else:
        import repro.cli  # noqa: F401
        import repro.core.detector  # noqa: F401
        from repro.specs import bundled_objects
        bundled_objects()
        if workload == "sharded-fanout":
            import repro.core.parallel  # noqa: F401
            import repro.core.shmem  # noqa: F401
        elif workload == "predict-synthetic":
            import repro.core.predict  # noqa: F401
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
