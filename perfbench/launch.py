"""Start processes one at a time and report each one's wall time and peak RSS.

Usage: python3 launch.py, then one JSON request per line on standard input:
{"cmd": [...], "env": {...}, "log": "path"}.  For each request the process
is started with its output in `log`, waited for with `os.wait4`, and one
JSON line {"wall_s", "exit_code", "peak_rss_kib"} is written to standard
output.  The launcher exits at the end of its input.

The benchmark starts its spine processes through this small process rather
than directly, because Linux carries the peak RSS of a process's memory
into the `ru_maxrss` of a child it starts: a child of the benchmark process
would report the benchmark's own peak (set-up builds the whole volume) when
that is larger than the child's.  The launcher's own peak is a few MiB.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    # on SIGTERM, stop the running process and wait for it before exiting
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    for line in sys.stdin:
        req = json.loads(line)
        env = dict(req["env"])
        with open(req["log"], "wb") as fh:
            start = time.monotonic()
            env["PERFBENCH_SPAWN_S"] = repr(start)
            proc = subprocess.Popen(req["cmd"], env=env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.terminate()
                proc.wait()
                raise
            wall_s = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall_s, "exit_code": proc.returncode,
                          "peak_rss_kib": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
