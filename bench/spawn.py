"""Child launcher for bench/run.py, kept small so that each child's peak RSS
is the child's own.

On Linux a child's `ru_maxrss` starts at its parent's peak RSS, because exec
records the peak of the memory it replaces, and `subprocess` starts children
with vfork from the parent's memory. The harness grows (manifests, input rows
for the checks, traced spans), so it does not start the CLI children itself:
this process does, and it never holds more than one request.

Protocol: one JSON request per stdin line, {"argv": [...], "cwd": dir,
"stderr": path}; one JSON reply per stdout line, {"wall_s", "maxrss_kb",
"code"}. The environment is this process's own. It exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=req["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
