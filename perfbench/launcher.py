"""Starts and times child processes on behalf of run.py.

A child's peak RSS (``ru_maxrss``) also counts the memory of the process it
was spawned from, because Linux records the spawning address space when the
child calls exec.  run.py holds large outputs and numpy while it checks them,
so it starts this small process first and has it spawn every timed child.

Protocol: one JSON request per line on stdin,
``{"args": [...], "stdout": path, "stderr": path}``; one JSON reply per line
on stdout, ``[wall_s, max_rss_kb, exit_code]``.  The children get this
process's environment.  It exits when stdin closes.
"""

import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable, [sys.executable, *request["args"]], os.environ, file_actions=actions
            )
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
