"""Process starter for run.py.

Reads one JSON list of arguments per line on stdin, starts that program
with stdout sent to /dev/null, waits for it, and answers with one JSON line
[wall seconds, peak RSS in MB, exit code].  It is a small process of its
own because Linux carries the peak RSS of the process that starts a child
over into the child's figure; started from here, that floor is this
interpreter's few MB rather than the benchmark's checkers.
"""
import json
import os
import sys
import time

for line in sys.stdin:
    argv = json.loads(line)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps([wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)]), flush=True)
