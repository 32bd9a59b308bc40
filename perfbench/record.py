"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py

Runs every command of every workload (full and reduced-cap lists) once
certified and, where the certified report carries a stability flag, once
with ``--no-stability``, and writes each command's exit code and canonical
report (without the ``version =`` line) to ``expected/<workload>.json``.
Run it only at a commit whose answers are trusted: the benchmark counts
every later difference as a failed operation.
"""

import json
import os
import sys

from run import (COMMAND_TIMEOUT_S, EXPECTED, WORKLOADS, answer_argv,
                 certified_argv, check_engine, comparable, git_commit, key_of,
                 source_digest, spawn)


def record(workload):
    commands = {}

    def one(argv):
        rec = spawn(argv, False, COMMAND_TIMEOUT_S)
        if "error" in rec:
            raise SystemExit("%s: %s" % (key_of(argv), rec["error"]))
        commands[key_of(argv)] = {"exit": rec["exit"],
                                  "report": comparable(rec["report"])}
        print("%6.2f s  exit %d  %s" % (rec["main_s"], rec["exit"], key_of(argv)))

    for level in ("full", "quick"):
        for base in WORKLOADS[workload][level]:
            one(certified_argv(base))
            argv = answer_argv(base, commands)
            if argv != certified_argv(base):
                one(argv)
    return commands


def main():
    check_engine()
    os.makedirs(EXPECTED, exist_ok=True)
    for workload in WORKLOADS:
        doc = {"recorded_at": {"commit": git_commit(),
                               "source_sha256": source_digest(),
                               "python": sys.version.split()[0]},
               "commands": record(workload)}
        with open(os.path.join(EXPECTED, workload + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
