"""One round of a workload in a fresh interpreter.

    python3 child.py ROOT SPEC_JSON RESULT_PATH

Imports twistsurvey from ROOT/src and parses every command line (set-up),
records the monotonic time at which set-up ended, then runs the commands
one after the other through the program's own entry point and times them.
SPEC_JSON holds "commands" (argument lists), "run" (false for a set-up
probe) and "spans" (a path: trace the round and write its spans there).
The result goes to RESULT_PATH as JSON.
"""

import json
import os
import sys
import time


def main():
    root, spec, result_path = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from twistsurvey import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"twistsurvey came from {cli.__file__}, not from {src}")
    parser = cli.build_parser()
    for argv in spec["commands"]:
        parser.parse_args(argv)
    result = {"ready": time.monotonic()}
    if spec["run"]:
        recorder = None
        if spec["spans"]:
            from spans import Recorder

            recorder = Recorder()
            recorder.install("twistsurvey")
        t0 = time.perf_counter()
        result["codes"] = [cli.main(argv) for argv in spec["commands"]]
        result["wall_s"] = time.perf_counter() - t0
        if recorder is not None:
            result["trace"] = recorder.summary()
            result["trace"]["wall_s"] = result["wall_s"]
            recorder.write(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
