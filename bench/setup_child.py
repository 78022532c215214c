"""One set-up of a workload in a fresh process, for the ``setup_s`` metric.

Reads a workload spec (JSON) on standard input, imports the program, does its
one-time work on the inputs and writes ``ready``.  The parent times the
interval from starting this process to reading that line.

    python3 bench/setup_child.py WORKLOAD < spec.json
"""

import json
import sys

import corpus


def main() -> None:
    workload = sys.argv[1]
    spec = json.loads(sys.stdin.read())
    htd = corpus.load_program()
    corpus.setup(htd, workload, spec)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
