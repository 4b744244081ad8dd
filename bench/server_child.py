"""Remote scorer process for the ``remote-bigram`` workload.

Usage: python3 bench/server_child.py MODEL_KIND TRACE

Builds the workload's model, serves it with ``ScorerServer`` on a free
loopback port and prints ``{"port": N}``. It runs until its standard
input closes, then prints ``{"calls": n, "scorer_ns": t}`` (the calls
and time inside the real scorer, counted only when TRACE is 1) and exits.
"""

import json
import sys

import workloads
from seqdec.remote import ScorerServer
from tracer import ServerTotals


def main(argv) -> int:
    kind, trace = argv[1], argv[2] == "1"
    model = workloads.build_model(kind)
    scorer = ServerTotals(model) if trace else model
    server = ScorerServer(scorer)
    server.start()
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
    totals = {"calls": scorer.calls, "scorer_ns": scorer.ns} if trace else {}
    print(json.dumps(totals), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
